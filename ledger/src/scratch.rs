//! One scratch root per process, `.ledger_scratch/<pid>/` under the
//! current directory: every store, every CAS object and nothing else. It
//! is removed when the [`Scratch`] drops; `main` drops it on the error and
//! panic paths too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const ROOT: &str = ".ledger_scratch";

pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Create this process's root, first sweeping roots whose process is
    /// gone (a run that was killed could not clean up after itself).
    pub fn create() -> std::io::Result<Scratch> {
        let base = std::env::current_dir()?.join(ROOT);
        std::fs::create_dir_all(&base)?;
        for entry in std::fs::read_dir(&base)?.flatten() {
            let stale = entry
                .file_name()
                .to_str()
                .and_then(|name| name.parse::<u32>().ok())
                .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let root = base.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A path for a new directory under the root (not yet created: store
    /// constructors create it, which is part of what set-up times).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}_{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Gone too when this was the last run using it.
        if let Some(base) = self.root.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Remove one scratch directory now (a CAS directory holds thousands of
/// objects per save; waiting for the end of the run would fill the disk).
pub fn discard(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// `(path, length, modification time)` of every regular file under `dir`.
pub type Listing = std::collections::BTreeSet<(PathBuf, u64, Option<std::time::SystemTime>)>;

pub fn listing(dir: &Path) -> Listing {
    let mut out = Listing::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(entry.path()),
                Ok(meta) => {
                    out.insert((entry.path(), meta.len(), meta.modified().ok()));
                }
                Err(_) => {}
            }
        }
    }
    out
}

/// Bytes the regular files under `dir` hold.
pub fn dir_bytes(dir: &Path) -> u64 {
    listing(dir).iter().map(|(_, len, _)| len).sum()
}

/// Copy the regular files of `src` (recursively) into a new directory
/// `dst`: a second copy of a store as a crashed run left it.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}
