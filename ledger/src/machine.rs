//! The machine fingerprint printed with every result: a number without the
//! machine it was taken on is not comparable with anything.

use crate::json::{obj, Json};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=96K L2=4096K ...` of cpu0, as sysfs reports them.
fn caches() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/size")),
        ) else {
            break;
        };
        let kind = match read(&format!("{base}/type")).as_deref().map(str::trim) {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{}{kind}={}", level.trim(), size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// 1-minute load average; `NaN` where `/proc` does not say.
pub fn loadavg() -> f64 {
    read("/proc/loadavg")
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD` of a checkout in the current directory, read from `.git` itself
/// (the driver's checkout is not a repository: then `unknown`).
fn git_rev() -> String {
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
            }),
    };
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything except the end-of-run load, which the report adds.
pub fn fingerprint(seed: u64) -> Json {
    obj([
        ("available_parallelism", Json::from(available_parallelism())),
        ("cpu_model", Json::from(cpu_model())),
        ("caches", Json::from(caches())),
        ("loadavg_1m_start", Json::from(loadavg())),
        ("rustc", Json::from(rustc_version())),
        ("git_rev", Json::from(git_rev())),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        // As text: a u64 seed does not survive a trip through f64.
        ("seed", Json::from(seed.to_string())),
    ])
}
