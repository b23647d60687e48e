//! CRC-32 (IEEE 802.3) for checkpoint integrity.
//!
//! Checkpoints live on remote Grid storage elements (§I); a truncated or
//! bit-rotted snapshot must be detected *before* it is poured into live
//! application state. Every persisted artefact carries a trailing CRC-32
//! (polynomial 0xEDB88320, reflected, init/final XOR 0xFFFFFFFF — the
//! zlib/PNG convention).
//!
//! Two implementations sit behind one streaming state:
//!
//! * a **carry-less-multiplication fold** (x86-64 `PCLMULQDQ`, detected at
//!   run time) that processes 64 bytes per step — an order of magnitude
//!   faster than table lookup, which matters now that a single running CRC
//!   pass is the *only* integrity work on the streamed checkpoint path
//!   (wire verification and store format share it);
//! * a portable **slice-by-8** fallback: eight derived 256-entry tables let
//!   the inner loop fold eight input bytes per step instead of one.
//!
//! Both produce identical digests for identical input — the fast path is a
//! pure speedup, never a format change.
//!
//! **One block engine checksums a large span on several cores**
//! (`crc_blocks`), for a save and a restore alike: the span is cut into
//! 256 KiB blocks, helper threads claim blocks from one counter while the
//! calling thread does its own work (a save's write), the calling thread
//! claims what is left, and the block CRCs join the running one in record
//! order ([`Crc32::append_shifted`]) — exactly the value one front-to-back
//! pass computes.

use ppar_core::sync::{cores, AtomicUsize, Ordering};

/// Lazily built slice-by-8 table set. `TABLES[0]` is the classic byte-wise
/// table; `TABLES[k][b] == crc_of(b << (8 * k))`, so eight lookups combine
/// into one 64-bit step.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Portable slice-by-8 absorb: folds `bytes` into the working state.
fn update_slice8(state: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The `PCLMULQDQ` folding kernel (Intel's "Fast CRC Computation Using
/// PCLMULQDQ Instruction" technique, in the bit-reflected domain). Four
/// 128-bit accumulators fold 64 input bytes per iteration; the tail is
/// folded 16 bytes at a time and Barrett-reduced back to 32 bits.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    /// Run-time gate: the kernel needs `PCLMULQDQ` + SSE4.1.
    pub fn supported() -> bool {
        use std::sync::OnceLock;
        static OK: OnceLock<bool> = OnceLock::new();
        *OK.get_or_init(|| {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Fold `data` into the working CRC state.
    ///
    /// # Safety
    ///
    /// Caller must ensure [`supported`] returned `true`, `data.len() >= 64`
    /// and `data.len() % 16 == 0` (the dispatcher in
    /// [`Crc32::update`](super::Crc32::update) guarantees all three).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        // Bit-reflected domain fold constants for P = 0xEDB88320: the pair
        // for a D-bit fold distance is (x^(D+32) mod P, x^(D-32) mod P),
        // bit-reflected. k7k8 folds 1024 bits (the eight-lane stride), k1k2
        // folds 512 (eight lanes → four), k3k4 folds 128 (lane merge and
        // the 16-byte tail), k5 folds 64; poly_mu is the Barrett pair
        // (P', µ).
        let k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
        let k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
        let k7k8 = _mm_set_epi64x(0x014a7fe880, 0x01e88ef372);
        let k5 = _mm_set_epi64x(0, 0x0163cd6124);
        let poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);

        macro_rules! fold_lane {
            ($x:expr, $k:expr, $y:expr) => {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128($x, $k, 0x00),
                        _mm_clmulepi64_si128($x, $k, 0x11),
                    ),
                    $y,
                )
            };
        }
        macro_rules! load {
            ($p:expr) => {
                _mm_loadu_si128($p as *const __m128i)
            };
        }

        let mut buf = data.as_ptr();
        let mut len = data.len();

        let (mut x1, mut x2, mut x3, mut x4);
        if len >= 128 {
            // Eight lanes, 128 bytes per iteration: enough independent
            // carry-less-multiply chains to hide the instruction latency.
            x1 = _mm_xor_si128(load!(buf), _mm_cvtsi32_si128(crc as i32));
            x2 = load!(buf.add(0x10));
            x3 = load!(buf.add(0x20));
            x4 = load!(buf.add(0x30));
            let mut x5 = load!(buf.add(0x40));
            let mut x6 = load!(buf.add(0x50));
            let mut x7 = load!(buf.add(0x60));
            let mut x8 = load!(buf.add(0x70));
            buf = buf.add(128);
            len -= 128;
            while len >= 128 {
                x1 = fold_lane!(x1, k7k8, load!(buf));
                x2 = fold_lane!(x2, k7k8, load!(buf.add(0x10)));
                x3 = fold_lane!(x3, k7k8, load!(buf.add(0x20)));
                x4 = fold_lane!(x4, k7k8, load!(buf.add(0x30)));
                x5 = fold_lane!(x5, k7k8, load!(buf.add(0x40)));
                x6 = fold_lane!(x6, k7k8, load!(buf.add(0x50)));
                x7 = fold_lane!(x7, k7k8, load!(buf.add(0x60)));
                x8 = fold_lane!(x8, k7k8, load!(buf.add(0x70)));
                buf = buf.add(128);
                len -= 128;
            }
            // Eight lanes → four (a 512-bit fold into the later half).
            x1 = fold_lane!(x1, k1k2, x5);
            x2 = fold_lane!(x2, k1k2, x6);
            x3 = fold_lane!(x3, k1k2, x7);
            x4 = fold_lane!(x4, k1k2, x8);
        } else {
            // Four lanes seeded from the first 64 bytes.
            x1 = _mm_xor_si128(load!(buf), _mm_cvtsi32_si128(crc as i32));
            x2 = load!(buf.add(0x10));
            x3 = load!(buf.add(0x20));
            x4 = load!(buf.add(0x30));
            buf = buf.add(64);
            len -= 64;
        }

        // Fold the four lanes into one.
        let mut x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
        x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
        x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

        // Serial fold of any remaining 16-byte blocks.
        while len >= 16 {
            let y = _mm_loadu_si128(buf as *const __m128i);
            x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, y), x5);
            buf = buf.add(16);
            len -= 16;
        }

        // 128 → 64 bits.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_srli_si128(x1, 8);
        x1 = _mm_xor_si128(x1, x2);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_and_si128(x1, mask32);
        x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
        x1 = _mm_xor_si128(x1, x2);

        // Barrett reduce 64 → 32 bits.
        let mut x2 = _mm_and_si128(x1, mask32);
        x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
        x2 = _mm_and_si128(x2, mask32);
        x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
        x1 = _mm_xor_si128(x1, x2);
        _mm_extract_epi32(x1, 1) as u32
    }
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes (`PCLMULQDQ` fold where available, slice-by-8 tail and
    /// fallback).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && pclmul::supported() {
            let take = bytes.len() & !15;
            // SAFETY: feature support checked, length ≥ 64 and 16-aligned.
            self.state = unsafe { pclmul::fold(self.state, &bytes[..take]) };
            bytes = &bytes[take..];
        }
        self.state = update_slice8(self.state, bytes);
    }

    /// Final digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Absorb `len` bytes whose CRC-32 is `crc`, as if they had been
    /// [`Crc32::update`]d here. Appending them multiplies this register by
    /// x^(8·len) modulo the polynomial (the pre- and post-conditioning XORs
    /// cancel out), so no byte is read again.
    pub fn append(&mut self, crc: u32, len: u64) {
        self.append_shifted(crc, crc32_shift(len));
    }

    /// [`Crc32::append`] with the length's shift precomputed
    /// ([`crc32_shift`]): one multiplication, however long the bytes.
    pub fn append_shifted(&mut self, crc: u32, shift: u32) {
        self.state = (mul_mod_p(shift, self.finish()) ^ crc) ^ 0xFFFF_FFFF;
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// `a · b mod P` over GF(2), both in the reflected order of the CRC
/// register (bit 31 holds the coefficient of x⁰).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        if a & (1 << bit) != 0 {
            product ^= b;
        }
        // b · x
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    product
}

/// x^(8·len) mod P: what appending `len` bytes multiplies a CRC register
/// by. A `const fn`, so a fixed block length's shift is a constant and
/// appending a block costs one multiplication ([`Crc32::append_shifted`]).
pub const fn crc32_shift(len: u64) -> u32 {
    // x^(8·2^i) mod P by squaring, starting from x⁸ (one byte's shift).
    let mut power = 1 << (31 - 8);
    let mut shift = 1 << 31; // x⁰
    let mut n = len;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(power, shift);
        }
        power = mul_mod_p(power, power);
        n >>= 1;
    }
    shift
}

/// Block size for interleaving the CRC pass with the copy on large
/// payloads: each block is checksummed while still cache-hot from the
/// write (or vice versa), saving a second trip to RAM per multi-MiB
/// field. Also the unit of a payload's kept block CRCs
/// ([`crate::store::FieldPatch::known`]) and of [`crc_blocks`].
pub(crate) const CRC_COPY_BLOCK: usize = 256 << 10;

/// What appending one [`CRC_COPY_BLOCK`] multiplies a CRC register by: a
/// large payload's block CRCs join in one multiplication each.
const BLOCK_SHIFT: u32 = crc32_shift(CRC_COPY_BLOCK as u64);

/// The least a thread checksums of a span [`crc_blocks`] shares out.
pub(crate) const SPLIT_PART: usize = 2 << 20;

/// The helper threads [`crc_blocks`] starts for a `len`-byte span with
/// `known` block CRCs: one per [`SPLIT_PART`] to checksum past the first,
/// one per spare core at most — none where it would cost more than it saves.
pub(crate) fn helpers(len: usize, known: Option<&[Option<u32>]>) -> usize {
    let stale = (0..len.div_ceil(CRC_COPY_BLOCK))
        .filter(|&i| known.is_none_or(|known| known[i].is_none()))
        .map(|i| CRC_COPY_BLOCK.min(len - i * CRC_COPY_BLOCK));
    (stale.sum::<usize>() / SPLIT_PART)
        .saturating_sub(1)
        .min(cores().saturating_sub(1))
}

/// Join the CRC of a block of `len` bytes to `crc`.
pub(crate) fn join_block(crc: &mut Crc32, block_crc: u32, len: usize) {
    match len {
        CRC_COPY_BLOCK => crc.append_shifted(block_crc, BLOCK_SHIFT),
        len => crc.append(block_crc, len as u64),
    }
}

/// The block engine: the CRC of a `len`-byte span of [`CRC_COPY_BLOCK`]
/// blocks (the last one partial), joined to `crc` in record order.
/// `known` vouches for some blocks' CRCs (`None`: for none); `job(i,
/// scratch)` checksums block `i`, `scratch` being the claiming thread's
/// own. The other blocks are claimed from one counter: by [`helpers`]
/// scoped threads while this thread runs `work`, then by this thread. A
/// failed `work` or job stops further claims. Returns `work`'s value and
/// every block's CRC; the error is the first in record order, `work`'s
/// before any block's.
pub(crate) fn crc_blocks<T, E: Send>(
    crc: &mut Crc32,
    len: usize,
    known: Option<&[Option<u32>]>,
    job: impl Fn(usize, &mut Vec<u8>) -> Result<u32, E> + Sync,
    work: impl FnOnce() -> Result<T, E>,
) -> Result<(T, Vec<u32>), E> {
    let blocks = len.div_ceil(CRC_COPY_BLOCK);
    let block_len = |i: usize| CRC_COPY_BLOCK.min(len - i * CRC_COPY_BLOCK);
    let known_at = |i: usize| known.and_then(|known| known[i]);
    let stale: Vec<usize> = (0..blocks).filter(|&i| known_at(i).is_none()).collect();
    // `Relaxed`: the counter hands out indices and publishes no data;
    // every claimed block's result reaches this thread through the join.
    let next = AtomicUsize::new(0);
    let stop = |_: &E| next.store(stale.len(), Ordering::Relaxed);
    let claim = || {
        let (mut done, mut scratch) = (Vec::new(), Vec::new());
        while let Some(&i) = stale.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, job(i, &mut scratch).inspect_err(stop)));
        }
        done
    };
    let helpers = helpers(len, known);
    let (worked, claimed) = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        let worked = work().inspect_err(stop);
        let mut claimed = claim();
        for helper in helpers {
            let helped = helper.join();
            claimed.extend(helped.unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        (worked, claimed)
    });
    let worked = worked?;
    let mut crcs: Vec<_> = (0..blocks).map(|i| known_at(i).map(Ok)).collect();
    for (i, block_crc) in claimed {
        crcs[i] = Some(block_crc);
    }
    let mut joined = Vec::with_capacity(blocks);
    for (i, block_crc) in crcs.into_iter().enumerate() {
        // Claims go in record order: a block left unclaimed lies past an error.
        joined.push(block_crc.expect("claimed before an error")?);
        join_block(crc, joined[i], block_len(i));
    }
    Ok((worked, joined))
}

/// Running CRC over a byte stream whose *last four bytes* are the stored
/// little-endian CRC-32 of everything before them — the layout of every
/// checksummed snapshot/delta record.
///
/// The stream arrives in arbitrary chunks and its total length is unknown
/// until it ends, so the tracker holds the most recent four bytes back from
/// the digest; whatever is held back when the stream ends *is* the stored
/// trailer. This is what lets a streamed checkpoint install verify the
/// record with a single pass, as the chunks fly by, with no re-read.
#[derive(Debug, Clone, Default)]
pub struct TrailingCrc {
    crc: Crc32,
    tail: [u8; 4],
    tail_len: usize,
    total: u64,
}

impl TrailingCrc {
    /// Fresh tracker.
    pub fn new() -> Self {
        TrailingCrc {
            crc: Crc32::new(),
            tail: [0; 4],
            tail_len: 0,
            total: 0,
        }
    }

    /// Absorb the next chunk of the stream.
    pub fn update(&mut self, chunk: &[u8]) {
        self.total += chunk.len() as u64;
        if chunk.len() >= 4 {
            // The held-back bytes are now known to precede the trailer.
            self.crc.update(&self.tail[..self.tail_len]);
            let keep = chunk.len() - 4;
            self.crc.update(&chunk[..keep]);
            self.tail.copy_from_slice(&chunk[keep..]);
            self.tail_len = 4;
        } else {
            let mut pending = [0u8; 8];
            pending[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            pending[self.tail_len..self.tail_len + chunk.len()].copy_from_slice(chunk);
            let len = self.tail_len + chunk.len();
            let keep = len.min(4);
            self.crc.update(&pending[..len - keep]);
            self.tail[..keep].copy_from_slice(&pending[len - keep..len]);
            self.tail_len = keep;
        }
    }

    /// Total bytes absorbed so far (body + trailer).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Consume the tracker: `(total_len, stored_crc, computed_crc)`. The
    /// record is intact iff the two CRCs match. `None` if the stream was
    /// shorter than a trailer.
    pub fn finish(self) -> Option<(u64, u32, u32)> {
        if self.tail_len < 4 {
            return None;
        }
        let stored = u32::from_le_bytes(self.tail);
        Some((self.total, stored, self.crc.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference byte-at-a-time implementation (the pre-slice-by-8 loop).
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t = tables();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn dispatch_matches_bytewise_at_all_lengths() {
        // Every length through the 64-byte SIMD threshold, every tail
        // residue class, plus sizes that exercise the parallel fold loop —
        // whichever implementation the dispatcher picks, the digest must
        // equal the byte-wise reference.
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in (0..200).chain([255, 256, 1023, 4096, 8999]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        let mut c = Crc32::new();
        c.update(&data[..13]);
        c.update(&data[13..]);
        assert_eq!(c.finish(), crc32_bytewise(&data));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn streaming_across_simd_threshold_matches() {
        // Split points straddling 64 bytes hand the fold kernel partial
        // state; the result must not depend on chunking.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        let expect = crc32_bytewise(&data);
        for split in [1, 15, 16, 63, 64, 65, 100, 1000, 4095] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), expect, "split {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 1024];
        let original = crc32(&data);
        data[512] ^= 0x10;
        assert_ne!(crc32(&data), original);
    }

    #[test]
    fn trailing_crc_accepts_a_checksummed_record() {
        let mut record: Vec<u8> = (0..1500u32).map(|i| (i * 13) as u8).collect();
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_le_bytes());
        // Feed in awkward chunk sizes, including ones smaller than the
        // trailer itself.
        for chunk_len in [1usize, 2, 3, 4, 5, 7, 64, 333, 1504] {
            let mut t = TrailingCrc::new();
            for chunk in record.chunks(chunk_len) {
                t.update(chunk);
            }
            assert_eq!(t.total(), record.len() as u64);
            let (total, stored, computed) = t.finish().unwrap();
            assert_eq!(total, record.len() as u64);
            assert_eq!(stored, computed, "chunk_len {chunk_len}");
            assert_eq!(stored, crc);
        }
    }

    #[test]
    fn trailing_crc_rejects_corruption_anywhere() {
        let mut record: Vec<u8> = (0..600u32).map(|i| (i * 7) as u8).collect();
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_le_bytes());
        for pos in [0, 1, 300, 599, 600, 603] {
            let mut corrupt = record.clone();
            corrupt[pos] ^= 0x20;
            let mut t = TrailingCrc::new();
            for chunk in corrupt.chunks(100) {
                t.update(chunk);
            }
            let (_, stored, computed) = t.finish().unwrap();
            assert_ne!(stored, computed, "byte {pos}");
        }
    }

    #[test]
    fn trailing_crc_short_stream_has_no_trailer() {
        let mut t = TrailingCrc::new();
        t.update(&[1, 2, 3]);
        assert!(t.finish().is_none());
        assert!(TrailingCrc::new().finish().is_none());
    }

    proptest::proptest! {
        /// The SIMD/portable dispatcher and any chunking produce the same
        /// digest as the byte-wise reference.
        #[test]
        fn prop_chunked_dispatch_matches_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            chunk in 1usize..512,
        ) {
            let mut c = Crc32::new();
            for part in data.chunks(chunk) {
                c.update(part);
            }
            proptest::prop_assert_eq!(c.finish(), crc32_bytewise(&data));
        }

        /// Two halves' CRCs combine to the CRC of the whole, wherever the
        /// split falls: empty halves, and halves on both sides of the
        /// 64-byte threshold where `update` switches kernels.
        #[test]
        fn prop_combine_equals_the_whole(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            split in proptest::prelude::any::<usize>(),
        ) {
            let split = split % (data.len() + 1);
            let (a, b) = data.split_at(split);
            let whole = crc32_bytewise(&data);
            proptest::prop_assert_eq!(combine(crc32(a), crc32(b), b.len()), whole);
            let mut c = Crc32::new();
            c.update(a);
            c.append(crc32(b), b.len() as u64);
            proptest::prop_assert_eq!(c.finish(), whole);
        }

        /// The block engine gives the one-pass CRC of a span, and every
        /// block's CRC, whatever the span's length — empty, under one
        /// block, whole blocks, a partial last block, long enough for
        /// helpers — whichever blocks the caller vouches for, and whether
        /// a helper starts or not (it does on a helper-sized span with
        /// most blocks stale, on more than one core).
        #[test]
        fn prop_the_block_engine_gives_the_one_pass_crc(
            shape in 0usize..5,
            extra in proptest::prelude::any::<usize>(),
            mask in 0u8..3,
            bits in proptest::prelude::any::<u64>(),
        ) {
            let data = engine_data();
            let len = match shape {
                0 => 0,
                1 => 1 + extra % (CRC_COPY_BLOCK - 1),
                2 => CRC_COPY_BLOCK * (1 + extra % 4),
                3 => CRC_COPY_BLOCK * (extra % 4) + 1 + extra % (CRC_COPY_BLOCK - 1),
                _ => 2 * SPLIT_PART + extra % (data.len() - 2 * SPLIT_PART + 1),
            };
            let span = &data[..len];
            let want: Vec<u32> = span.chunks(CRC_COPY_BLOCK).map(crc32).collect();
            // All stale, all vouched for, or a random mix.
            let known: Vec<Option<u32>> = want
                .iter()
                .enumerate()
                .map(|(i, &crc)| match mask {
                    0 => None,
                    1 => Some(crc),
                    _ => (bits >> (i % 64) & 1 == 1).then_some(crc),
                })
                .collect();
            let block = |i: usize| &span[i * CRC_COPY_BLOCK..len.min((i + 1) * CRC_COPY_BLOCK)];
            for known in [None, Some(&known[..])] {
                let mut c = Crc32::new();
                c.update(b"head");
                let job = |i: usize, _: &mut Vec<u8>| Ok::<_, ()>(crc32(block(i)));
                let (worked, blocks) = crc_blocks(&mut c, len, known, job, || Ok(7)).unwrap();
                let mut whole = b"head".to_vec();
                whole.extend_from_slice(span);
                proptest::prop_assert_eq!(c.finish(), crc32(&whole), "len {}", len);
                proptest::prop_assert_eq!((worked, &blocks), (7, &want));
            }
        }
    }

    /// The CRC of `A ‖ B` from `crc32(A)`, `crc32(B)` and the length of
    /// `B`, through [`Crc32::append`].
    fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
        let mut c = Crc32 { state: !crc_a };
        c.append(crc_b, len_b as u64);
        c.finish()
    }

    /// Bytes for the block engine's property: enough for a span that
    /// starts a helper, with a partial last block.
    fn engine_data() -> &'static [u8] {
        static DATA: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        DATA.get_or_init(|| {
            let len = 2 * SPLIT_PART + 3 * CRC_COPY_BLOCK + 4321;
            (0..len as u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect()
        })
    }

    #[test]
    fn combine_holds_at_the_edges() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 97 + 3) as u8).collect();
        for split in [0, 1, 15, 16, 63, 64, 65, 127, 128, 129, 299, 300] {
            let (a, b) = data.split_at(split);
            let combined = combine(crc32(a), crc32(b), b.len());
            assert_eq!(combined, crc32_bytewise(&data), "split {split}");
        }
        // Several parts, joined in order, as the block engine joins them.
        let mut c = Crc32::new();
        for part in data.chunks(70) {
            c.append(crc32(part), part.len() as u64);
        }
        assert_eq!(c.finish(), crc32(&data));
        // The same parts through one precomputed shift, the last one short.
        const SHIFT: u32 = crc32_shift(70);
        let mut c = Crc32::new();
        for part in data.chunks(70) {
            match part.len() {
                70 => c.append_shifted(crc32(part), SHIFT),
                len => c.append(crc32(part), len as u64),
            }
        }
        assert_eq!(c.finish(), crc32(&data));
        // Whole blocks and a short last one through the engine's join.
        let blocks: Vec<u8> = (0..3 * CRC_COPY_BLOCK as u32 + 77)
            .map(|i| (i * 31 + 5) as u8)
            .collect();
        let mut c = Crc32::new();
        c.update(b"head");
        for block in blocks.chunks(CRC_COPY_BLOCK) {
            join_block(&mut c, crc32(block), block.len());
        }
        let mut whole = b"head".to_vec();
        whole.extend_from_slice(&blocks);
        assert_eq!(c.finish(), crc32(&whole));
        // A long run of zeros: the length alone moves the register.
        let zeros = vec![0u8; 1 << 20];
        let mut c = Crc32::new();
        c.update(b"head");
        c.append(crc32(&zeros), zeros.len() as u64);
        let mut whole = b"head".to_vec();
        whole.extend_from_slice(&zeros);
        assert_eq!(c.finish(), crc32(&whole));
    }
}
