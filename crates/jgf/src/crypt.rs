//! JGF Section 2 Crypt: IDEA encryption/decryption.
//!
//! Encrypts and decrypts a byte array with the International Data
//! Encryption Algorithm; validation requires `decrypt(encrypt(x)) == x`.
//! The work splits perfectly over independent 8-byte blocks, which is how
//! the pluggable loop is shared (and, distributed, partitioned).

use std::sync::Arc;

use ppar_core::ctx::Ctx;
use ppar_core::plan::{Plan, Plug};
use ppar_core::schedule::Schedule;
use ppar_core::shared::SharedVec;

/// Parameters of one Crypt run.
#[derive(Debug, Clone)]
pub struct CryptParams {
    /// Plaintext size in bytes (rounded up to a multiple of 8).
    pub size: usize,
    /// Key-material seed.
    pub seed: u64,
}

impl CryptParams {
    /// Default-sized run.
    pub fn new(size: usize) -> CryptParams {
        CryptParams {
            size: size.div_ceil(8) * 8,
            seed: 0xC4F7_1D3A,
        }
    }
}

/// 16-bit multiplication modulo 2^16 + 1 (0 represents 2^16).
#[inline]
fn mul16(a: u16, b: u16) -> u16 {
    let a = a as u32;
    let b = b as u32;
    if a == 0 {
        return (0x10001u32.wrapping_sub(b) & 0xFFFF) as u16;
    }
    if b == 0 {
        return (0x10001u32.wrapping_sub(a) & 0xFFFF) as u16;
    }
    let p = a * b;
    let lo = p & 0xFFFF;
    let hi = p >> 16;
    (lo.wrapping_sub(hi).wrapping_add(u32::from(lo < hi)) & 0xFFFF) as u16
}

/// Multiplicative inverse modulo 2^16 + 1 (extended Euclid, JGF `inv`).
fn inv16(x: u16) -> u16 {
    if x <= 1 {
        return x;
    }
    let modulus: i64 = 0x10001;
    let mut t1: i64 = 1;
    let mut t0: i64 = 0;
    let mut y: i64 = modulus;
    let mut x: i64 = x as i64;
    loop {
        let q = y / x;
        y %= x;
        t0 += q * t1;
        if y == 1 {
            return ((modulus - t0) & 0xFFFF) as u16;
        }
        let q = x / y;
        x %= y;
        t1 += q * t0;
        if x == 1 {
            return (t1 & 0xFFFF) as u16;
        }
    }
}

/// Generate the 52-subkey encryption schedule from a 128-bit user key.
pub fn encryption_key(user_key: &[u16; 8]) -> [u16; 52] {
    let mut z = [0u16; 52];
    z[..8].copy_from_slice(user_key);
    for i in 8..52 {
        let j = i % 8;
        let base = i - j;
        z[i] = if j < 6 {
            (z[base + j - 7] >> 9) | (z[base + j - 6] << 7)
        } else if j == 6 {
            (z[base + j - 7] >> 9) | (z[base + j - 14] << 7)
        } else {
            (z[base + j - 15] >> 9) | (z[base + j - 14] << 7)
        };
    }
    z
}

/// Derive the decryption schedule from an encryption schedule (JGF
/// `calcDecryptKey`).
pub fn decryption_key(z: &[u16; 52]) -> [u16; 52] {
    let mut dk = [0u16; 52];
    dk[51] = inv16(z[3]);
    dk[50] = z[2].wrapping_neg();
    dk[49] = z[1].wrapping_neg();
    dk[48] = inv16(z[0]);
    let mut j = 47;
    let mut i = 4;
    for _round in 0..7 {
        dk[j] = z[i + 1];
        dk[j - 1] = z[i];
        dk[j - 2] = inv16(z[i + 5]);
        dk[j - 3] = z[i + 3].wrapping_neg();
        dk[j - 4] = z[i + 4].wrapping_neg();
        dk[j - 5] = inv16(z[i + 2]);
        j -= 6;
        i += 6;
    }
    dk[5] = z[i + 1];
    dk[4] = z[i];
    dk[3] = inv16(z[i + 5]);
    dk[2] = z[i + 4].wrapping_neg();
    dk[1] = z[i + 3].wrapping_neg();
    dk[0] = inv16(z[i + 2]);
    dk
}

/// Run one 8-byte block through IDEA with schedule `key`.
#[inline]
pub fn idea_block(block: &mut [u8], key: &[u16; 52]) {
    let mut x1 = u16::from_le_bytes([block[0], block[1]]);
    let mut x2 = u16::from_le_bytes([block[2], block[3]]);
    let mut x3 = u16::from_le_bytes([block[4], block[5]]);
    let mut x4 = u16::from_le_bytes([block[6], block[7]]);
    let mut k = 0;
    for _round in 0..8 {
        x1 = mul16(x1, key[k]);
        x2 = x2.wrapping_add(key[k + 1]);
        x3 = x3.wrapping_add(key[k + 2]);
        x4 = mul16(x4, key[k + 3]);
        let t2 = x1 ^ x3;
        let t2 = mul16(t2, key[k + 4]);
        let t1 = t2.wrapping_add(x2 ^ x4);
        let t1 = mul16(t1, key[k + 5]);
        let t2 = t1.wrapping_add(t2);
        x1 ^= t1;
        x4 ^= t2;
        let tmp = x2 ^ t2;
        x2 = x3 ^ t1;
        x3 = tmp;
        k += 6;
    }
    let y1 = mul16(x1, key[k]);
    let y2 = x3.wrapping_add(key[k + 1]);
    let y3 = x2.wrapping_add(key[k + 2]);
    let y4 = mul16(x4, key[k + 3]);
    block[0..2].copy_from_slice(&y1.to_le_bytes());
    block[2..4].copy_from_slice(&y2.to_le_bytes());
    block[4..6].copy_from_slice(&y3.to_le_bytes());
    block[6..8].copy_from_slice(&y4.to_le_bytes());
}

/// Deterministic user key and plaintext from a seed.
pub fn key_and_plaintext(p: &CryptParams) -> ([u16; 8], Vec<u8>) {
    let mut state = p.seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut key = [0u16; 8];
    for k in key.iter_mut() {
        *k = next() as u16;
    }
    let text: Vec<u8> = (0..p.size).map(|_| next() as u8).collect();
    (key, text)
}

/// Sequential reference: encrypt then decrypt; returns (ciphertext checksum,
/// roundtrip-ok).
pub fn crypt_seq(p: &CryptParams) -> (u64, bool) {
    let (key, plain) = key_and_plaintext(p);
    let z = encryption_key(&key);
    let dk = decryption_key(&z);
    let mut data = plain.clone();
    for block in data.chunks_exact_mut(8) {
        idea_block(block, &z);
    }
    let checksum = data.iter().map(|&b| b as u64).sum();
    for block in data.chunks_exact_mut(8) {
        idea_block(block, &dk);
    }
    (checksum, data == plain)
}

/// The Crypt base code: announce the buffers, encrypt block-wise, decrypt
/// block-wise, validate.
pub fn crypt_pluggable(ctx: &Ctx, p: &CryptParams) -> (u64, bool) {
    let (key, plain) = key_and_plaintext(p);
    let z = encryption_key(&key);
    let dk = decryption_key(&z);
    let nblocks = p.size / 8;

    let data: Arc<SharedVec<u8>> = ctx.alloc_vec("text", p.size, 0u8);
    data.copy_in(0, &plain);

    let run_pass = |name: &str, schedule_key: &[u16; 52]| {
        let data = data.clone();
        let key = *schedule_key;
        // A parallel-method join point: forks a team when the plan declares
        // `ParallelMethod(name)`, runs inline otherwise.
        ctx.region(name, move |ctx| {
            ctx.each("blocks", 0..nblocks, |_, b| {
                let mut block = [0u8; 8];
                for (k, byte) in block.iter_mut().enumerate() {
                    *byte = data.get(b * 8 + k);
                }
                idea_block(&mut block, &key);
                data.copy_in(b * 8, &block);
            });
        });
    };

    run_pass("encrypt", &z);
    ctx.point("after_encrypt");
    let checksum = data.as_slice().iter().map(|&b| b as u64).sum();
    run_pass("decrypt", &dk);
    ctx.point("after_decrypt");
    let ok = data.as_slice() == plain.as_slice();
    (checksum, ok)
}

/// Shared-memory plan.
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "encrypt".into(),
        })
        .plug(Plug::ParallelMethod {
            method: "decrypt".into(),
        })
        .plug(Plug::For {
            loop_name: "blocks".into(),
            schedule: Schedule::Block,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;

    #[test]
    fn mul16_identities() {
        assert_eq!(mul16(1, 5), 5);
        assert_eq!(mul16(5, 1), 5);
        // 0 represents 2^16: 2^16 * x ≡ -x (mod 2^16+1)
        assert_eq!(mul16(0, 1), 0x10000u32 as u16);
    }

    #[test]
    fn inv16_inverts() {
        for x in [1u16, 2, 3, 1000, 54321, 65535] {
            assert_eq!(mul16(x, inv16(x)), 1, "x = {x}");
        }
    }

    #[test]
    fn block_roundtrip() {
        let key = [1u16, 2, 3, 4, 5, 6, 7, 8];
        let z = encryption_key(&key);
        let dk = decryption_key(&z);
        let mut block = *b"ppartest";
        let original = block;
        idea_block(&mut block, &z);
        assert_ne!(block, original, "encryption must change the block");
        idea_block(&mut block, &dk);
        assert_eq!(block, original, "decryption must invert encryption");
    }

    #[test]
    fn seq_reference_roundtrips() {
        let (_, ok) = crypt_seq(&CryptParams::new(1024));
        assert!(ok);
    }

    #[test]
    fn pluggable_matches_reference_in_all_modes() {
        let p = CryptParams::new(2048);
        let (ref_sum, ref_ok) = crypt_seq(&p);
        assert!(ref_ok);

        let (sum, ok) = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            crypt_pluggable(ctx, &p)
        });
        assert!(ok);
        assert_eq!(sum, ref_sum);

        for threads in [2, 6] {
            let (sum, ok) = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                crypt_pluggable(ctx, &p)
            });
            assert!(ok, "threads={threads}");
            assert_eq!(sum, ref_sum, "threads={threads}");
        }
    }
}
