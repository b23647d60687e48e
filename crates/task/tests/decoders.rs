//! Decoder hardening for the `PPARTSK1` task frontier, the slice of the
//! shared format harness (`crates/ckpt/tests/decoders.rs`) that lives with
//! the format. The frontier has one entry, [`TaskFrontier::load_bytes`],
//! and no CRC of its own (it travels inside records that carry theirs).
//!
//! The rule: **an `Err`, never a panic, never an abort** — in debug, where
//! arithmetic overflow panics, and in release, where it wraps (CI runs this
//! file under both). A flipped bit in a number (epoch, cursor, partial, a
//! completion bit of a real task) parses to what the flipped bytes say; a
//! flipped structural byte is refused.

use ppar_core::error::PparError;
use ppar_core::state::StateCell;
use ppar_task::TaskFrontier;

/// Tasks: one full bitmap word and a padded one.
const N: usize = 70;
/// magic 8, version 4, epoch 8, then the task count.
const N_AT: usize = 8 + 4 + 8;
const BITMAP_AT: usize = N_AT + 4;

/// A frontier mid-graph, its numbers seeded.
fn frontier(seed: u64) -> TaskFrontier {
    let f = TaskFrontier::new(N);
    f.begin_epoch(seed);
    for t in (0..N).filter(|&t| (t as u64 ^ seed).is_multiple_of(3)) {
        f.set_cursor(t, seed.wrapping_mul(t as u64 + 1));
        f.set_partial(t, (t as f64 + seed as f64).sqrt());
        f.mark_done(t);
    }
    f
}

fn load(bytes: &[u8]) -> Result<TaskFrontier, PparError> {
    let f = TaskFrontier::new(N);
    f.load_bytes(bytes).map(|()| f)
}

fn is_corrupt<T>(outcome: Result<T, PparError>) -> bool {
    matches!(outcome, Err(PparError::CorruptCheckpoint(_)))
}

/// Every truncation, and every extension, is refused: the task count fixes
/// the length.
#[test]
fn every_truncation_and_extension_is_refused() {
    let bytes = frontier(7).save_bytes();
    assert_eq!(load(&bytes).unwrap().save_bytes(), bytes);
    for cut in 0..bytes.len() {
        assert!(is_corrupt(load(&bytes[..cut])), "cut {cut}");
    }
    for extra in [1, 8, bytes.len()] {
        let mut long = bytes.clone();
        long.resize(bytes.len() + extra, 0);
        assert!(is_corrupt(load(&long)), "{extra} extra bytes");
    }
}

/// A task count the graph does not have — absurd, off by one, zero — is
/// refused, and so is a frontier of another graph's size.
#[test]
fn absurd_task_counts_are_refused() {
    let bytes = frontier(7).save_bytes();
    for count in [u32::MAX, u32::MAX / 2, N as u32 + 1, N as u32 - 1, 0] {
        let mut bad = bytes.clone();
        bad[N_AT..N_AT + 4].copy_from_slice(&count.to_le_bytes());
        assert!(is_corrupt(load(&bad)), "{count} tasks");
    }
    for n in [0, 1, N - 1, N + 1, 64] {
        assert!(
            is_corrupt(TaskFrontier::new(n).load_bytes(&bytes)),
            "n = {n}"
        );
    }
}

/// Every single-bit flip is refused or loaded faithfully: the frontier it
/// loads re-encodes to exactly the flipped bytes. Magic, version, task
/// count and the bitmap's pad bits (tasks 70..127) are structure, so a flip
/// there is refused.
#[test]
fn every_bit_flip_is_refused_or_faithful() {
    let pad_word = BITMAP_AT + 8;
    for seed in [0x5eed, 20110913] {
        let bytes = frontier(seed).save_bytes();
        for bit in 0..bytes.len() * 8 {
            let (at, shift) = (bit / 8, bit % 8);
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << shift;
            let pad_bit =
                (pad_word..pad_word + 8).contains(&at) && (at - pad_word) * 8 + shift >= N - 64;
            let structural = at < 12 || (N_AT..BITMAP_AT).contains(&at) || pad_bit;
            match load(&flipped) {
                Err(e) => assert!(
                    structural,
                    "seed {seed}: flip of bit {bit} in a number refused: {e}"
                ),
                Ok(f) => {
                    assert!(!structural, "seed {seed}: flip of bit {bit} accepted");
                    assert_eq!(f.save_bytes(), flipped, "seed {seed}: flip of bit {bit}");
                }
            }
        }
    }
}
