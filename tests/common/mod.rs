//! Helpers shared by the integration tests: the FNV-1a 64 hash that every
//! pinned digest in `kernel_refactor.rs`, `service.rs` and
//! `fleet_dispatch.rs` is folded with.

// Each test crate compiles its own copy and uses only part of it.
#![allow(dead_code)]

/// FNV-1a 64 offset basis: the state of an empty digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 state `h`.
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds the little-endian bytes of `word` into `h`.
pub fn fnv1a_word(h: u64, word: u64) -> u64 {
    fnv1a_bytes(h, &word.to_le_bytes())
}
