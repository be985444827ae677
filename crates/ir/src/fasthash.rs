//! A small, fast, non-cryptographic hasher for the context's internal
//! tables.
//!
//! Interning (symbols, types, attributes) and registry lookups hash on
//! every operation parsed or decoded, so the default SipHash — designed to
//! resist hash-flooding from untrusted keys — costs real throughput here.
//! These tables are in-process and bounded by the IR being built, so the
//! classic multiply-rotate-xor scheme (as used by rustc's `FxHasher`) is
//! the right trade: a few cycles per word, no DoS resistance.
//!
//! Not suitable for tables keyed directly by untrusted external input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` using [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate-xor hasher; see the module docs for the contract.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier with well-distributed bits (2^64 / golden ratio).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Fold the tail length in so prefixes don't collide trivially.
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FastHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_distinguishing() {
        assert_eq!(hash_of(b"cmath"), hash_of(b"cmath"));
        assert_ne!(hash_of(b"cmath"), hash_of(b"cmatj"));
        // Tail-length folding: a prefix must not hash like its extension.
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(&[0u8; 3]), hash_of(&[0u8; 4]));
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut map: FastMap<String, u32> = FastMap::default();
        map.insert("a".into(), 1);
        map.insert("b".into(), 2);
        assert_eq!(map.get("a"), Some(&1));
        let build: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        assert_eq!(build.hash_one("x"), build.hash_one("x"));
    }
}
