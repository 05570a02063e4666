//! A cheap hash for maps whose keys nobody chooses adversarially: the
//! machine's interning tables, keyed by slot metadata and issue-group
//! summaries, and the translator's per-trace maps, keyed by register
//! numbers and ops. SipHash's resistance to chosen keys buys nothing
//! there, and its cost shows in host time.

use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per word, the high half folded down after each: the
/// standard library's tables index by the low bits, where a bare
/// multiply carries nothing of a key's high fields.
#[derive(Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, k: u64) {
        let h = (self.0 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`KeyHasher`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;
/// A `HashSet` under [`KeyHasher`].
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<KeyHasher>>;
