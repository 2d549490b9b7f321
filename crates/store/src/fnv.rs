//! FNV-1a, 32-bit — the workspace's one checksum: column chunks and
//! their manifest bindings here, and each record of the server's budget
//! ledger.

/// Incrementally updatable FNV-1a hasher.
#[derive(Debug)]
pub struct Fnv32(u32);

impl Fnv32 {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv32(0x811c_9dc5)
    }

    /// Folds `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u32::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0193);
        }
    }

    /// The hash of everything eaten so far.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.0
    }
}

impl Default for Fnv32 {
    fn default() -> Self {
        Fnv32::new()
    }
}

/// One-shot convenience over [`Fnv32`].
#[must_use]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = Fnv32::new();
    h.eat(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv32::new();
        h.eat(b"foo");
        h.eat(b"bar");
        assert_eq!(h.finish(), fnv1a32(b"foobar"));
    }
}
