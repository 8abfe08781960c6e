//! Streaming 64-bit hashing: byte-exact FNV-1a for trace fingerprints, and
//! a word-folding feed for model-checker state fingerprints.
//!
//! The determinism tests digest a whole simulation trace into one `u64`:
//! two runs of the same seed must produce the identical digest, different
//! seeds must not. [`Fnv1a::update`] is plain FNV-1a — tiny, stable across
//! platforms, and good at mixing short trace lines; every recorded trace
//! golden hashes rendered lines through it, so it must never change.
//!
//! State fingerprints (`state_digest` methods, `Simulator::state_hash`)
//! feed structured fields instead, and there a byte-at-a-time hash is the
//! bottleneck. [`Fnv1a::update_u64`] is therefore *not* FNV: it folds one
//! whole word per step with a wyhash-style folded multiply (128-bit product,
//! high half XOR low half), which avalanches every input bit across the
//! state. [`Fnv1a::update_words`] feeds byte strings through the same fold
//! eight bytes at a time and then their length, and [`SetDigest`] combines
//! unordered collections without sorting. None of these is cryptographic.

/// A streaming 64-bit hasher: FNV-1a over bytes ([`Fnv1a::update`]),
/// plus the word fold for state fingerprints ([`Fnv1a::update_u64`],
/// [`Fnv1a::update_words`]). Both feeds act on the same 64-bit state.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

/// Folded multiply: the 128-bit product's halves XORed together.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let r = (a as u128).wrapping_mul(b as u128);
    (r as u64) ^ ((r >> 64) as u64)
}

/// wyhash's secrets: odd, balanced constants that keep both fold operands
/// away from zero for the small values state digests mostly carry.
const FOLD_K0: u64 = 0xa076_1d64_78bd_642f;
const FOLD_K1: u64 = 0xe703_7ed1_a0b4_28db;

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds `bytes` into the digest, byte-exact FNV-1a.
    pub fn update(&mut self, bytes: impl AsRef<[u8]>) -> &mut Self {
        for &b in bytes.as_ref() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds one word into the digest: the fingerprint feed, one folded
    /// multiply per word. This is not FNV — a trace digest that must match
    /// a recorded golden feeds bytes through [`Fnv1a::update`] instead.
    #[inline]
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.0 = fold(self.0 ^ FOLD_K0, v ^ FOLD_K1);
        self
    }

    /// Folds a byte string eight bytes per step (little-endian, the last
    /// word zero-padded), then its length, so consecutive strings cannot
    /// run into each other: `("ab", "c")` and `("a", "bc")` differ.
    pub fn update_words(&mut self, bytes: &[u8]) -> &mut Self {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.update_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.update_u64(u64::from_le_bytes(w));
        }
        self.update_u64(bytes.len() as u64)
    }

    /// Returns the current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Order-free digest of an unordered collection (socket tables, hash-map
/// entries, instance sets): each element is hashed on its own into a
/// sub-digest, and the sub-digests are finalized and combined by wrapping
/// sum, so equal multisets digest equal in any visit order — no collect,
/// no sort. The element count is folded in beside the sum.
///
/// ```
/// use comma_rt::digest::{Fnv1a, SetDigest};
///
/// let element = |v: u64| *Fnv1a::new().update_u64(v);
/// let mut a = SetDigest::default();
/// a.add(&element(1));
/// a.add(&element(2));
/// let mut b = SetDigest::default();
/// b.add(&element(2));
/// b.add(&element(1));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetDigest {
    sum: u64,
    len: u64,
}

impl SetDigest {
    /// Adds one element's sub-digest.
    #[inline]
    pub fn add(&mut self, element: &Fnv1a) {
        // Finalize with one more fold, so the sum never sees raw FNV
        // state (whose low bits mix poorly) from a sub-digest that ended
        // on a byte feed.
        self.sum = self
            .sum
            .wrapping_add(fold(element.finish() ^ FOLD_K1, FOLD_K0));
        self.len += 1;
    }

    /// Folds the collection (count, then sum) into `h`.
    pub fn fold_into(&self, h: &mut Fnv1a) {
        h.update_u64(self.len).update_u64(self.sum);
    }
}

/// One-shot digest of a byte slice.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`Fnv1a`] behind the standard [`std::hash::Hasher`] interface, so FNV
/// can key `std` hash maps without external crates.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvHasher(Fnv1a);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }
}

/// Build-hasher for [`FnvHasher`]: stateless, so two maps (or two runs)
/// hash identically — unlike `RandomState`, there is no per-process seed,
/// which keeps anything iteration-order-dependent deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by deterministic FNV-1a (small keys, O(1) lookup;
/// the proxy flow table's backing store).
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed by deterministic FNV-1a.
pub type FnvHashSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn sensitive_to_order() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn update_words_is_length_delimited() {
        let mut a = Fnv1a::new();
        a.update_words(b"ab").update_words(b"c");
        let mut b = Fnv1a::new();
        b.update_words(b"a").update_words(b"bc");
        assert_ne!(a.finish(), b.finish());
        // Zero padding is not ambiguous with explicit zero bytes.
        let mut c = Fnv1a::new();
        c.update_words(b"ab\0");
        let mut d = Fnv1a::new();
        d.update_words(b"ab");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn update_u64_sees_every_bit() {
        let mut h = Fnv1a::new();
        h.update_u64(7);
        let fold = |v: u64| {
            let mut g = h;
            g.update_u64(v).finish()
        };
        for base in [0u64, 1, 0xdead_beef, u64::MAX] {
            for bit in 0..64 {
                // Full avalanche: one flipped input bit moves many output
                // bits, not one.
                let moved = (fold(base) ^ fold(base ^ (1 << bit))).count_ones();
                assert!(moved >= 8, "bit {bit} of {base:#x} moved {moved} bits");
            }
        }
    }

    #[test]
    fn update_u64_is_order_sensitive() {
        let mut a = Fnv1a::new();
        a.update_u64(1).update_u64(2);
        let mut b = Fnv1a::new();
        b.update_u64(2).update_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn set_digest_is_order_free_but_counts_multiplicity() {
        let e = |v: u64| *Fnv1a::new().update_u64(v);
        let fold = |items: &[u64]| {
            let mut set = SetDigest::default();
            for &v in items {
                set.add(&e(v));
            }
            let mut h = Fnv1a::new();
            set.fold_into(&mut h);
            h.finish()
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[3, 1, 2]));
        assert_ne!(fold(&[1, 2]), fold(&[1, 2, 2]));
        assert_ne!(fold(&[1, 1]), fold(&[2, 2]));
        assert_ne!(fold(&[]), fold(&[0]));
    }

    #[test]
    fn std_hasher_matches_streaming() {
        use std::hash::Hasher;
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn fnv_map_is_deterministic() {
        let mut a: FnvHashMap<u64, u64> = FnvHashMap::default();
        let mut b: FnvHashMap<u64, u64> = FnvHashMap::default();
        for i in 0..100u64 {
            a.insert(i, i * 2);
            b.insert(i, i * 2);
        }
        // Stateless hashing: identical insertion sequences iterate
        // identically (RandomState would not).
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert_eq!(a.get(&42), Some(&84));
    }
}
