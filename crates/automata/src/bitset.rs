//! A fixed-capacity state set, and the hasher for maps keyed by one.
//!
//! Automaton instances carry their current NFA state set in every
//! libtesla instance (§4.4.1), so the representation must be `Copy`,
//! allocation-free and cheap to union — a fixed array of words.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Number of 64-bit words in a [`StateSet`].
const WORDS: usize = 4;

/// Maximum representable state index + 1.
pub const MAX_STATES: usize = WORDS * 64;

/// A set of NFA states, capacity [`MAX_STATES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSet {
    bits: [u64; WORDS],
}

/// One `write_u64` per word: the derived impl would hash the array as
/// a length-prefixed byte slice, which [`FoldHasher`] must re-chunk.
impl Hash for StateSet {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.bits {
            state.write_u64(w);
        }
    }
}

impl StateSet {
    /// The empty set.
    pub const EMPTY: StateSet = StateSet { bits: [0; WORDS] };

    /// A singleton set.
    ///
    /// # Panics
    ///
    /// Panics if `state >= MAX_STATES`; the automaton compiler enforces
    /// the cap before any set is built.
    #[inline]
    pub fn singleton(state: u32) -> StateSet {
        let mut s = StateSet::EMPTY;
        s.insert(state);
        s
    }

    /// Insert a state.
    ///
    /// # Panics
    ///
    /// Panics if `state >= MAX_STATES`.
    #[inline]
    pub fn insert(&mut self, state: u32) {
        let i = state as usize;
        assert!(
            i < MAX_STATES,
            "state {i} exceeds StateSet capacity {MAX_STATES}"
        );
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Remove a state.
    #[inline]
    pub fn remove(&mut self, state: u32) {
        let i = state as usize;
        if i < MAX_STATES {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, state: u32) -> bool {
        let i = state as usize;
        i < MAX_STATES && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Number of states in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &StateSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
    }

    /// Does the intersection with `other` contain anything?
    #[inline]
    pub fn intersects(&self, other: &StateSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterate over member states in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            let base = (wi * 64) as u32;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(base + b)
                }
            })
        })
    }
}

/// A multiply-fold hasher for [`StateSet`] keys and the small integer
/// tuples of the subset constructions. The std default hasher is
/// SipHash, whose keyed DoS resistance is irrelevant for trusted
/// in-process keys and whose cost dominates a lookup of a 32-byte
/// `StateSet`; folding each word through a rotate-xor-multiply is
/// about ten times cheaper and mixes well for bitset-shaped data.
#[derive(Default)]
pub struct FoldHasher(u64);

/// `2^64 / φ` — the usual Fibonacci-hashing multiplier.
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).rotate_left(25).wrapping_mul(FOLD_K);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds a [`FoldHasher`] per lookup: the hasher state of the maps
/// keyed by state sets.
pub(crate) type FoldBuild = BuildHasherDefault<FoldHasher>;

impl FromIterator<u32> for StateSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> StateSet {
        let mut s = StateSet::EMPTY;
        for st in iter {
            s.insert(st);
        }
        s
    }
}

impl std::fmt::Display for StateSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_prop::{check, prop_assert_eq};

    const SEED: u64 = 0xb175;

    #[test]
    fn basic_ops() {
        let mut s = StateSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64) && s.contains(255));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 255]);
    }

    #[test]
    fn union_and_intersect() {
        let a: StateSet = [1u32, 5, 100].into_iter().collect();
        let b: StateSet = [5u32, 200].into_iter().collect();
        assert!(a.intersects(&b));
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 100, 200]);
        let c: StateSet = [2u32].into_iter().collect();
        assert!(!a.intersects(&c));
    }

    #[test]
    #[should_panic(expected = "exceeds StateSet capacity")]
    fn insert_beyond_capacity_panics() {
        let mut s = StateSet::EMPTY;
        s.insert(MAX_STATES as u32);
    }

    #[test]
    fn display_lists_members() {
        let s: StateSet = [1u32, 3].into_iter().collect();
        assert_eq!(s.to_string(), "{1,3}");
    }

    #[test]
    fn iter_roundtrips() {
        check(
            256,
            SEED,
            |g| g.vec(0..40, |g| g.range(0u32..256)),
            |mut states| {
                let set: StateSet = states.iter().copied().collect();
                states.sort_unstable();
                states.dedup();
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), states.clone());
                prop_assert_eq!(set.len(), states.len());
                Ok(())
            },
        );
    }

    #[test]
    fn union_is_commutative() {
        check(
            256,
            SEED,
            |g| {
                let a = g.vec(0..30, |g| g.range(0u32..256));
                (a, g.vec(0..30, |g| g.range(0u32..256)))
            },
            |(a, b)| {
                let sa: StateSet = a.iter().copied().collect();
                let sb: StateSet = b.iter().copied().collect();
                let mut ab = sa;
                ab.union_with(&sb);
                let mut ba = sb;
                ba.union_with(&sa);
                prop_assert_eq!(ab, ba);
                Ok(())
            },
        );
    }
}
