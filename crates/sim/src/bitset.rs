//! A small growable bitset used for the "already knows key k" bookkeeping
//! of the flooding primitive (dense, append-mostly workload where
//! `Vec<bool>` would waste 8x memory).

/// Growable bitset over `u64` words. Two bitsets are equal when they hold
/// the same bits, whatever room each has.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty bitset.
    #[must_use]
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty bitset that holds bits `0..bits` without growing
    /// (clones keep that room).
    #[must_use]
    pub(crate) fn with_capacity(bits: usize) -> Self {
        BitSet { words: vec![0; bits.div_ceil(64)] }
    }

    /// Sets bit `i`, growing as needed. Returns `true` if it was unset.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Tests bit `i` (unset bits beyond the end read as false).
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        let w = i / 64;
        w < self.words.len() && (self.words[w] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + bit
                })
            })
        })
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitSet::new();
        assert!(!b.get(0));
        assert!(!b.get(1000));
        for i in [0, 63, 64, 1000] {
            assert!(b.insert(i), "bit {i} was unset");
        }
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(1000));
        assert!(!b.get(65));
        assert!(!b.insert(64), "bit 64 was already set");
        assert_eq!(b.count(), 4);
    }

    #[test]
    fn with_capacity_starts_empty_and_clones_keep_room() {
        let b = BitSet::with_capacity(130);
        assert_eq!(b.count(), 0);
        assert!(!b.get(129));
        assert_eq!(b.clone().words.len(), 3);
    }

    #[test]
    fn ones_ascend_and_equality_ignores_room() {
        let mut a = BitSet::new();
        for i in [200, 3, 64, 0, 63] {
            a.insert(i);
        }
        assert_eq!(a.ones().collect::<Vec<_>>(), [0, 3, 63, 64, 200]);
        let mut b = BitSet::with_capacity(1000);
        for i in [0, 3, 63, 64, 200] {
            b.insert(i);
        }
        assert_eq!(a, b);
        assert_eq!(BitSet::new(), BitSet::with_capacity(130));
        b.insert(999);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn grows_on_demand() {
        let mut b = BitSet::new();
        b.insert(500);
        assert!(b.get(500));
        assert!(!b.get(499));
    }
}
