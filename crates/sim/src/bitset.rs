//! A small growable bitset used for the "already knows key k" bookkeeping
//! of the flooding primitive (dense, append-mostly workload where
//! `Vec<bool>` would waste 8x memory).

/// Growable bitset over `u64` words.
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
}

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
    fn grows_on_demand() {
        let mut b = BitSet::new();
        b.insert(500);
        assert!(b.get(500));
        assert!(!b.get(499));
    }
}
