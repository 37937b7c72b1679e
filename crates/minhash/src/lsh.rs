//! Classic banded LSH over MinHash signatures, for a fixed Jaccard
//! threshold.

use std::collections::{HashMap, HashSet};

use crate::ensemble::band_hash;
use crate::hasher::Signature;
use crate::params::optimal_params;

/// A banded LSH index mapping string keys to MinHash signatures, tuned for
/// one Jaccard threshold at construction time.
#[derive(Debug, Clone)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    num_perm: usize,
    /// One hash table per band: band hash → internal key ids.
    tables: Vec<HashMap<u64, Vec<u32>>>,
    keys: Vec<String>,
}

impl LshIndex {
    /// Build an empty index for signatures of length `num_perm`, tuned for
    /// `threshold` (the `(b, r)` minimizing FP+FN area is chosen).
    pub fn new(threshold: f64, num_perm: usize) -> LshIndex {
        let (bands, rows) = optimal_params(threshold, num_perm);
        LshIndex {
            bands,
            rows,
            num_perm,
            tables: vec![HashMap::new(); bands],
            keys: Vec::new(),
        }
    }

    /// The chosen banding parameters `(b, r)`.
    pub fn params(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Insert a key with its signature.
    ///
    /// # Panics
    /// If the signature length differs from the index's `num_perm`.
    pub fn insert(&mut self, key: &str, sig: &Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let id = self.keys.len() as u32;
        self.keys.push(key.to_string());
        for band in 0..self.bands {
            let lo = band * self.rows;
            let h = band_hash(&sig.0[lo..lo + self.rows]);
            self.tables[band].entry(h).or_default().push(id);
        }
    }

    /// All keys colliding with the query signature in at least one band.
    pub fn query(&self, sig: &Signature) -> Vec<String> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits: HashSet<u32> = HashSet::new();
        for band in 0..self.bands {
            let lo = band * self.rows;
            let h = band_hash(&sig.0[lo..lo + self.rows]);
            if let Some(ids) = self.tables[band].get(&h) {
                hits.extend(ids.iter().copied());
            }
        }
        let mut out: Vec<String> = hits
            .into_iter()
            .map(|id| self.keys[id as usize].clone())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::MinHasher;

    fn tokens(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn finds_near_duplicates_and_skips_disjoint() {
        let hasher = MinHasher::new(128, 3);
        let mut index = LshIndex::new(0.6, 128);

        let base = tokens("v", 0..100);
        let near = tokens("v", 0..95); // jaccard 0.95
        let far = tokens("w", 0..100); // jaccard 0

        index.insert("near", &hasher.signature(near.iter().map(String::as_str)));
        index.insert("far", &hasher.signature(far.iter().map(String::as_str)));

        let hits = index.query(&hasher.signature(base.iter().map(String::as_str)));
        assert!(hits.contains(&"near".to_string()), "hits: {hits:?}");
        assert!(!hits.contains(&"far".to_string()), "hits: {hits:?}");
    }

    #[test]
    fn identical_signature_always_found() {
        let hasher = MinHasher::new(64, 5);
        let mut index = LshIndex::new(0.8, 64);
        let set = tokens("x", 0..30);
        let sig = hasher.signature(set.iter().map(String::as_str));
        index.insert("self", &sig);
        assert_eq!(index.query(&sig), vec!["self".to_string()]);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let hasher = MinHasher::new(64, 5);
        let index = LshIndex::new(0.5, 64);
        let sig = hasher.signature(["a"]);
        assert!(index.query(&sig).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn len_counts_insertions() {
        let hasher = MinHasher::new(32, 5);
        let mut index = LshIndex::new(0.5, 32);
        for i in 0..5 {
            let set = tokens("k", i * 10..i * 10 + 10);
            index.insert(
                &format!("key{i}"),
                &hasher.signature(set.iter().map(String::as_str)),
            );
        }
        assert_eq!(index.len(), 5);
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn wrong_signature_length_panics() {
        let mut index = LshIndex::new(0.5, 64);
        index.insert("k", &Signature(vec![0; 32]));
    }

    #[test]
    fn duplicate_keys_both_returned() {
        // The index is multiset-like; deduplication is the caller's concern.
        let hasher = MinHasher::new(32, 5);
        let mut index = LshIndex::new(0.5, 32);
        let sig = hasher.signature(["a", "b", "c"]);
        index.insert("k", &sig);
        index.insert("k", &sig);
        let hits = index.query(&sig);
        assert_eq!(hits, vec!["k".to_string(), "k".to_string()]);
    }
}
