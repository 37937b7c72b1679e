//! Property-based tests: MinHash estimation quality and LSH Ensemble
//! recall for guaranteed-identical signatures.

use std::collections::HashSet;

use dialite_minhash::{LshEnsembleBuilder, MinHasher};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With 256 permutations the standard error is ~1/√256 ≈ 0.0625; allow
    /// a generous 5σ band so the test is solid while still meaningful.
    #[test]
    fn estimate_within_5_sigma(
        a in prop::collection::hash_set(0u32..500, 10..80),
        b in prop::collection::hash_set(0u32..500, 10..80),
    ) {
        let hasher = MinHasher::new(256, 11);
        let ta: Vec<String> = a.iter().map(|i| format!("t{i}")).collect();
        let tb: Vec<String> = b.iter().map(|i| format!("t{i}")).collect();
        let sa = hasher.signature(ta.iter().map(String::as_str));
        let sb = hasher.signature(tb.iter().map(String::as_str));
        let inter = a.intersection(&b).count();
        let union = a.len() + b.len() - inter;
        let truth = inter as f64 / union as f64;
        let est = sa.estimate_jaccard(&sb);
        prop_assert!((est - truth).abs() < 5.0 * 0.0625, "est {est} vs truth {truth}");
    }

    #[test]
    fn signature_is_permutation_invariant(items in prop::collection::vec("[a-z]{1,8}", 1..40)) {
        let hasher = MinHasher::new(64, 5);
        let fwd = hasher.signature(items.iter().map(String::as_str));
        let mut rev = items.clone();
        rev.reverse();
        let bwd = hasher.signature(rev.iter().map(String::as_str));
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn ensemble_always_finds_identical_domain(
        items in prop::collection::hash_set("[a-z0-9]{1,8}", 2..40),
        parts in 1usize..6,
    ) {
        let mut b = LshEnsembleBuilder::new(64, 3);
        let v: Vec<&str> = items.iter().map(String::as_str).collect();
        b.insert_tokens("self", v.iter().copied());
        // noise
        b.insert_tokens("noise", ["zzzz1", "zzzz2", "zzzz3"]);
        let hasher = b.hasher().clone();
        let index = b.build(parts);
        let sig = hasher.signature(v.iter().copied());
        let hits = index.query(&sig, items.len(), 0.9);
        prop_assert!(hits.contains(&"self"), "hits: {hits:?}");
    }

    #[test]
    fn ensemble_candidates_subset_of_indexed_keys(
        domains in prop::collection::vec(
            prop::collection::hash_set("[a-z]{1,6}", 1..20), 1..10),
    ) {
        let mut b = LshEnsembleBuilder::new(64, 9);
        let mut keys = HashSet::new();
        for (i, d) in domains.iter().enumerate() {
            let key = format!("d{i}");
            keys.insert(key.clone());
            b.insert_tokens(key, d.iter().map(String::as_str));
        }
        let hasher = b.hasher().clone();
        let index = b.build(3);
        let q: Vec<&str> = domains[0].iter().map(String::as_str).collect();
        let sig = hasher.signature(q.iter().copied());
        for hit in index.query(&sig, q.len(), 0.5) {
            prop_assert!(keys.contains(&hit));
        }
    }
}
