//! Property-based tests: MinHash estimation quality, LSH Ensemble recall
//! for guaranteed-identical signatures, and lazy signing answering
//! exactly like eager signing.

use std::collections::HashSet;

use dialite_minhash::{LshEnsemble, LshEnsembleBuilder, MinHasher, Signature};
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
        let hasher = MinHasher::new(64, 3);
        let mut b = LshEnsembleBuilder::new(64);
        let v: Vec<&str> = items.iter().map(String::as_str).collect();
        b.insert("self", items.len());
        // noise
        b.insert("noise", 3);
        let index = b.build(parts);
        let sign = |key: &&str| match *key {
            "self" => Some(hasher.signature(v.iter().copied())),
            _ => Some(hasher.signature(["zzzz1", "zzzz2", "zzzz3"])),
        };
        let sig = hasher.signature(v.iter().copied());
        let hits = index.query(&sig, items.len(), 0.9, &sign);
        prop_assert!(hits.contains(&"self"), "hits: {hits:?}");
    }

    #[test]
    fn ensemble_candidates_subset_of_indexed_keys(
        domains in prop::collection::vec(
            prop::collection::hash_set("[a-z]{1,6}", 1..20), 1..10),
    ) {
        let hasher = MinHasher::new(64, 9);
        let mut b = LshEnsembleBuilder::new(64);
        let mut keys = HashSet::new();
        for (i, d) in domains.iter().enumerate() {
            let key = format!("d{i}");
            keys.insert(key.clone());
            b.insert_signed(key, d.len(), hasher.signature(d.iter().map(String::as_str)));
        }
        let index = b.build(3);
        let q: Vec<&str> = domains[0].iter().map(String::as_str).collect();
        let sig = hasher.signature(q.iter().copied());
        let presigned = |_: &String| -> Option<Signature> { panic!("every domain is signed") };
        for hit in index.query(&sig, q.len(), 0.5, &presigned) {
            prop_assert!(keys.contains(&hit));
        }
    }
}

/// One change of the indexed domain set: insert (or replace) a key with a
/// domain, or remove a key.
#[derive(Debug, Clone)]
enum Step {
    Insert(u8, HashSet<u8>),
    Remove(u8),
}

/// Steps, each with whether to compare answers after it.
fn steps() -> impl Strategy<Value = Vec<(Step, bool)>> {
    let domain = prop::collection::hash_set(0u8..32, 1..20);
    let step = prop_oneof![
        3 => (0u8..24, domain).prop_map(|(key, d)| Step::Insert(key, d)),
        2 => (0u8..24).prop_map(Step::Remove),
    ];
    prop::collection::vec((step, any::<bool>()), 0..32)
}

fn tokens(domain: &HashSet<u8>) -> Vec<String> {
    domain.iter().map(|t| format!("v{t}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An eager ensemble — every cell filled through `insert_signed`, and
    /// every partition signed right after the build — and a lazy one that
    /// signs a partition's members only on its first probe, both built
    /// afresh over the domain set a random insert / remove sequence has
    /// reached, lay out the same partitions and return the same `query`
    /// and `query_partition` candidates; the eager one is never asked for
    /// a signature by the compared probes, and the lazy one asks for each
    /// domain at most once.
    #[test]
    fn lazy_signing_answers_like_eager_signing(
        initial in prop::collection::vec(prop::collection::hash_set(0u8..32, 1..20), 0..16),
        steps in steps(),
        queries in prop::collection::vec(prop::collection::hash_set(0u8..32, 1..20), 1..3),
        parts in 1usize..6,
    ) {
        let num_perm = 64;
        let hasher = MinHasher::new(num_perm, 21);
        let sig_of = |d: &HashSet<u8>| hasher.signature(tokens(d).iter().map(String::as_str));
        let mut live: std::collections::HashMap<u8, HashSet<u8>> =
            initial.into_iter().enumerate().map(|(key, d)| (key as u8, d)).collect();
        let presigned = |_: &u8| -> Option<Signature> { panic!("the eager ensemble is signed") };
        let qsigs: Vec<(Signature, usize)> = queries.iter().map(|q| (sig_of(q), q.len())).collect();
        // The initial set is compared, then the sets the draws and the end
        // of the sequence pick.
        let last = steps.len();
        let steps = std::iter::once(None).chain(steps.into_iter().map(Some));
        for (at, step) in steps.enumerate() {
            if let Some((step, check)) = step {
                match step {
                    Step::Insert(key, d) => {
                        live.insert(key, d);
                    }
                    Step::Remove(key) => {
                        live.remove(&key);
                    }
                }
                if !check && at != last {
                    continue;
                }
            }
            let (mut lazy, mut eager) = (LshEnsembleBuilder::new(num_perm), LshEnsembleBuilder::new(num_perm));
            for (&key, d) in &live {
                lazy.insert(key, d.len());
                eager.insert_signed(key, d.len(), sig_of(d));
            }
            let (lazy, eager): (LshEnsemble<u8>, LshEnsemble<u8>) =
                (lazy.build(parts), eager.build(parts));
            prop_assert_eq!(lazy.partition_bounds(), eager.partition_bounds());
            for p in 0..eager.partition_count() {
                eager.query_partition(p, &qsigs[0].0, 1, 0.0, &presigned);
            }
            let asked = std::sync::Mutex::new(Vec::new());
            let sign = |key: &u8| {
                asked.lock().unwrap().push(*key);
                live.get(key).map(&sig_of)
            };
            for (qsig, q) in &qsigs {
                for t in [0.1, 0.5, 0.9] {
                    prop_assert_eq!(lazy.query(qsig, *q, t, &sign), eager.query(qsig, *q, t, &presigned));
                    for p in 0..lazy.partition_count() {
                        prop_assert_eq!(
                            lazy.query_partition(p, qsig, *q, t, &sign),
                            eager.query_partition(p, qsig, *q, t, &presigned)
                        );
                    }
                }
            }
            // Every domain was signed by the first probe-all, once.
            let mut asked = asked.into_inner().unwrap();
            asked.sort_unstable();
            let mut keys: Vec<u8> = live.keys().copied().collect();
            keys.sort_unstable();
            prop_assert_eq!(asked, keys);
        }
    }
}
