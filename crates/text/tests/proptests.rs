//! Property-based tests: metric bounds, symmetry and known identities for
//! the similarity toolkit.

use std::collections::HashSet;

use dialite_text::{
    containment, cosine_dense, jaccard, levenshtein, levenshtein_sim, NgramEmbedder,
};
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = HashSet<String>> {
    prop::collection::hash_set("[a-z]{1,6}", 0..12)
}

proptest! {
    #[test]
    fn jaccard_bounds_and_symmetry(a in arb_set(), b in arb_set()) {
        let j = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, jaccard(&b, &a));
    }

    #[test]
    fn jaccard_self_is_one(a in arb_set()) {
        prop_assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn containment_bounds(a in arb_set(), b in arb_set()) {
        let c = containment(&a, &b);
        prop_assert!((0.0..=1.0).contains(&c));
        // containment in a superset is 1
        let union: HashSet<String> = a.union(&b).cloned().collect();
        prop_assert_eq!(containment(&a, &union), 1.0);
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        let ab = levenshtein(&a, &b);
        let ba = levenshtein(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(levenshtein(&a, &a), 0);
        // triangle inequality
        prop_assert!(levenshtein(&a, &c) <= ab + levenshtein(&b, &c));
        // bounded by max length
        prop_assert!(ab <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn levenshtein_sim_bounds(a in "\\PC{0,12}", b in "\\PC{0,12}") {
        let s = levenshtein_sim(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
    }

    #[test]
    fn embedding_cosine_bounds(a in "[a-zA-Z0-9 ]{0,20}", b in "[a-zA-Z0-9 ]{0,20}") {
        let e = NgramEmbedder::default();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        let c = cosine_dense(&va, &vb);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn embedding_self_cosine_is_one(a in "[a-zA-Z]{1,20}") {
        let e = NgramEmbedder::default();
        let v = e.embed(&a);
        prop_assert!((cosine_dense(&v, &v) - 1.0).abs() < 1e-5);
    }

}
