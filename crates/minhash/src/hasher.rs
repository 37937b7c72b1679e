//! MinHash signatures over string token sets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dialite_text::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime 2^61 − 1, the modulus of the universal hash family.
const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// A seeded family of `num_perm` universal hash functions producing MinHash
/// signatures. Two `MinHasher`s with the same `num_perm` and `seed` are
/// interchangeable — signatures are only comparable within one family.
#[derive(Debug, Clone)]
pub struct MinHasher {
    a: Vec<u64>,
    b: Vec<u64>,
    // Signatures computed through this family, shared across clones —
    // the observable "sketch work" that builds and recovery never do
    // (asserted by the recovery oracle and the heap-share gate).
    work: Arc<AtomicU64>,
}

/// A MinHash signature: the element-wise minimum of each hash function over
/// the input set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u64>);

impl MinHasher {
    /// Create a family of `num_perm` hash functions from a seed.
    pub fn new(num_perm: usize, seed: u64) -> MinHasher {
        assert!(num_perm > 0, "num_perm must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..num_perm)
            .map(|_| rng.gen_range(1..MERSENNE_61))
            .collect();
        let b = (0..num_perm)
            .map(|_| rng.gen_range(0..MERSENNE_61))
            .collect();
        MinHasher {
            a,
            b,
            work: Arc::new(AtomicU64::new(0)),
        }
    }

    /// How many signatures this family has computed so far, counted across
    /// all clones of the family (clones share the counter). Tests use this
    /// to assert that building or recovering an index hashes nothing: a
    /// signature is computed only by a sketch-route query.
    pub fn signatures_computed(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Compute the signature of a set of string tokens.
    ///
    /// An empty set yields the all-`u64::MAX` signature, which estimates
    /// Jaccard 1.0 against another empty set and ~0 against anything else.
    pub fn signature<'a, I: IntoIterator<Item = &'a str>>(&self, tokens: I) -> Signature {
        self.work.fetch_add(1, Ordering::Relaxed);
        let mut mins = vec![u64::MAX; self.a.len()];
        for tok in tokens {
            let x = mod_mersenne(u128::from(fnv1a64(tok.as_bytes())));
            for ((m, &a), &b) in mins.iter_mut().zip(&self.a).zip(&self.b) {
                let h = mod_mersenne(u128::from(a) * u128::from(x) + u128::from(b));
                if h < *m {
                    *m = h;
                }
            }
        }
        Signature(mins)
    }
}

/// `v mod (2^61 − 1)` for `v < 2^122` without a 128-bit division: since
/// `2^61 ≡ 1`, adding the bits above 61 to the low 61 bits keeps the
/// residue and leaves a sum `≤ 2p`, which at most two subtractions of `p`
/// reduce. Every universal hash `(a·x + b) mod p` with `a, b, x < p` stays
/// below `p²` — `x` itself reduced from a `u64` first — so signatures are
/// bit-identical to the `%` they replace.
#[inline]
fn mod_mersenne(v: u128) -> u64 {
    let mut r = (v as u64 & MERSENNE_61) + (v >> 61) as u64;
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

impl Signature {
    /// Unbiased estimate of the Jaccard similarity of the underlying sets:
    /// the fraction of agreeing signature slots.
    pub fn estimate_jaccard(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "signatures from different families are not comparable"
        );
        let agree = self
            .0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.0.len() as f64
    }

    /// Signature length.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sig_of(h: &MinHasher, items: &[&str]) -> Signature {
        h.signature(items.iter().copied())
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let h = MinHasher::new(64, 42);
        let a = sig_of(&h, &["x", "y", "z"]);
        let b = sig_of(&h, &["z", "y", "x"]);
        assert_eq!(a, b);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn signature_is_deterministic_across_instances() {
        let h1 = MinHasher::new(32, 7);
        let h2 = MinHasher::new(32, 7);
        assert_eq!(sig_of(&h1, &["a", "b"]), sig_of(&h2, &["a", "b"]));
    }

    #[test]
    fn different_seeds_give_different_families() {
        let h1 = MinHasher::new(32, 1);
        let h2 = MinHasher::new(32, 2);
        assert_ne!(sig_of(&h1, &["a", "b"]), sig_of(&h2, &["a", "b"]));
    }

    #[test]
    fn jaccard_estimate_tracks_true_jaccard() {
        let h = MinHasher::new(256, 13);
        // Two sets with known Jaccard 50/150 = 1/3.
        let a: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        let b: Vec<String> = (50..150).map(|i| format!("tok{i}")).collect();
        let sa = h.signature(a.iter().map(String::as_str));
        let sb = h.signature(b.iter().map(String::as_str));
        let est = sa.estimate_jaccard(&sb);
        let true_j = {
            let sa: HashSet<_> = a.iter().collect();
            let sb: HashSet<_> = b.iter().collect();
            sa.intersection(&sb).count() as f64 / sa.union(&sb).count() as f64
        };
        assert!(
            (est - true_j).abs() < 0.12,
            "estimate {est} too far from true {true_j}"
        );
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let h = MinHasher::new(256, 99);
        let a: Vec<String> = (0..80).map(|i| format!("a{i}")).collect();
        let b: Vec<String> = (0..80).map(|i| format!("b{i}")).collect();
        let sa = h.signature(a.iter().map(String::as_str));
        let sb = h.signature(b.iter().map(String::as_str));
        assert!(sa.estimate_jaccard(&sb) < 0.1);
    }

    #[test]
    fn empty_set_signature_is_max() {
        let h = MinHasher::new(8, 0);
        let s = h.signature([]);
        assert!(s.0.iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn work_counter_tracks_signatures_across_clones() {
        let h = MinHasher::new(8, 3);
        assert_eq!(h.signatures_computed(), 0);
        let _ = sig_of(&h, &["a"]);
        let clone = h.clone();
        let _ = sig_of(&clone, &["b"]);
        // Clones share one counter: both computations are visible on both.
        assert_eq!(h.signatures_computed(), 2);
        assert_eq!(clone.signatures_computed(), 2);
        // A fresh family starts its own ledger.
        assert_eq!(MinHasher::new(8, 3).signatures_computed(), 0);
    }

    #[test]
    #[should_panic(expected = "not comparable")]
    fn mismatched_lengths_panic() {
        let a = Signature(vec![1, 2]);
        let b = Signature(vec![1]);
        let _ = a.estimate_jaccard(&b);
    }

    #[test]
    fn mersenne_fold_matches_u128_remainder() {
        const P: u64 = MERSENNE_61;
        let check = |a: u64, b: u64, x: u64| {
            let expect = (u128::from(a) * u128::from(x) + u128::from(b)) % u128::from(P);
            let x = mod_mersenne(u128::from(x));
            let got = mod_mersenne(u128::from(a) * u128::from(x) + u128::from(b));
            assert_eq!(u128::from(got), expect, "a={a} b={b} x={x}");
        };
        for a in [1, P - 1] {
            for b in [1, P - 1] {
                for x in [0, P - 1, P, P + 1, 2 * P, u64::MAX] {
                    check(a, b, x);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..100_000 {
            check(rng.gen_range(1..P), rng.gen_range(0..P), rng.gen::<u64>());
        }
    }

    #[test]
    #[should_panic(expected = "num_perm must be positive")]
    fn zero_perm_panics() {
        let _ = MinHasher::new(0, 1);
    }
}
