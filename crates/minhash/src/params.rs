//! Optimal banding-parameter search and the containment↔Jaccard conversion
//! from the LSH Ensemble paper.

/// Probability that a pair with Jaccard similarity `s` collides in at least
/// one of `b` bands of `r` rows: `1 - (1 - s^r)^b`.
fn collision_probability(s: f64, b: usize, r: usize) -> f64 {
    1.0 - (1.0 - s.powi(r as i32)).powi(b as i32)
}

/// False-positive area: ∫₀^t P(collide | s) ds, trapezoid rule.
fn false_positive_area(threshold: f64, b: usize, r: usize) -> f64 {
    integrate(0.0, threshold, |s| collision_probability(s, b, r))
}

/// False-negative area: ∫_t^1 (1 − P(collide | s)) ds, trapezoid rule.
fn false_negative_area(threshold: f64, b: usize, r: usize) -> f64 {
    integrate(threshold, 1.0, |s| 1.0 - collision_probability(s, b, r))
}

fn integrate(lo: f64, hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    const STEPS: usize = 64;
    let h = (hi - lo) / STEPS as f64;
    let mut acc = 0.5 * (f(lo) + f(hi));
    for i in 1..STEPS {
        acc += f(lo + h * i as f64);
    }
    acc * h
}

/// Find the `(b, r)` with `b * r ≤ num_perm` and `r` from `allowed_r`
/// minimizing false-positive plus false-negative area at the given Jaccard
/// `threshold` (the ensemble only materializes banding tables for
/// power-of-two `r`).
pub(crate) fn optimal_params_restricted(
    threshold: f64,
    num_perm: usize,
    allowed_r: &[usize],
) -> (usize, usize) {
    let mut best = (1usize, *allowed_r.first().unwrap_or(&1));
    let mut best_err = f64::INFINITY;
    for &r in allowed_r {
        if r == 0 || r > num_perm {
            continue;
        }
        let max_b = num_perm / r;
        for b in 1..=max_b {
            let err = false_positive_area(threshold, b, r) + false_negative_area(threshold, b, r);
            if err < best_err {
                best_err = err;
                best = (b, r);
            }
        }
    }
    best
}

/// Convert a containment threshold `t` for query-set size `q` against a
/// partition whose domains have size at most `u` into the equivalent
/// Jaccard threshold (LSH Ensemble, eq. 4):
/// `j = t·q / (q + u − t·q)`.
pub(crate) fn containment_to_jaccard(t: f64, q: usize, u: usize) -> f64 {
    if q == 0 {
        return 0.0;
    }
    let t = t.clamp(0.0, 1.0);
    let q = q as f64;
    let u = u.max(1) as f64;
    let denom = q + u - t * q;
    if denom <= 0.0 {
        1.0
    } else {
        (t * q / denom).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_probability_monotone_in_similarity() {
        let p1 = collision_probability(0.2, 8, 4);
        let p2 = collision_probability(0.6, 8, 4);
        let p3 = collision_probability(0.9, 8, 4);
        assert!(p1 < p2 && p2 < p3);
    }

    /// Every row count `1..=num_perm`: the unrestricted search.
    fn all_r(num_perm: usize) -> Vec<usize> {
        (1..=num_perm).collect()
    }

    #[test]
    fn optimal_params_fit_budget() {
        for &t in &[0.1, 0.5, 0.9] {
            let (b, r) = optimal_params_restricted(t, 128, &all_r(128));
            assert!(b * r <= 128, "b={b} r={r}");
            assert!(b >= 1 && r >= 1);
        }
    }

    #[test]
    fn higher_threshold_prefers_more_rows() {
        // High thresholds need steep S-curves → larger r.
        let (_, r_low) = optimal_params_restricted(0.2, 128, &all_r(128));
        let (_, r_high) = optimal_params_restricted(0.9, 128, &all_r(128));
        assert!(
            r_high >= r_low,
            "expected r({r_high}) at t=0.9 ≥ r({r_low}) at t=0.2"
        );
    }

    #[test]
    fn restricted_search_respects_allowed_r() {
        let allowed = [1usize, 2, 4, 8];
        let (b, r) = optimal_params_restricted(0.7, 64, &allowed);
        assert!(allowed.contains(&r));
        assert!(b * r <= 64);
    }

    #[test]
    fn containment_conversion_known_points() {
        // u == q and t = 1 → jaccard 1.
        assert!((containment_to_jaccard(1.0, 10, 10) - 1.0).abs() < 1e-12);
        // t = 0 → jaccard 0.
        assert_eq!(containment_to_jaccard(0.0, 10, 100), 0.0);
        // bigger domains dilute jaccard for the same containment.
        let j_small = containment_to_jaccard(0.5, 10, 10);
        let j_big = containment_to_jaccard(0.5, 10, 1000);
        assert!(j_big < j_small);
    }

    #[test]
    fn containment_conversion_is_bounded() {
        for q in [0usize, 1, 10, 1000] {
            for u in [1usize, 10, 100000] {
                for t in [0.0, 0.3, 0.7, 1.0] {
                    let j = containment_to_jaccard(t, q, u);
                    assert!((0.0..=1.0).contains(&j), "t={t} q={q} u={u} → {j}");
                }
            }
        }
    }
}
