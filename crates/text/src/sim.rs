//! Set, string and vector similarity measures.
//!
//! Both set measures operate on [`HashSet<String>`]; the join/union search
//! literature conventions are followed: Jaccard = |∩|/|∪|, containment of
//! `q` in `x` = |q ∩ x| / |q| (the measure LSH Ensemble indexes for).

use std::collections::HashSet;

/// Jaccard similarity |a ∩ b| / |a ∪ b|. Two empty sets are defined to be 1.
pub fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Containment of `q` in `x`: |q ∩ x| / |q|. The asymmetric measure used by
/// joinable-table search (Zhu et al., VLDB'16). Empty `q` has containment 1.
pub fn containment(q: &HashSet<String>, x: &HashSet<String>) -> f64 {
    if q.is_empty() {
        return 1.0;
    }
    q.intersection(x).count() as f64 / q.len() as f64
}

/// Levenshtein edit distance (unit costs), O(|a|·|b|) time, O(min) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance(&a, &b)
}

fn edit_distance(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized Levenshtein similarity in [0, 1]: `1 - dist / max_len`,
/// case-insensitive. Two empty strings are 1.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let la: Vec<char> = a.to_lowercase().chars().collect();
    let lb: Vec<char> = b.to_lowercase().chars().collect();
    levenshtein_sim_chars(&la, &lb)
}

/// [`levenshtein_sim`] of two strings already lowercased into characters —
/// for callers that compare one string against many.
pub fn levenshtein_sim_chars(a: &[char], b: &[char]) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b) as f64 / max as f64
}

/// Does `short` read as an acronym/initialism of `long`?
/// "USA" matches "United States of America"; stop-words (`of`, `the`, `and`)
/// may be skipped; comparison is case-insensitive and punctuation-blind
/// ("J&J" → letters `jj` matches "Johnson Johnson").
pub fn acronym_of(short: &str, long: &str) -> bool {
    let letters: Vec<char> = short
        .chars()
        .filter(|c| c.is_alphanumeric())
        .flat_map(char::to_lowercase)
        .collect();
    if letters.len() < 2 {
        return false;
    }
    let words = crate::tokenize::word_tokens(long);
    if words.len() < 2 {
        return false;
    }
    let initials: Vec<char> = words.iter().filter_map(|w| w.chars().next()).collect();
    if initials == letters {
        return true;
    }
    // Allow stop-words to be skipped ("United States of America" → "usa").
    const STOP: [&str; 4] = ["of", "the", "and", "for"];
    let non_stop: Vec<char> = words
        .iter()
        .filter(|w| !STOP.contains(&w.as_str()))
        .filter_map(|w| w.chars().next())
        .collect();
    non_stop == letters
}

/// Cosine similarity of two dense vectors; 0 when either has zero norm.
pub fn cosine_dense(a: &[f32], b: &[f32]) -> f64 {
    cosine_dense_normed(a, dense_norm(a), b, dense_norm(b))
}

/// Euclidean norm of a dense vector, accumulated in `f64` — the per-vector
/// half of [`cosine_dense`].
pub fn dense_norm(v: &[f32]) -> f64 {
    let mut sq = 0.0f64;
    for &x in v {
        sq += f64::from(x) * f64::from(x);
    }
    sq.sqrt()
}

/// [`cosine_dense`] with both norms precomputed by [`dense_norm`] — for
/// callers that compare one vector against many.
pub fn cosine_dense_normed(a: &[f32], norm_a: f64, b: &[f32], norm_b: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    let mut dot = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += f64::from(x) * f64::from(y);
    }
    dot / (norm_a * norm_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_basics() {
        assert!((jaccard(&set(&["a", "b"]), &set(&["b", "c"])) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&set(&[]), &set(&[])), 1.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&[])), 0.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&["a"])), 1.0);
    }

    #[test]
    fn containment_is_asymmetric() {
        let q = set(&["berlin", "boston"]);
        let x = set(&["berlin", "boston", "barcelona", "delhi"]);
        assert_eq!(containment(&q, &x), 1.0);
        assert_eq!(containment(&x, &q), 0.5);
        assert_eq!(containment(&set(&[]), &x), 1.0);
    }

    #[test]
    fn levenshtein_known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("jnj", "jj"), 1);
    }

    #[test]
    fn levenshtein_sim_normalizes_and_ignores_case() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("ABC", "abc"), 1.0);
        assert!((levenshtein_sim("JnJ", "J&J") - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn acronyms() {
        assert!(acronym_of("USA", "United States of America"));
        assert!(acronym_of("US", "United States"));
        assert!(acronym_of("J&J", "Johnson Johnson"));
        assert!(acronym_of("FDA", "Food and Drug Administration"));
        assert!(!acronym_of("UK", "United States"));
        assert!(!acronym_of("U", "United")); // too short
        assert!(!acronym_of("USA", "USA")); // long side must be multi-word
    }

    #[test]
    fn precomputed_parts_match_the_one_pass_forms_bit_for_bit() {
        // The single-loop cosine the split form replaced.
        fn one_pass(a: &[f32], b: &[f32]) -> f64 {
            let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
            for (&x, &y) in a.iter().zip(b) {
                dot += f64::from(x) * f64::from(y);
                na += f64::from(x) * f64::from(x);
                nb += f64::from(y) * f64::from(y);
            }
            if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                dot / (na.sqrt() * nb.sqrt())
            }
        }
        let vecs: [&[f32]; 4] = [
            &[0.0, 0.0, 0.0],
            &[0.1, -0.7, 0.3],
            &[1e-20, 3.5, -2.25],
            &[0.577, 0.577, 0.577],
        ];
        for a in vecs {
            for b in vecs {
                assert_eq!(cosine_dense(a, b).to_bits(), one_pass(a, b).to_bits());
            }
        }
        let words = ["", "JnJ", "J&J", "ΣΑΣ", "İstanbul", "Vaccination Rate"];
        for a in words {
            for b in words {
                let la: Vec<char> = a.to_lowercase().chars().collect();
                let lb: Vec<char> = b.to_lowercase().chars().collect();
                let max = la.len().max(lb.len());
                let expected = if max == 0 {
                    1.0
                } else {
                    1.0 - levenshtein(&a.to_lowercase(), &b.to_lowercase()) as f64 / max as f64
                };
                assert_eq!(
                    levenshtein_sim_chars(&la, &lb).to_bits(),
                    expected.to_bits()
                );
                assert_eq!(levenshtein_sim(a, b).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn cosine_dense_basics() {
        assert!((cosine_dense(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_dense(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_dense(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine_dense(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-9);
    }
}
