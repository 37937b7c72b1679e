//! Tokenizers and the FNV-1a hash used throughout the workspace for
//! deterministic, dependency-free feature hashing.

/// FNV-1a state before any byte: `fnv1a64(b"")`.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one byte into an FNV-1a state, so callers can hash bytes they
/// never gather into one slice.
#[inline]
pub(crate) fn fnv_byte(h: u64, b: u8) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    (h ^ u64::from(b)).wrapping_mul(PRIME)
}

/// 64-bit FNV-1a hash. Deterministic across runs and platforms, which
/// matters for reproducible indexes and embeddings.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_byte(h, b))
}

/// Lower-cased alphanumeric word tokens. Everything that is not
/// alphanumeric separates tokens; empty tokens are dropped.
///
/// ```
/// use dialite_text::word_tokens;
/// assert_eq!(word_tokens("New-Delhi, India"), vec!["new", "delhi", "india"]);
/// ```
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Character n-grams of the lower-cased input (no padding). Returns the
/// whole string as a single gram when it is shorter than `n`.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    if chars.is_empty() || n == 0 {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
}

/// Padded q-grams: the input is wrapped in `q - 1` boundary markers (`#`)
/// before sliding, so that string starts/ends contribute distinct grams —
/// the classic construction for q-gram string similarity.
pub fn qgrams_padded(s: &str, q: usize) -> Vec<String> {
    if q == 0 || s.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q.saturating_sub(1));
    let padded = format!("{pad}{}{pad}", s.to_lowercase());
    char_ngrams(&padded, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_tokens_splits_and_lowercases() {
        assert_eq!(word_tokens("J&J Vaccine"), vec!["j", "j", "vaccine"]);
        assert_eq!(word_tokens("  "), Vec::<String>::new());
        assert_eq!(word_tokens("COVID-19"), vec!["covid", "19"]);
    }

    #[test]
    fn word_tokens_handles_unicode() {
        assert_eq!(word_tokens("Łódź café"), vec!["łódź", "café"]);
    }

    #[test]
    fn char_ngrams_basics() {
        assert_eq!(char_ngrams("abcd", 2), vec!["ab", "bc", "cd"]);
        assert_eq!(char_ngrams("ab", 3), vec!["ab"]);
        assert_eq!(char_ngrams("", 2), Vec::<String>::new());
        assert_eq!(char_ngrams("ABC", 2), vec!["ab", "bc"]);
    }

    #[test]
    fn char_ngrams_zero_n_is_empty() {
        assert_eq!(char_ngrams("abc", 0), Vec::<String>::new());
    }

    #[test]
    fn qgrams_pad_boundaries() {
        let grams = qgrams_padded("ab", 2);
        assert_eq!(grams, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn qgrams_q1_is_plain_chars() {
        assert_eq!(qgrams_padded("abc", 1), vec!["a", "b", "c"]);
    }
}
