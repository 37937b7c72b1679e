//! Deterministic hashed character n-gram embeddings.
//!
//! This is the reproduction's substitute for the pretrained value embeddings
//! ALITE's holistic schema matcher feeds to its clustering step
//! (ARCHITECTURE.md § Substitutions). Strings are decomposed into padded character n-grams; each gram is
//! feature-hashed into a fixed-dimension vector with a ±1 sign hash (the
//! "hashing trick"), and the result is L2-normalized. Bags of strings embed
//! as the normalized centroid of their member embeddings, so two columns
//! drawing from lexically similar domains get high cosine similarity.
//!
//! Features are **streamed, not materialised**: the features are the FNV-1a
//! hashes of the UTF-8 bytes of each gram of [`qgrams_padded`] and of
//! `"w:" + word` for each of [`word_tokens`], but no gram or word is ever
//! built as a `String`. The lowercased value is read once into a reused
//! `Vec<char>`, the `#` padding is virtual, and each word's hash folds its
//! lowercased characters straight from the input after the `w:` prefix.
//! [`NgramEmbedder::embed_bag`] normalises each member over the indices it
//! touched only (in ascending order, so every sum is the dense sum — the
//! skipped entries are zeros) and resets just those. Both paths are
//! bit-identical to building the strings, pinned by tests against a
//! string-building reference.
//!
//! [`qgrams_padded`]: crate::qgrams_padded
//! [`word_tokens`]: crate::word_tokens

use crate::tokenize::{fnv1a64, fnv_byte, FNV_OFFSET};

/// Fold one character's UTF-8 bytes into an FNV-1a state.
#[inline]
fn fnv_char(h: u64, c: char) -> u64 {
    if c.is_ascii() {
        return fnv_byte(h, c as u8);
    }
    let mut buf = [0u8; 4];
    c.encode_utf8(&mut buf).bytes().fold(h, fnv_byte)
}

/// A hashed n-gram embedder with a fixed output dimension and gram sizes.
#[derive(Debug, Clone)]
pub struct NgramEmbedder {
    dim: usize,
    gram_sizes: Vec<usize>,
    include_words: bool,
}

impl Default for NgramEmbedder {
    /// 256 dimensions, 2- and 3-grams plus whole-word features: small enough
    /// to centroid thousands of columns quickly, selective enough to
    /// separate unrelated domains.
    fn default() -> Self {
        NgramEmbedder {
            dim: 256,
            gram_sizes: vec![2, 3],
            include_words: true,
        }
    }
}

impl NgramEmbedder {
    /// Custom dimension and gram sizes, for the tests that pin the
    /// streamed features against the string-building reference.
    #[cfg(test)]
    pub(crate) fn new(dim: usize, gram_sizes: Vec<usize>, include_words: bool) -> NgramEmbedder {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(!gram_sizes.is_empty(), "need at least one gram size");
        NgramEmbedder {
            dim,
            gram_sizes,
            include_words,
        }
    }

    /// Feature index and ±1 sign of one feature hash.
    #[inline]
    fn slot(&self, h: u64) -> (usize, f32) {
        let idx = (h % self.dim as u64) as usize;
        // An independent bit decides the sign, which keeps hash collisions
        // from systematically inflating similarity.
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        (idx, sign)
    }

    /// Call `emit` with the hash of every feature of `s`, in the order the
    /// grams and words occur. `lower` is scratch space for the lowercased
    /// characters.
    fn features(&self, s: &str, lower: &mut Vec<char>, mut emit: impl FnMut(u64)) {
        if s.is_empty() {
            return;
        }
        lower.clear();
        if s.is_ascii() {
            lower.extend(s.bytes().map(|b| char::from(b.to_ascii_lowercase())));
        } else {
            lower.extend(s.to_lowercase().chars());
        }
        for &q in &self.gram_sizes {
            if q == 0 {
                continue;
            }
            // Windows of `q` over `#`×(q−1) ++ lower ++ `#`×(q−1).
            let pad = q - 1;
            let len = lower.len() + 2 * pad;
            for start in 0..=len - q {
                let mut h = FNV_OFFSET;
                for k in start..start + q {
                    let c = if k < pad || k >= pad + lower.len() {
                        '#'
                    } else {
                        lower[k - pad]
                    };
                    h = fnv_char(h, c);
                }
                emit(h);
            }
        }
        if self.include_words {
            let start = fnv1a64(b"w:");
            let mut h = start;
            let mut in_word = false;
            for c in s.chars() {
                if c.is_alphanumeric() {
                    h = c.to_lowercase().fold(h, fnv_char);
                    in_word = true;
                } else if in_word {
                    emit(h);
                    h = start;
                    in_word = false;
                }
            }
            if in_word {
                emit(h);
            }
        }
    }

    /// Embed a single string; L2-normalized (zero vector for empty input).
    pub fn embed(&self, s: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.features(s, &mut Vec::new(), |h| {
            let (idx, sign) = self.slot(h);
            v[idx] += sign;
        });
        normalize(&mut v);
        v
    }

    /// Embed a bag of strings as the normalized centroid of member
    /// embeddings. The per-member normalization stops a single long value
    /// from dominating the column representation.
    pub fn embed_bag<'a, I: IntoIterator<Item = &'a str>>(&self, bag: I) -> Vec<f32> {
        let mut centroid = vec![0.0f32; self.dim];
        let mut n = 0usize;
        let mut member = vec![0.0f32; self.dim];
        let mut touched: Vec<usize> = Vec::new();
        let mut lower = Vec::new();
        for s in bag {
            self.features(s, &mut lower, |h| {
                let (idx, sign) = self.slot(h);
                // An index can be pushed twice only if its sum cancelled back
                // to 0; the dedup below removes the repeat.
                if member[idx] == 0.0 {
                    touched.push(idx);
                }
                member[idx] += sign;
            });
            touched.sort_unstable();
            touched.dedup();
            let norm: f32 = touched
                .iter()
                .map(|&i| member[i] * member[i])
                .sum::<f32>()
                .sqrt();
            if norm != 0.0 {
                for &i in &touched {
                    centroid[i] += member[i] / norm;
                }
                n += 1;
            }
            for i in touched.drain(..) {
                member[i] = 0.0;
            }
        }
        if n > 0 {
            normalize(&mut centroid);
        }
        centroid
    }
}

/// L2-normalize in place; returns false (leaving zeros) for a zero vector.
fn normalize(v: &mut [f32]) -> bool {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm == 0.0 {
        return false;
    }
    v.iter_mut().for_each(|x| *x /= norm);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::cosine_dense;
    use crate::tokenize::{qgrams_padded, word_tokens};

    /// The string-building embedder the streamed one replaced: every gram
    /// and `w:` word materialised as a `String`, then hashed; every member
    /// normalised over the full vector. The bit-identity reference.
    struct Reference<'e>(&'e NgramEmbedder);

    impl Reference<'_> {
        fn add_feature(&self, out: &mut [f32], feature: &str) {
            let h = fnv1a64(feature.as_bytes());
            let idx = (h % self.0.dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
            out[idx] += sign;
        }

        fn accumulate(&self, s: &str, out: &mut [f32]) {
            for &q in &self.0.gram_sizes {
                for gram in qgrams_padded(s, q) {
                    self.add_feature(out, &gram);
                }
            }
            if self.0.include_words {
                for w in word_tokens(s) {
                    self.add_feature(out, &format!("w:{w}"));
                }
            }
        }

        fn embed(&self, s: &str) -> Vec<f32> {
            let mut v = vec![0.0f32; self.0.dim];
            self.accumulate(s, &mut v);
            normalize(&mut v);
            v
        }

        fn embed_bag(&self, bag: &[&str]) -> Vec<f32> {
            let mut centroid = vec![0.0f32; self.0.dim];
            let mut n = 0usize;
            let mut member = vec![0.0f32; self.0.dim];
            for s in bag {
                member.iter_mut().for_each(|x| *x = 0.0);
                self.accumulate(s, &mut member);
                if normalize(&mut member) {
                    for (c, m) in centroid.iter_mut().zip(member.iter()) {
                        *c += *m;
                    }
                    n += 1;
                }
            }
            if n > 0 {
                normalize(&mut centroid);
            }
            centroid
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const STRINGS: &[&str] = &[
        "",
        "a",
        "Z",
        "#",
        "##",
        "#####",
        "berlin",
        "Berlin",
        "BERLIN",
        "New Delhi",
        "mexico city",
        "J&J",
        "COVID-19",
        "  leading and trailing  ",
        "a-b_c.d/e",
        "0.63",
        "1400000",
        "ŁÓDŹ café",
        "ΣΑΣ",
        "ΟΔΟΣ ΣΑΣ.",
        "İstanbul",
        "ß",
        "STRASSE straße",
        "ǅ",
        "ǅemal",
        "日本語テキスト",
        "emoji 🙂 mix",
    ];

    fn embedders() -> Vec<NgramEmbedder> {
        let mut out = vec![NgramEmbedder::default()];
        for words in [true, false] {
            out.push(NgramEmbedder::new(97, vec![1, 2, 3, 5], words));
            out.push(NgramEmbedder::new(256, vec![2, 3], words));
            out.push(NgramEmbedder::new(1, vec![5, 1], words));
        }
        out
    }

    #[test]
    fn streamed_embed_is_bit_identical_to_string_building() {
        for e in embedders() {
            for s in STRINGS {
                assert_eq!(
                    bits(&e.embed(s)),
                    bits(&Reference(&e).embed(s)),
                    "{e:?} on {s:?}"
                );
            }
        }
    }

    #[test]
    fn streamed_embed_bag_is_bit_identical_to_string_building() {
        let bags: Vec<Vec<&str>> = vec![
            vec![],
            vec![""],
            vec!["", "#", "a"],
            STRINGS.to_vec(),
            STRINGS.iter().rev().copied().collect(),
            vec!["berlin", "manchester", "barcelona"],
            vec!["J&J", "JnJ", "Pfizer", "COVID-19"],
            vec!["ΣΑΣ", "σας", "İstanbul", "ß", "ǅ", "ŁÓDŹ café"],
            vec!["ab", "ba"],
        ];
        for e in embedders() {
            for bag in &bags {
                assert_eq!(
                    bits(&e.embed_bag(bag.iter().copied())),
                    bits(&Reference(&e).embed_bag(bag)),
                    "{e:?} on {bag:?}"
                );
            }
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = NgramEmbedder::default();
        assert_eq!(e.embed("Berlin"), e.embed("Berlin"));
    }

    #[test]
    fn embedding_is_case_insensitive() {
        let e = NgramEmbedder::default();
        assert_eq!(e.embed("BERLIN"), e.embed("berlin"));
    }

    #[test]
    fn similar_strings_are_closer_than_dissimilar() {
        let e = NgramEmbedder::default();
        let berlin = e.embed("berlin");
        let berlin2 = e.embed("berlin city");
        let number = e.embed("42,17");
        assert!(cosine_dense(&berlin, &berlin2) > cosine_dense(&berlin, &number));
    }

    #[test]
    fn similar_domains_have_high_cosine() {
        let e = NgramEmbedder::default();
        let cities_a = e.embed_bag(["berlin", "manchester", "barcelona"]);
        let cities_b = e.embed_bag(["toronto", "mexico city", "boston", "barcelona"]);
        let rates = e.embed_bag(["63%", "78%", "82%"]);
        assert!(
            cosine_dense(&cities_a, &cities_b) > cosine_dense(&cities_a, &rates),
            "city domains should be closer to each other than to percentage domains"
        );
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = NgramEmbedder::default();
        let v = e.embed("hello world");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        let bag = e.embed_bag(["a", "b", "c"]);
        let norm: f32 = bag.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_inputs_embed_to_zero() {
        let e = NgramEmbedder::default();
        assert!(e.embed("").iter().all(|&x| x == 0.0));
        assert!(e.embed_bag([]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bag_order_does_not_matter() {
        let e = NgramEmbedder::default();
        let a = e.embed_bag(["x", "y", "z"]);
        let b = e.embed_bag(["z", "x", "y"]);
        for (p, q) in a.iter().zip(b.iter()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = NgramEmbedder::new(0, vec![2], true);
    }

    #[test]
    fn custom_dim_is_respected() {
        let e = NgramEmbedder::new(64, vec![3], false);
        assert_eq!(e.embed("abc").len(), 64);
        assert_eq!(e.embed_bag(["abc", "de"]).len(), 64);
    }
}
