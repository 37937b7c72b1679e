//! # dialite-text
//!
//! Text and similarity toolkit shared by discovery, alignment and entity
//! resolution: tokenizers, set/string/vector similarity measures and a
//! deterministic *hashed character n-gram embedder*.
//!
//! The embedder is this reproduction's substitute for the pretrained
//! fastText/BERT embeddings used by ALITE's holistic schema matcher: it maps
//! any string (or bag of strings) to a fixed-dimension dense vector via
//! feature hashing of character n-grams, so that lexically similar value
//! sets land close in cosine space. It is fully deterministic, dependency
//! free and fast — preserving the *geometry-based clustering code path*
//! without shipping model weights (see ARCHITECTURE.md § Substitutions).

mod embed;
mod sim;
mod tokenize;

pub use embed::NgramEmbedder;
pub use sim::{
    acronym_of, containment, cosine_dense, cosine_dense_normed, dense_norm, jaccard, levenshtein,
    levenshtein_sim, levenshtein_sim_chars,
};
pub use tokenize::{char_ngrams, fnv1a64, qgrams_padded, word_tokens};
