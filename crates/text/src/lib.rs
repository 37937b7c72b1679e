//! # dialite-text
//!
//! Text and similarity toolkit shared by discovery, alignment and entity
//! resolution: tokenizers, set/string/vector similarity measures, TF-IDF
//! weighting and a deterministic *hashed character n-gram embedder*.
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
mod tfidf;
mod tokenize;
mod vector;

pub use embed::{column_embedding, NgramEmbedder};
pub use sim::{
    acronym_of, containment, cosine_dense, cosine_dense_normed, dense_norm, dice, jaccard,
    levenshtein, levenshtein_sim, levenshtein_sim_chars, overlap_coefficient,
};
pub use tfidf::TfIdf;
pub use tokenize::{char_ngrams, fnv1a64, qgrams_padded, word_tokens};
pub use vector::SparseVector;
