//! # dialite-minhash
//!
//! MinHash signatures and a from-scratch implementation of the **LSH
//! Ensemble** domain-search index (Zhu, Nargesian, Pu, Miller — *LSH
//! Ensemble: Internet-Scale Domain Search*, VLDB 2016), which is the
//! joinable-table discovery backend the DIALITE demo exposes (paper §2.1;
//! the authors used `ekzhu/datasketch`).
//!
//! Two layers:
//!
//! * [`MinHasher`] / [`Signature`] — fixed-length MinHash signatures over
//!   string token sets, using a seeded universal hash family modulo the
//!   Mersenne prime `2^61 - 1`. Signatures estimate Jaccard similarity.
//! * [`LshEnsemble`] — the containment-search index: indexed domains are
//!   partitioned by set size; each partition keeps, for every power-of-two
//!   row count, one hash-sorted `(band hash, domain)` array per band, built
//!   once. Band hashes are tree hashes computed bottom-up — a one-row band
//!   hashes to its slot, every wider band is one 64-bit combine of its two
//!   halves — and are never persisted (snapshots keep only signatures).
//!   At query time the containment threshold is converted to a
//!   per-partition Jaccard threshold for which (near-)optimal `(b, r)`
//!   parameters are chosen by minimizing the sum of false-positive and
//!   false-negative probability integrals — the same construction as the
//!   paper's optimal-parameter tuning — and memoised per threshold.
//!   Domains inserted after the build are staged unbanded and returned by
//!   every query until a rebalance bands them.

#![deny(missing_docs)]

mod ensemble;
mod hasher;
mod params;
mod sketch;

pub use ensemble::{LshEnsemble, LshEnsembleBuilder, PartitionProbe, DEFAULT_REBALANCE_THRESHOLD};
pub use hasher::{MinHasher, Signature};
pub use params::{containment_to_jaccard, optimal_params, optimal_params_restricted};
pub use sketch::SketchSnapshot;
