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
//!   partitioned by set size, which is all partitioning needs, so the
//!   index is built from `(key, size)` entries and a domain's signature is
//!   computed by the first probe of its partition, through a signer the
//!   caller passes with the probe (or pre-filled, by an eager build). Each
//!   partition bands its domains for every power-of-two row count, one
//!   hash-sorted `(band hash, domain)` array per band, built on first
//!   probe — on the discover-hetero benchmark lake (12 980 domains) 3.9 MB
//!   of the 75.9 MB an eager build laid out. Band hashes are tree hashes
//!   of slot runs; nothing of the index is persisted.
//!   At query time the containment threshold is converted to a
//!   per-partition Jaccard threshold for which (near-)optimal `(b, r)`
//!   parameters are chosen by minimizing the sum of false-positive and
//!   false-negative probability integrals — the same construction as the
//!   paper's optimal-parameter tuning — and memoised per threshold.
//!   A built index never changes: a caller whose domains change lays out
//!   a new one, so an index always equals a fresh build over its domains.

#![deny(missing_docs)]

mod ensemble;
mod hasher;
mod params;

pub use ensemble::{LshEnsemble, LshEnsembleBuilder, PartitionProbe};
pub use hasher::{MinHasher, Signature};
