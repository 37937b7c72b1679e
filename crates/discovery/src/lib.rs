//! # dialite-discovery
//!
//! The **Discover** stage of DIALITE (paper §2.1): given a query table `Q`
//! and a data lake `D`, find tables that are *unionable*, *joinable* or
//! simply similar to `Q`, returning an integration set for ALITE.
//!
//! Four search engines implement the common [`Discovery`] trait:
//!
//! * [`SantosDiscovery`] — semantic **union** search in the style of SANTOS
//!   (Khatiwada et al., SIGMOD 2023): columns are annotated with semantic
//!   types from a knowledge base and column *pairs* with relationships; a
//!   query's semantic graph (a star around the intent column) is matched
//!   against indexed tables. When KB coverage is thin, a synthesized signal
//!   (direct domain overlap mined from the lake itself) fills in — the
//!   reproduction's laptop-scale stand-in for SANTOS's synthesized KB
//!   (ARCHITECTURE.md § Substitutions).
//! * [`LshEnsembleDiscovery`] — **joinable** search over MinHash sketches
//!   using the LSH Ensemble containment index (Zhu et al., VLDB 2016), with
//!   exact containment verification of candidates. A query whose posting
//!   mass is below `exact_mass_per_token × |Q|` skips the sketch and is
//!   answered exactly by one merge over its token posting lists; a heavier
//!   one takes the sketch, whose domain signatures are computed on first
//!   probe from the token store. Configured with a vanishing `threshold` and
//!   `exact_mass_per_token = usize::MAX` the engine is an exact top-k
//!   overlap (containment) search for every query.
//! * [`MetadataDiscovery`] — **metadata-aware** search over column headers
//!   (cf. TableNet): an inverted header-token index answers "find tables
//!   annotated like this" probes with the same best-bound-first capped
//!   retrieval as the SANTOS leg — the two legs share one bounded top-k
//!   kernel and one token posting index. Off by default; enabled through
//!   [`LakeIndexConfig::metadata`].
//! * [`SimilarityDiscovery`] — the user-defined extension point of paper
//!   Fig. 4: any `Fn(&Table, &Table) -> f64` becomes a discovery algorithm.
//!
//! Results from several engines are merged with [`union_integration_set`],
//! mirroring the demo's "persist the set of tables found by all techniques
//! to form an integration set".
//!
//! For *mutable* lakes, [`LakeIndex`] owns three legs — the SANTOS-style,
//! LSH Ensemble and (when configured) metadata engines — behind one
//! churn-safe maintenance point: it follows the lake changelog
//! (`DataLake::events_since`) and applies each add/replace/remove with
//! `O(changed tables)` work instead of rebuilding, staying exactly
//! equivalent to a fresh build (see `tests/incremental_oracle.rs`).
//!
//! The discovery hot path is served by [`TopKPlanner`], the budgeted top-k
//! query engine over the LSH index: cached query-column signatures, a
//! best-bound-first partition schedule with provable early termination,
//! and one posting merge that answers small queries exactly — cheapest
//! posting lists first, under the [`QueryBudget`] `postings` cap.
//! [`LakeIndex::discover_top_k`] exposes it, and with an unlimited
//! [`QueryBudget`] it returns exactly what the probe-all
//! [`LshEnsembleDiscovery`] `discover` returns.
//!
//! The whole discovery *stage* is budgeted through [`DiscoveryBudget`]:
//! [`LakeIndex::discover_all_budgeted`] routes the joinable leg through
//! the planner and the SANTOS and metadata legs through their capped,
//! bound-ranked candidate retrieval ([`SantosDiscovery::discover_capped`],
//! [`MetadataDiscovery::discover_capped`]), and every budgeted query folds
//! its stats into the index's rolling [`DiscoveryTelemetry`] (cache hit
//! rate, partitions pruned, verifications, budget-exhaustion rate,
//! per-engine latency buckets). It is the index's one query path: the
//! index's [`Discovery::discover`] runs it at
//! [`DiscoveryBudget::unlimited`], where every leg equals its engine's
//! probe-all `discover`.
//!
//! At lake scale the index itself shards: [`ShardedLakeIndex`] stripes
//! the slot space across N scoped [`LakeIndex`] shards (routing in
//! [`ShardRouter`]), probes the shards in order on the caller's thread
//! with per-shard [`QueryBudget::split`] budget slices (sharding buys
//! write-lock granularity, not read speed), re-ranks per-shard top-k with
//! [`top_k_discovered`] and merges per-shard telemetry with
//! [`DiscoveryTelemetry::merge`] — `shards == 1` stays byte-for-byte the
//! single index (see `tests/shard_oracle.rs`).

#![deny(missing_docs)]

mod custom;
mod index;
mod lshe;
mod metadata;
mod pool;
mod retrieval;
mod santos;
mod serving;
mod shard;
mod telemetry;
mod topk;
mod types;

pub use custom::SimilarityDiscovery;
pub use index::{LakeIndex, LakeIndexConfig};
pub use lshe::{LshEnsembleConfig, LshEnsembleDiscovery};
pub use metadata::{MetadataConfig, MetadataDiscovery};
pub use retrieval::RetrievalStats;
pub use santos::{SantosConfig, SantosDiscovery};
pub use serving::{
    DiscoveryService, ServingConfig, ServingError, ServingResponse, ServingTelemetry,
};
pub use shard::{ShardRouter, ShardScope, ShardedLakeIndex};
pub use telemetry::{
    DiscoveryTelemetry, LatencyHistogram, LatencyPercentiles, RetrievalCounters, TopKCounters,
    LATENCY_BUCKET_BOUNDS_US,
};
pub use topk::{DiscoveryBudget, QueryBudget, TopKPlanner, TopKStats};
pub use types::{
    merge_best_scores, top_k_discovered, union_integration_set, Discovered, Discovery, TableQuery,
};
