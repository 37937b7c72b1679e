//! Budgeted top-k query planning for joinable discovery — the
//! candidate-cap lever over the LSH Ensemble engine.
//!
//! On a query heavy enough for the sketch, the probe-all query path
//! ([`LshEnsembleDiscovery`]'s `discover`) hashes the query column and
//! probes every partition, then truncates to `k`. At lake scale most
//! partitions hold domains too small to ever reach the containment
//! threshold, let alone the running top-k.
//! [`LshEnsembleDiscovery::discover_top_k_with_stats`] turns the scan into
//! a planned search:
//!
//! 1. **Partition schedule.** Partitions are probed best-bound-first
//!    ([`LshEnsemble::probe_plan`](dialite_minhash::LshEnsemble::probe_plan)):
//!    each partition's upper size bound caps the containment any of its
//!    domains can achieve. Partitions whose bound is below the threshold
//!    are never probed, and the search stops as soon as the k-th best
//!    verified table score strictly beats the best possible score of every
//!    unprobed partition.
//! 2. **Posting-list verification.** Candidates are verified exactly
//!    against interned token-id sets. A query whose posting mass is below
//!    `exact_mass_per_token × |Q|` skips the sketch entirely and is
//!    answered exactly by one posting merge over its tokens (cheapest list
//!    first, under the [`QueryBudget::postings`] cap); only a query heavy
//!    enough that merging would cost more than hashing takes the sketch,
//!    hashes its own column, lays the ensemble out over the store when no
//!    sketch query has done so since the last write, and a partition's
//!    first probe signs its domains from the store.
//!
//! The search keeps no state between queries beyond that layout, which
//! is a function of the store: a synced engine answers like a fresh
//! build over the same lake. With an unlimited [`QueryBudget`] it returns
//! exactly what the probe-all path returns (same tables, same scores,
//! same tie-breaks) — pinned by tests — while probing a fraction of the
//! partitions on skewed lakes. Budgets cap the partitions probed and
//! candidates verified for latency-bound serving; budgeted results are
//! best-effort but every reported score is still an exactly verified
//! containment.

use std::collections::HashMap;

use crate::lshe::LshEnsembleDiscovery;
use crate::retrieval::DomainKey;
use crate::types::{top_k, Discovered, TableQuery};

/// Per-query work limits for
/// [`LshEnsembleDiscovery::discover_top_k_with_stats`].
///
/// The default is unlimited (plan-optimal early termination only). Budgets
/// make worst-case latency predictable: once a cap is hit the search
/// returns the best verified results so far. Budgeted output is a sound
/// subset — every reported score is an exactly verified containment at or
/// above the engine threshold — but may miss tables an unbudgeted search
/// would find.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Maximum LSH partitions probed (the exact small-query path does not
    /// count against this).
    pub max_partitions: usize,
    /// Maximum candidate domains verified against their token-id sets on
    /// the sketch path.
    pub max_verifications: usize,
    /// Maximum posting entries the exact path's merge may scan per query.
    /// Lists are merged cheapest first, and the merge stops before a list
    /// would pass the cap; the domains it already saw are verified
    /// exactly, so a budgeted exact answer is a sound subset at exact
    /// scores. The sketch path and the degenerate non-positive-threshold
    /// scan ignore this cap — neither retrieves through postings.
    pub postings: usize,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget::unlimited()
    }
}

impl QueryBudget {
    /// No caps: the search stops only via its optimality bound.
    pub fn unlimited() -> QueryBudget {
        QueryBudget {
            max_partitions: usize::MAX,
            max_verifications: usize::MAX,
            postings: usize::MAX,
        }
    }

    /// Cap the number of partitions probed.
    pub fn with_max_partitions(mut self, n: usize) -> QueryBudget {
        self.max_partitions = n;
        self
    }

    /// Cap the number of candidate domains verified.
    pub fn with_max_verifications(mut self, n: usize) -> QueryBudget {
        self.max_verifications = n;
        self
    }

    /// Cap the posting entries the exact path's merge may scan.
    pub fn with_max_postings(mut self, n: usize) -> QueryBudget {
        self.postings = n;
        self
    }

    /// The per-shard slice of this budget for a fan-out across `shards`
    /// shards: each finite cap is divided by the shard count (rounding up,
    /// so the fleet never gets *less* total budget than the single-index
    /// query had), and unlimited caps stay unlimited. `split(1)` is the
    /// identity — required for the `shards == 1` byte-for-byte contract.
    ///
    /// ```
    /// use dialite_discovery::QueryBudget;
    ///
    /// let budget = QueryBudget::unlimited()
    ///     .with_max_partitions(64)
    ///     .with_max_verifications(100)
    ///     .with_max_postings(1000);
    /// assert_eq!(budget.split(1), budget);
    /// let per_shard = budget.split(8);
    /// assert_eq!(per_shard.max_partitions, 8);
    /// assert_eq!(per_shard.max_verifications, 13); // ceil(100 / 8)
    /// assert_eq!(per_shard.postings, 125);
    /// assert_eq!(
    ///     QueryBudget::unlimited().split(8),
    ///     QueryBudget::unlimited()
    /// );
    /// ```
    pub fn split(&self, shards: usize) -> QueryBudget {
        QueryBudget {
            max_partitions: split_cap(self.max_partitions, shards),
            max_verifications: split_cap(self.max_verifications, shards),
            postings: split_cap(self.postings, shards),
        }
    }
}

/// `cap / shards` rounded up, with `usize::MAX` (unlimited) preserved.
fn split_cap(cap: usize, shards: usize) -> usize {
    if cap == usize::MAX {
        usize::MAX
    } else {
        cap.div_ceil(shards.max(1))
    }
}

/// Work limits of the whole discovery *stage* — the budget `Pipeline::run`
/// hands to `LakeIndex::discover_all_budgeted`, covering every engine leg:
/// the planned joinable search (a per-query [`QueryBudget`]), the capped
/// SANTOS retrieval (a candidate cap), and — when the optional metadata
/// leg is enabled — the capped header-match retrieval (its own candidate
/// cap).
///
/// The default is *generous but finite*: interactive latency stays bounded
/// on type-dense or partition-heavy lakes, while small lakes never hit a
/// cap and behave exactly like the unbudgeted stage.
/// [`DiscoveryBudget::unlimited`] reproduces the legacy probe-all stage
/// byte-for-byte (order and tie-breaks included) — pinned by
/// `crates/core/tests/pipeline_oracle.rs`.
///
/// ```
/// use dialite_discovery::{DiscoveryBudget, QueryBudget};
///
/// // The default is finite on both legs...
/// let budget = DiscoveryBudget::default();
/// assert!(budget.santos_candidates < usize::MAX);
/// assert!(budget.joinable.max_partitions < usize::MAX);
///
/// // ...while `unlimited()` is the exact legacy probe-all stage.
/// let exact = DiscoveryBudget::unlimited();
/// assert_eq!(exact.joinable, QueryBudget::unlimited());
/// assert_eq!(exact.santos_candidates, usize::MAX);
/// assert_eq!(exact.metadata_candidates, usize::MAX);
///
/// // Budgets compose builder-style.
/// let tight = DiscoveryBudget {
///     metadata_candidates: 16,
///     ..DiscoveryBudget::default()
/// }
/// .with_santos_candidates(32)
/// .with_joinable(QueryBudget::unlimited().with_max_partitions(2));
/// assert_eq!(tight.santos_candidates, 32);
/// assert_eq!(tight.metadata_candidates, 16);
/// assert_eq!(tight.joinable.max_partitions, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryBudget {
    /// Per-query work limits of the planned joinable leg.
    pub joinable: QueryBudget,
    /// Maximum candidate tables the SANTOS leg scores per query. Typed
    /// queries retrieve best-bound-first from the type index; typeless
    /// (KB-poor) queries retrieve best-bound-first from the synthesized-
    /// signal posting index — `usize::MAX` keeps both exhaustive (see
    /// [`SantosDiscovery::discover_capped`](crate::SantosDiscovery::discover_capped)).
    pub santos_candidates: usize,
    /// Maximum candidate tables the optional metadata (header-match) leg
    /// scores per query — `usize::MAX` keeps it exhaustive (see
    /// [`MetadataDiscovery::discover_capped`](crate::MetadataDiscovery::discover_capped)).
    /// Ignored when the leg is disabled.
    pub metadata_candidates: usize,
}

impl Default for DiscoveryBudget {
    /// Generous finite caps: 64 partitions / 4096 verifications / 2²⁰
    /// scanned posting entries on the joinable leg, 128 scored SANTOS
    /// candidates, 128 scored metadata candidates.
    fn default() -> Self {
        DiscoveryBudget {
            joinable: QueryBudget {
                max_partitions: 64,
                max_verifications: 4096,
                postings: 1 << 20,
            },
            santos_candidates: 128,
            metadata_candidates: 128,
        }
    }
}

impl DiscoveryBudget {
    /// No caps anywhere: the stage output equals the legacy probe-all
    /// discovery exactly.
    pub fn unlimited() -> DiscoveryBudget {
        DiscoveryBudget {
            joinable: QueryBudget::unlimited(),
            santos_candidates: usize::MAX,
            metadata_candidates: usize::MAX,
        }
    }

    /// Replace the joinable-leg query budget.
    pub fn with_joinable(mut self, budget: QueryBudget) -> DiscoveryBudget {
        self.joinable = budget;
        self
    }

    /// Replace the SANTOS candidate cap.
    pub fn with_santos_candidates(mut self, cap: usize) -> DiscoveryBudget {
        self.santos_candidates = cap;
        self
    }

    /// The per-shard slice of this stage budget (see
    /// [`QueryBudget::split`]): every leg is divided by the shard count,
    /// rounding up, with unlimited caps preserved and `split(1)` the
    /// identity.
    ///
    /// ```
    /// use dialite_discovery::DiscoveryBudget;
    ///
    /// let budget = DiscoveryBudget::default(); // 64 / 4096 / 2²⁰ / 128 / 128
    /// assert_eq!(budget.split(1), budget);
    /// let per_shard = budget.split(4);
    /// assert_eq!(per_shard.joinable.max_partitions, 16);
    /// assert_eq!(per_shard.joinable.max_verifications, 1024);
    /// assert_eq!(per_shard.joinable.postings, 1 << 18);
    /// assert_eq!(per_shard.santos_candidates, 32);
    /// assert_eq!(per_shard.metadata_candidates, 32);
    /// assert_eq!(
    ///     DiscoveryBudget::unlimited().split(4),
    ///     DiscoveryBudget::unlimited()
    /// );
    /// ```
    pub fn split(&self, shards: usize) -> DiscoveryBudget {
        DiscoveryBudget {
            joinable: self.joinable.split(shards),
            santos_candidates: split_cap(self.santos_candidates, shards),
            metadata_candidates: split_cap(self.metadata_candidates, shards),
        }
    }
}

/// What one planned query actually did — the observability half of the
/// budget contract, returned by
/// [`LshEnsembleDiscovery::discover_top_k_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// The query was answered exactly via the posting-list merge; no
    /// sketch work (signature, partitions) happened at all.
    pub exact_path: bool,
    /// Partitions actually probed.
    pub partitions_probed: usize,
    /// Partitions skipped — below the threshold bound, beaten by the
    /// running top-k, or cut off by the budget.
    pub partitions_pruned: usize,
    /// Candidate domains whose containment was computed exactly — against
    /// stored token-id sets on the sketch path, or in the posting-list
    /// merge on the exact path.
    pub candidates_verified: usize,
    /// The optimality bound fired: remaining partitions provably could not
    /// change the top-k.
    pub terminated_early: bool,
    /// A budget cap cut the search short (results are best-effort).
    pub budget_exhausted: bool,
    /// Posting entries the postings budget left unscanned on the exact
    /// path. Always 0 on the sketch path.
    pub postings_skipped: usize,
}

impl LshEnsembleDiscovery {
    /// The top-`k` joinable tables for the query under a work budget —
    /// best-bound-first partition probing with early termination, and
    /// posting-list verification (full lifecycle in `ARCHITECTURE.md`) —
    /// plus the [`TopKStats`] describing what the search actually did
    /// (route, partitions pruned, early termination, budget exhaustion).
    /// `LakeIndex::discover_top_k` routes through here.
    ///
    /// ```
    /// use dialite_discovery::{LshEnsembleConfig, LshEnsembleDiscovery, QueryBudget, TableQuery};
    /// use dialite_table::fixtures;
    ///
    /// let lake = fixtures::covid_lake();
    /// let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
    ///
    /// // Paper §3.1: City is the query column; T3 joins on it.
    /// let query = TableQuery::with_column(fixtures::fig2_query(), 1);
    /// let (hits, _) = engine.discover_top_k_with_stats(&query, 3, &QueryBudget::unlimited());
    /// assert_eq!(hits[0].table, "T3");
    /// ```
    pub fn discover_top_k_with_stats(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &QueryBudget,
    ) -> (Vec<Discovered>, TopKStats) {
        let mut stats = TopKStats::default();
        let col = query.effective_column();
        if col >= query.table.column_count() || k == 0 {
            return (Vec::new(), stats);
        }
        let q_tokens = query.table.column_token_set(col);
        if q_tokens.is_empty() {
            return (Vec::new(), stats);
        }
        let q_len = q_tokens.len();
        let q_ids = self.query_token_ids(&q_tokens);
        let threshold = self.config.threshold;
        let exclude = query.table.name();

        // Light queries: answer exactly via the posting merge, no sketch
        // work at all — the same routing and merge the probe-all path
        // uses, so this search and probe-all cannot drift apart here.
        if self.routes_exact(&q_ids, q_len) {
            let (best, stats) = self.exact_discover(&q_ids, q_len, exclude, budget.postings);
            return (finish(best, k), stats);
        }

        let sig = self.hasher.signature(q_tokens.iter().map(String::as_str));
        let mut best: HashMap<&str, f64> = HashMap::new();
        let layout = self.layout();
        let plan = layout.probe_plan(q_len);
        let sign = |key: &DomainKey| self.sign(key);
        let mut remaining = plan.len();
        for probe in &plan {
            // Threshold bound: nothing in this (or any later, since the
            // plan is bound-descending) partition can verify ≥ threshold.
            if probe.max_containment + 1e-12 < threshold {
                stats.partitions_pruned += remaining;
                break;
            }
            // Optimality bound: the k-th best verified table score strictly
            // beats anything an unprobed partition could hold. `>` (not
            // `>=`) so score ties are still probed and name tie-breaking
            // matches the probe-all path exactly.
            if let Some(kth) = kth_best(&best, k) {
                if kth > probe.max_containment {
                    stats.partitions_pruned += remaining;
                    stats.terminated_early = true;
                    break;
                }
            }
            if stats.partitions_probed >= budget.max_partitions {
                stats.partitions_pruned += remaining;
                stats.budget_exhausted = true;
                break;
            }
            stats.partitions_probed += 1;
            remaining -= 1;

            // Partitions are disjoint: no candidate repeats across probes.
            let mut candidates =
                layout.query_partition(probe.partition, &sig, q_len, threshold, &sign);
            let verify_left = budget
                .max_verifications
                .saturating_sub(stats.candidates_verified);
            if candidates.len() > verify_left {
                candidates.truncate(verify_left);
                stats.budget_exhausted = true;
            }
            stats.candidates_verified +=
                self.verify_candidates(candidates, &q_ids, q_len, exclude, &mut best);
            if stats.budget_exhausted {
                stats.partitions_pruned += remaining;
                break;
            }
        }
        (finish(best, k), stats)
    }
}

/// The k-th best verified table score, once at least `k` tables scored —
/// what the partition schedule's optimality bound prunes against. `None`
/// at `k == 0`: there is no k-th score to prune against.
fn kth_best(best: &HashMap<&str, f64>, k: usize) -> Option<f64> {
    let i = k.checked_sub(1)?;
    if best.len() < k {
        return None;
    }
    let mut scores: Vec<f64> = best.values().copied().collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    scores.get(i).copied()
}

fn finish(best: HashMap<&str, f64>, k: usize) -> Vec<Discovered> {
    top_k(
        best.into_iter()
            .map(|(t, s)| Discovered {
                table: t.to_string(),
                score: s,
            })
            .collect(),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lshe::LshEnsembleConfig;
    use crate::types::Discovery;
    use dialite_table::{table, DataLake, Table, Value};

    /// A skewed lake: a handful of big superset tables, many small ones.
    fn skewed_lake(smalls: usize) -> (DataLake, TableQuery) {
        let mut lake = DataLake::new();
        let big_rows: Vec<Vec<Value>> = (0..120)
            .map(|i| vec![Value::Text(format!("tok{i}"))])
            .collect();
        lake.add(Table::from_rows("big_a", &["k"], big_rows.clone()).unwrap())
            .unwrap();
        lake.add(Table::from_rows("big_b", &["k"], big_rows[..100].to_vec()).unwrap())
            .unwrap();
        for s in 0..smalls {
            let rows: Vec<Vec<Value>> = (0..6)
                .map(|i| vec![Value::Text(format!("small{s}_{i}"))])
                .collect();
            lake.add(Table::from_rows(&format!("small{s}"), &["k"], rows).unwrap())
                .unwrap();
        }
        let q_rows: Vec<Vec<Value>> = (0..60)
            .map(|i| vec![Value::Text(format!("tok{i}"))])
            .collect();
        let q = TableQuery::with_column(Table::from_rows("q", &["k"], q_rows).unwrap(), 0);
        (lake, q)
    }

    /// Every query takes the sketch path: no posting mass is below 0.
    fn sketch_config() -> LshEnsembleConfig {
        LshEnsembleConfig {
            exact_mass_per_token: 0,
            ..LshEnsembleConfig::default()
        }
    }

    #[test]
    fn unbudgeted_planner_matches_probe_all_exactly() {
        let (lake, q) = skewed_lake(40);
        for (config, exact) in [
            (LshEnsembleConfig::default(), true),
            (sketch_config(), false),
        ] {
            let engine = LshEnsembleDiscovery::build(&lake, config);
            for k in [1, 2, 5, 50] {
                let (hits, stats) =
                    engine.discover_top_k_with_stats(&q, k, &QueryBudget::unlimited());
                assert_eq!(stats.exact_path, exact);
                assert_eq!(
                    hits,
                    engine.discover(&q, k),
                    "top-k search diverged from probe-all at k={k}"
                );
            }
        }
    }

    #[test]
    fn skew_prunes_partitions_via_threshold_and_optimality_bounds() {
        let (lake, q) = skewed_lake(60);
        let engine = LshEnsembleDiscovery::build(&lake, sketch_config());
        let (hits, stats) = engine.discover_top_k_with_stats(&q, 2, &QueryBudget::unlimited());
        assert!(!stats.exact_path);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].table, "big_a");
        assert!(
            stats.partitions_pruned > 0,
            "60 six-token tables vs a 60-token query must leave sub-threshold partitions: {stats:?}"
        );
        assert!(!stats.budget_exhausted);
        assert_eq!(
            stats.partitions_probed + stats.partitions_pruned,
            engine.layout().partition_count()
        );
    }

    #[test]
    fn budget_caps_partitions_and_results_stay_sound() {
        let (lake, q) = skewed_lake(40);
        let engine = LshEnsembleDiscovery::build(&lake, sketch_config());
        let budget = QueryBudget::unlimited().with_max_partitions(1);
        let (hits, stats) = engine.discover_top_k_with_stats(&q, 5, &budget);
        assert!(!stats.exact_path);
        assert!(stats.partitions_probed <= 1);
        assert!(stats.budget_exhausted || stats.terminated_early || stats.partitions_pruned > 0);
        // Sound: every reported score is a true containment ≥ threshold.
        for d in &hits {
            assert!(d.score >= engine.config.threshold - 1e-12, "{d:?}");
        }
        // A zero budget probes and verifies nothing: an empty answer, with
        // every partition pruned.
        let budget = budget.with_max_partitions(0).with_max_verifications(0);
        let (hits, stats) = engine.discover_top_k_with_stats(&q, 5, &budget);
        assert!(hits.is_empty(), "{hits:?}");
        assert!(stats.budget_exhausted);
        assert_eq!(stats.partitions_probed, 0);
        assert_eq!(stats.partitions_pruned, engine.layout().partition_count());
    }

    #[test]
    fn budget_caps_verifications() {
        let (lake, q) = skewed_lake(40);
        // Low threshold so many candidates surface.
        let engine = LshEnsembleDiscovery::build(
            &lake,
            LshEnsembleConfig {
                threshold: 0.05,
                ..sketch_config()
            },
        );
        let budget = QueryBudget::unlimited().with_max_verifications(1);
        let (_, stats) = engine.discover_top_k_with_stats(&q, 50, &budget);
        assert!(!stats.exact_path);
        assert!(stats.candidates_verified <= 1, "{stats:?}");
        assert!(stats.budget_exhausted, "{stats:?}");
    }

    #[test]
    fn small_queries_take_the_exact_posting_path() {
        let lake = DataLake::from_tables([
            table! { "t1"; ["k"]; ["a"], ["b"], ["c"] },
            table! { "t2"; ["k"]; ["a"], ["x"], ["y"] },
        ])
        .unwrap();
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = TableQuery::with_column(table! { "q"; ["k"]; ["a"], ["b"] }, 0);
        let (hits, stats) = engine.discover_top_k_with_stats(&q, 5, &QueryBudget::unlimited());
        assert!(stats.exact_path);
        assert_eq!(hits, engine.discover(&q, 5));
        assert_eq!(hits[0].table, "t1");
        assert!((hits[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raised_fallback_answers_mid_size_queries_exactly() {
        // With `exact_mass_per_token` at its maximum, the 60-token query
        // takes the exact posting merge whatever its mass — and must still
        // match the probe-all answer byte-for-byte.
        let (lake, q) = skewed_lake(40);
        let engine = LshEnsembleDiscovery::build(
            &lake,
            LshEnsembleConfig {
                exact_mass_per_token: usize::MAX,
                ..LshEnsembleConfig::default()
            },
        );
        for k in [1, 2, 5, 50] {
            let (hits, stats) = engine.discover_top_k_with_stats(&q, k, &QueryBudget::unlimited());
            assert!(stats.exact_path);
            assert_eq!(hits, engine.discover(&q, k), "k={k}");
        }
    }

    #[test]
    fn postings_budget_bounds_the_exact_path_and_is_reported() {
        let (lake, q) = skewed_lake(40);
        let engine = LshEnsembleDiscovery::build(
            &lake,
            LshEnsembleConfig {
                exact_mass_per_token: usize::MAX,
                ..LshEnsembleConfig::default()
            },
        );
        let budget = QueryBudget::unlimited().with_max_postings(0);
        let (hits, stats) = engine.discover_top_k_with_stats(&q, 5, &budget);
        assert!(stats.exact_path);
        assert!(stats.budget_exhausted, "{stats:?}");
        assert!(stats.postings_skipped > 0, "{stats:?}");
        assert!(hits.is_empty(), "nothing scanned, nothing reported");
    }

    #[test]
    fn empty_and_out_of_range_queries_are_empty() {
        let (lake, q) = skewed_lake(4);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        assert!(engine
            .discover_top_k_with_stats(&q, 0, &QueryBudget::unlimited())
            .0
            .is_empty());
        let empty_q = TableQuery::new(
            Table::from_rows("e", &["c"], vec![vec![Value::null_missing()]]).unwrap(),
        );
        assert!(engine
            .discover_top_k_with_stats(&empty_q, 5, &QueryBudget::unlimited())
            .0
            .is_empty());
    }
}
