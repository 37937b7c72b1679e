//! Sharded discovery: the storage/execution split over the [`LakeIndex`].
//!
//! One `LakeIndex` is a single-core monolith — one value token store read
//! by SANTOS and the joinable leg (metadata keeps its header store),
//! one SANTOS inverted index, one LSH ensemble, and (for writers) one
//! exclusive critical section per sync. At open-data-lake scale the
//! storage must be partitioned. This module splits the stack in two:
//!
//! * **Storage shards.** The lake's stable slot space is striped across
//!   N shards (`ShardScope`); each shard is a full [`LakeIndex`] scoped to
//!   its stripe (its own engines, pool, postings and telemetry window), maintained through the same incremental
//!   [`sync`](LakeIndex::sync) contract — replaying only the changelog
//!   events its stripe admits.
//! * **Execution layer.** A [`ShardedLakeIndex`] probes the shards in
//!   order on the caller's thread, hands every shard an even
//!   [`QueryBudget::split`] slice of the caller's budget, re-ranks the
//!   concatenated per-shard top-k with the one ordering rule
//!   ([`top_k_discovered`]), and merges per-shard telemetry with
//!   [`DiscoveryTelemetry::merge`]. Sharding buys write-lock granularity,
//!   not read speed: on a 2-CPU host a 2-shard query takes ≈ 1.3× as long
//!   as a 1-shard query over the same lake (benchmark `shard.fanout_ratio`),
//!   because bounded retrieval's per-query work does not halve with the
//!   stripe.
//!
//! Routing is **slot-striped** (`slot % shards`) rather than
//! hash-of-name: [`LakeEvent::Removed`](dialite_table::LakeEvent) carries
//! only the slot, so routing must be a pure function of the slot for
//! per-shard changelog replay to see its own removals. Slots are stable
//! for a table's whole residency, so a table never migrates between
//! shards while it lives.
//!
//! Contracts, pinned by `tests/shard_oracle.rs`:
//!
//! * `shards == 1` is byte-for-byte the single `LakeIndex` — the budget
//!   split is the identity and results pass through without a re-rank.
//! * Under the exact-verification config, every discovery surface
//!   (budgeted stage at any budget, planned top-k) returns byte-identical
//!   output for any shard count, because per-table scores are independent
//!   of co-resident tables and the stripes partition the lake exactly.
//! * Snapshot consistency: a concurrent query never observes some shards
//!   before and some after a sync. Fan-outs stamp each shard's version
//!   and retry on disagreement, falling back to the churn lock (shared
//!   with [`sync`](ShardedLakeIndex::sync)) after a bounded number of
//!   optimistic rounds.

use std::sync::{Arc, Mutex, RwLock};

use dialite_kb::KnowledgeBase;
use dialite_table::DataLake;

use crate::index::{LakeIndex, LakeIndexConfig};
use crate::telemetry::DiscoveryTelemetry;
use crate::topk::{DiscoveryBudget, QueryBudget};
use crate::types::{top_k_discovered, Discovered, TableQuery};

/// Optimistic consistent-snapshot rounds before a fan-out falls back to
/// serializing against [`ShardedLakeIndex::sync`] on the churn lock.
const CONSISTENT_RETRIES: usize = 8;

/// One shard's slice of the lake's slot space: shard `shard` of `of`
/// [`admits`](ShardScope::admits) exactly the slots congruent to it
/// modulo `of`. [`ShardScope::all`] (`0 of 1`) admits every slot and
/// makes scoped builds identical to unscoped ones.
///
/// Routing is a pure function of the slot (`slot % of`), so changelog
/// events, which for removals carry only the slot, reach the same stripe
/// as the live entries they concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardScope {
    shard: u32,
    of: u32,
}

impl ShardScope {
    /// The whole-lake scope: shard 0 of 1, admitting every slot.
    pub(crate) fn all() -> ShardScope {
        ShardScope { shard: 0, of: 1 }
    }

    /// The `shards` stripes of the slot space in shard order; a count of
    /// 0 is clamped to 1.
    pub(crate) fn stripes(shards: usize) -> impl Iterator<Item = ShardScope> {
        let of = u32::try_from(shards.max(1)).expect("shard count fits in u32");
        (0..of).map(move |shard| ShardScope { shard, of })
    }

    /// Which shard this scope is (`< of`).
    pub(crate) fn shard(&self) -> u32 {
        self.shard
    }

    /// Total shard count the stripe was cut from (`>= 1`).
    pub(crate) fn of(&self) -> u32 {
        self.of
    }

    /// `true` when the slot belongs to this scope's stripe. The stripes
    /// of one shard count partition the slot space: every slot is
    /// admitted by exactly one of them.
    pub(crate) fn admits(&self, slot: u32) -> bool {
        slot % self.of == self.shard
    }
}

impl Default for ShardScope {
    fn default() -> Self {
        ShardScope::all()
    }
}

/// The execution layer over N storage shards: probes the per-shard
/// [`LakeIndex`]es in shard order on the caller's thread, merges
/// per-shard top-k with the one ordering rule, and merges per-shard
/// telemetry windows (routing and consistency invariants are laid out in
/// the module-level docs).
///
/// Writers go through [`sync`](ShardedLakeIndex::sync), which holds the
/// churn lock and write-locks **one shard at a time** — concurrent
/// queries keep flowing on every shard not currently being updated, and
/// the version-stamped fan-out keeps their snapshots consistent.
///
/// ```
/// use std::sync::Arc;
/// use dialite_discovery::{
///     DiscoveryBudget, LakeIndexConfig, ShardedLakeIndex, TableQuery,
/// };
/// use dialite_kb::curated::covid_kb;
/// use dialite_table::fixtures;
///
/// let mut lake = fixtures::covid_lake();
/// let index =
///     ShardedLakeIndex::build(&lake, Arc::new(covid_kb()), LakeIndexConfig::default(), 4);
/// assert_eq!(index.shard_count(), 4);
///
/// // The lake churns; one sync catches every shard up.
/// lake.remove("animals").unwrap();
/// index.sync(&lake);
/// assert!(index.is_current(&lake));
///
/// let query = TableQuery::with_column(fixtures::fig2_query(), 1); // City
/// let legs = index.discover_all_budgeted(&query, 5, &DiscoveryBudget::default());
/// assert!(legs[1].1.iter().any(|d| d.table == "T3"));
/// ```
pub struct ShardedLakeIndex {
    /// One scoped [`LakeIndex`] per stripe. Shard locks are only ever
    /// taken after the churn lock (never the reverse), so the order is
    /// acyclic.
    pub(crate) shards: Vec<RwLock<LakeIndex>>,
    /// Serializes [`sync`](ShardedLakeIndex::sync) runs against each
    /// other and against the consistent-snapshot fallback of queries that
    /// keep losing the optimistic version race.
    churn: Mutex<()>,
}

impl ShardedLakeIndex {
    /// Build `shards` scoped indexes over the lake's current state (a
    /// count of 0 is clamped to 1).
    pub fn build(
        lake: &DataLake,
        kb: Arc<KnowledgeBase>,
        config: LakeIndexConfig,
        shards: usize,
    ) -> ShardedLakeIndex {
        let shards = ShardScope::stripes(shards)
            .map(|scope| {
                RwLock::new(LakeIndex::build_scoped(
                    lake,
                    kb.clone(),
                    config.clone(),
                    scope,
                ))
            })
            .collect();
        ShardedLakeIndex {
            shards,
            churn: Mutex::new(()),
        }
    }

    /// Total MinHash signatures computed across all shards: 0 after a
    /// build or a sync, grown only by sketch-route queries.
    pub fn sketch_work(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock").sketch_work())
            .sum()
    }

    /// Number of storage shards the lake is striped across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The knowledge base every shard's SANTOS engine annotates with.
    pub fn kb(&self) -> Arc<KnowledgeBase> {
        self.shards[0].read().expect("shard lock").kb()
    }

    /// The configuration every shard was built with (owned: the borrow
    /// cannot outlive the shard lock).
    pub fn config(&self) -> LakeIndexConfig {
        self.shards[0].read().expect("shard lock").config().clone()
    }

    /// The lake version the shards reflect. Taken under the churn lock,
    /// so mid-sync states (where stripes disagree) are never observed.
    pub(crate) fn version(&self) -> u64 {
        let _churn = self.churn.lock().expect("churn lock");
        self.shards[0].read().expect("shard lock").version()
    }

    /// `true` when every shard reflects the lake's current version.
    pub fn is_current(&self, lake: &DataLake) -> bool {
        self.version() == lake.version()
    }

    /// Catch every shard up with the lake — each shard replays the
    /// changelog filtered to its own stripe (or rebuilds its stripe when
    /// the delta is unserviceable), per the [`LakeIndex::sync`] contract.
    /// Holds the churn lock for the whole pass but write-locks one shard
    /// at a time, so queries keep flowing on the other shards.
    pub fn sync(&self, lake: &DataLake) {
        let _churn = self.churn.lock().expect("churn lock");
        for shard in &self.shards {
            shard.write().expect("shard lock").sync(lake);
        }
    }

    /// Run `f` against every shard, one after another on the caller's
    /// thread, and collect `(version, result)` pairs in shard order.
    /// Inline on purpose: a thread spawn and join costs more than a
    /// typical shard probe (≈ 0.1 ms), so concurrency comes from
    /// concurrent callers, not from inside one query.
    fn fan_out<R>(&self, f: &impl Fn(&LakeIndex) -> R) -> Vec<(u64, R)> {
        self.shards
            .iter()
            .map(|shard| {
                let guard = shard.read().expect("shard lock");
                (guard.version(), f(&guard))
            })
            .collect()
    }

    /// [`fan_out`](Self::fan_out) with snapshot consistency: accept a
    /// round only when every shard reported the same version (all-equal
    /// versions imply one fully synced state — mid-sync, caught-up and
    /// lagging stripes disagree). After [`CONSISTENT_RETRIES`] losing
    /// races, serialize against sync on the churn lock instead.
    fn fan_out_consistent<R>(&self, f: &impl Fn(&LakeIndex) -> R) -> (u64, Vec<R>) {
        let unzip = |rounds: Vec<(u64, R)>| {
            let version = rounds[0].0;
            (version, rounds.into_iter().map(|(_, r)| r).collect())
        };
        for _ in 0..CONSISTENT_RETRIES {
            let rounds = self.fan_out(f);
            if rounds.iter().all(|(v, _)| *v == rounds[0].0) {
                return unzip(rounds);
            }
        }
        let _churn = self.churn.lock().expect("churn lock");
        unzip(self.fan_out(f))
    }

    /// Concatenate per-shard engine legs and re-rank each leg with the
    /// one ordering rule. A single shard's legs pass through untouched —
    /// the `shards == 1` byte-for-byte contract.
    fn merge_legs(
        mut per_shard: Vec<Vec<(String, Vec<Discovered>)>>,
        k: usize,
    ) -> Vec<(String, Vec<Discovered>)> {
        let mut merged = per_shard.remove(0);
        if per_shard.is_empty() {
            return merged;
        }
        for legs in per_shard {
            for ((_, acc), (_, hits)) in merged.iter_mut().zip(legs) {
                acc.extend(hits);
            }
        }
        for (_, acc) in &mut merged {
            *acc = top_k_discovered(std::mem::take(acc), k);
        }
        merged
    }

    /// The budgeted discovery stage fanned out across the shards — the
    /// sharded form of [`LakeIndex::discover_all_budgeted`]. Each shard
    /// works under an even [`DiscoveryBudget::split`] slice and folds its
    /// own stats into its own telemetry window.
    pub fn discover_all_budgeted(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &DiscoveryBudget,
    ) -> Vec<(String, Vec<Discovered>)> {
        self.discover_all_budgeted_versioned(query, k, budget).1
    }

    /// [`discover_all_budgeted`](Self::discover_all_budgeted) plus the
    /// lake version the consistent snapshot was taken at — what a serving
    /// layer needs to stamp responses without holding any lake lock.
    pub(crate) fn discover_all_budgeted_versioned(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &DiscoveryBudget,
    ) -> (u64, Vec<(String, Vec<Discovered>)>) {
        let split = budget.split(self.shards.len());
        let (version, per_shard) =
            self.fan_out_consistent(&|ix: &LakeIndex| ix.discover_all_budgeted(query, k, &split));
        (version, Self::merge_legs(per_shard, k))
    }

    /// Budgeted top-k joinable search fanned out across the shards — the
    /// sharded form of [`LakeIndex::discover_top_k`], with the
    /// [`QueryBudget`] split evenly per shard.
    pub fn discover_top_k(
        &self,
        query: &TableQuery,
        k: usize,
        budget: &QueryBudget,
    ) -> Vec<Discovered> {
        let split = budget.split(self.shards.len());
        let (_, mut per_shard) =
            self.fan_out_consistent(&|ix: &LakeIndex| ix.discover_top_k(query, k, &split));
        if per_shard.len() == 1 {
            return per_shard.remove(0);
        }
        top_k_discovered(per_shard.into_iter().flatten().collect(), k)
    }

    /// The merged telemetry window: per-shard [`DiscoveryTelemetry`]
    /// snapshots folded with [`DiscoveryTelemetry::merge`]. Counters are
    /// exactly the sums of [`telemetry_per_shard`](Self::telemetry_per_shard).
    pub fn telemetry(&self) -> DiscoveryTelemetry {
        let mut merged = DiscoveryTelemetry::default();
        for window in self.telemetry_per_shard() {
            merged.merge(&window);
        }
        merged
    }

    /// Each shard's own telemetry window, in shard order — the
    /// per-stripe work breakdown.
    pub fn telemetry_per_shard(&self) -> Vec<DiscoveryTelemetry> {
        self.shards
            .iter()
            .map(|shard| shard.read().expect("shard lock").telemetry())
            .collect()
    }

    /// Zero every shard's telemetry window.
    pub fn reset_telemetry(&self) {
        for shard in &self.shards {
            shard.read().expect("shard lock").reset_telemetry();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_kb::curated::covid_kb;
    use dialite_table::table;

    fn lake_of(n: usize) -> DataLake {
        DataLake::from_tables((0..n).map(|i| {
            table! {
                &format!("t{i:02}"); ["city", "rate"];
                [format!("city_{}", i % 5), i as i64],
                [format!("city_{}", (i + 1) % 5), (i + 1) as i64],
            }
        }))
        .unwrap()
    }

    #[test]
    fn scopes_partition_the_slot_space() {
        for of in [1u32, 2, 3, 8] {
            let stripes: Vec<ShardScope> = ShardScope::stripes(of as usize).collect();
            for slot in 0..64 {
                let owners = stripes.iter().filter(|s| s.admits(slot)).count();
                assert_eq!(owners, 1, "slot {slot} must have exactly one owner");
            }
        }
    }

    /// Stripe `i` of `n` is shard `i` of `n` and owns exactly the slots
    /// `≡ i (mod n)`: slot 6 of four stripes lands in stripe 2.
    #[test]
    fn stripes_route_each_slot_to_its_residue_in_shard_order() {
        let stripes: Vec<ShardScope> = ShardScope::stripes(4).collect();
        assert_eq!(stripes.len(), 4);
        for (i, scope) in stripes.iter().enumerate() {
            assert_eq!((scope.shard(), scope.of()), (i as u32, 4));
        }
        assert!(stripes[2].admits(6));
        for slot in 0..32 {
            let owners: Vec<u32> = stripes
                .iter()
                .filter(|s| s.admits(slot))
                .map(|s| s.shard())
                .collect();
            assert_eq!(owners, vec![slot % 4], "slot {slot} must have one owner");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(
            ShardScope::stripes(0).collect::<Vec<_>>(),
            vec![ShardScope::all()]
        );
        let index = ShardedLakeIndex::build(
            &lake_of(3),
            Arc::new(covid_kb()),
            LakeIndexConfig::default(),
            0,
        );
        assert_eq!(index.shard_count(), 1);
    }

    #[test]
    fn scoped_build_covers_exactly_the_stripe() {
        let lake = lake_of(10);
        let kb = Arc::new(covid_kb());
        let index = ShardedLakeIndex::build(&lake, kb, LakeIndexConfig::default(), 4);
        let per_shard: usize = index
            .shards
            .iter()
            .map(|s| s.read().unwrap().santos().len())
            .sum();
        assert_eq!(per_shard, lake.len(), "stripes must partition the lake");
    }

    #[test]
    fn sync_catches_every_shard_up() {
        let mut lake = lake_of(8);
        let kb = Arc::new(covid_kb());
        let index = ShardedLakeIndex::build(&lake, kb, LakeIndexConfig::default(), 3);
        lake.add(table! { "fresh"; ["city"]; ["city_0"], ["city_9"] })
            .unwrap();
        lake.remove("t03").unwrap();
        index.sync(&lake);
        assert!(index.is_current(&lake));
        let total: usize = index
            .shards
            .iter()
            .map(|s| s.read().unwrap().santos().len())
            .sum();
        assert_eq!(total, lake.len());
    }

    #[test]
    fn fan_out_probes_every_shard_on_the_callers_thread() {
        let index = ShardedLakeIndex::build(
            &lake_of(9),
            Arc::new(covid_kb()),
            LakeIndexConfig::default(),
            3,
        );
        let caller = std::thread::current().id();
        let probes = index.fan_out(&|_: &LakeIndex| std::thread::current().id());
        assert_eq!(probes.len(), 3);
        assert!(probes.iter().all(|(_, id)| *id == caller), "{probes:?}");
    }

    #[test]
    fn typeless_full_scan_work_splits_by_stripe() {
        // At an unlimited budget a KB-typeless query takes SANTOS's full
        // scan, which scores every table its shard owns: per-shard work is
        // the stripe, so it falls linearly with the shard count.
        let lake = lake_of(12);
        let kb = Arc::new(covid_kb());
        let query = TableQuery::with_column(table! { "q"; ["city"]; ["city_0"], ["city_1"] }, 0);
        let budget = DiscoveryBudget::unlimited();
        let single = ShardedLakeIndex::build(&lake, kb.clone(), LakeIndexConfig::default(), 1);
        let _ = single.discover_all_budgeted(&query, 5, &budget);
        let whole = single.telemetry().santos;
        assert_eq!(whole.full_scans, 1, "the query must be typeless");
        assert_eq!(whole.candidates_scored, lake.len() as u64);
        for shards in [2usize, 3, 4] {
            let index =
                ShardedLakeIndex::build(&lake, kb.clone(), LakeIndexConfig::default(), shards);
            let _ = index.discover_all_budgeted(&query, 5, &budget);
            let scored: Vec<u64> = index
                .telemetry_per_shard()
                .iter()
                .map(|w| w.santos.candidates_scored)
                .collect();
            assert_eq!(
                scored,
                vec![whole.candidates_scored / shards as u64; shards]
            );
        }
    }

    #[test]
    fn merged_telemetry_is_the_sum_of_shards() {
        let lake = lake_of(12);
        let kb = Arc::new(covid_kb());
        let index = ShardedLakeIndex::build(&lake, kb, LakeIndexConfig::default(), 4);
        let query = TableQuery::with_column(
            table! { "q"; ["city"]; ["city_0"], ["city_1"], ["city_2"] },
            0,
        );
        for _ in 0..3 {
            let _ = index.discover_all_budgeted(&query, 5, &DiscoveryBudget::default());
        }
        let merged = index.telemetry();
        let mut folded = DiscoveryTelemetry::default();
        for window in index.telemetry_per_shard() {
            folded.merge(&window);
        }
        assert_eq!(merged.topk, folded.topk);
        assert_eq!(merged.santos, folded.santos);
        // Every shard saw every fan-out.
        assert_eq!(merged.topk.queries, 3 * 4);
        index.reset_telemetry();
        assert_eq!(index.telemetry(), DiscoveryTelemetry::default());
    }
}
