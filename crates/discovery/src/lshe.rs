//! Joinable-table search over the LSH Ensemble containment index, with
//! exact verification of candidates — the discovery backend the demo drives
//! through `datasketch` (paper §2.1, §3.1).
//!
//! Column domains are identified by `(table slot, col)` pairs — the stable
//! slot indices of the mutable [`DataLake`] — and stored as sorted
//! token-**id** runs in a value [`TokenPostings`], so verification merges
//! `u32` runs ([`intersect_count`]) instead of re-hashing strings, and
//! table names never need to be embedded in (collision-prone) composite
//! string keys. A standalone engine owns its store; a `LakeIndex` keeps
//! one value store per shard, read by SANTOS and the joinable leg.
//!
//! Alongside the sketch index the store keeps **exact token posting
//! lists** (token id → the `(slot, col)` domains containing it). **Exact
//! first:** a query whose posting mass `Σ |posting(t)|` is below
//! [`LshEnsembleConfig::exact_mass_per_token`]` × |Q|` skips the sketch
//! and is answered by one budgeted merge over its posting lists
//! ([`LshEnsembleDiscovery::exact_discover`]); the probe-all `discover`
//! and the budgeted
//! [`discover_top_k_with_stats`](LshEnsembleDiscovery::discover_top_k_with_stats)
//! share that routing and that merge. **The sketch is a function of the
//! store:** only a heavier query takes the sketch, and the first such
//! query lays the ensemble out over the store's live domains — keys and
//! run lengths, nothing hashed — and a partition's first probe signs its
//! domains by hashing their token strings straight from the store
//! (`LshEnsembleDiscovery::sign`). Building and upserting hash nothing,
//! and no signature outlives the layout it was computed for.
//!
//! The engine is incrementally maintainable: [`LshEnsembleDiscovery::
//! upsert_table`] / [`LshEnsembleDiscovery::remove_table`] apply one
//! table's worth of work to the store (intern its tokens, retire its dead
//! domain keys and postings) instead of rebuilding over the whole lake —
//! `LakeIndex` drives these from the lake changelog — and drop the layout,
//! so the next sketch query lays out the store as it is then. A synced
//! engine therefore answers every query, on either route, exactly like a
//! fresh build over the same lake. The store reclaims removed tables'
//! tokens by pool compaction once the retired token weight overtakes the
//! live weight (and [`LshEnsembleConfig::pool_compact_min`]), so
//! long-churn memory stays bounded.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use dialite_minhash::{LshEnsemble, LshEnsembleBuilder, MinHasher, Signature};
use dialite_table::{DataLake, Table};

use crate::pool::intersect_count;
use crate::retrieval::{column_token_sets, DomainKey, SlotTable, TokenPostings, POOL_COMPACT_MIN};
use crate::shard::ShardScope;
use crate::topk::TopKStats;
use crate::types::{top_k, Discovered, Discovery, TableQuery};

/// Configuration of the joinable search.
#[derive(Debug, Clone)]
pub struct LshEnsembleConfig {
    /// MinHash permutations (signature length).
    pub num_perm: usize,
    /// Size partitions of the ensemble.
    pub num_partitions: usize,
    /// Containment threshold a candidate column must (probabilistically)
    /// exceed to be retrieved, and (exactly) to be reported.
    pub threshold: f64,
    /// Seed for the hash family.
    pub seed: u64,
    /// The routing line between the exact merge and the sketch, in posting
    /// entries per query token. A query whose posting mass — `Σ
    /// |posting(t)|` over its tokens, read from the store in `O(|Q|)` — is
    /// below `exact_mass_per_token × |Q|` (saturating) is answered by the
    /// exact posting merge, any other through the sketch index. The
    /// default is the default `num_perm`: below that line merging the
    /// query's lists costs less than hashing its own signature, and the
    /// answer is exact. `0` sends every query to the sketch and
    /// `usize::MAX` every query to the merge.
    pub exact_mass_per_token: usize,
    /// Floor on the retired-token weight before a mutation may trigger
    /// pool compaction; keeps tiny lakes from compacting on every remove.
    /// In a `LakeIndex` it floors the shard's shared value store.
    pub pool_compact_min: usize,
}

impl Default for LshEnsembleConfig {
    fn default() -> Self {
        LshEnsembleConfig {
            num_perm: 256,
            num_partitions: 8,
            threshold: 0.5,
            seed: 0x1517,
            exact_mass_per_token: 256,
            pool_compact_min: POOL_COMPACT_MIN,
        }
    }
}

/// Joinable-table discovery: find lake tables with a column whose domain
/// contains (most of) the query column's domain.
pub struct LshEnsembleDiscovery {
    pub(crate) config: LshEnsembleConfig,
    pub(crate) hasher: MinHasher,
    /// The sketch's layout over the store's live domains: laid out by the
    /// first sketch-route probe ([`Self::layout`]), dropped by every
    /// mutation.
    pub(crate) layout: OnceLock<LshEnsemble<DomainKey>>,
    /// Lake table names by slot index (live tables only).
    pub(crate) table_names: SlotTable<String>,
    /// Every column's sorted token-id run, for exact verification, and the
    /// exact posting lists over them. Maintained through every
    /// upsert/remove; in a `LakeIndex` shard, the store SANTOS reads too.
    pub(crate) tokens: Arc<TokenPostings>,
}

impl LshEnsembleDiscovery {
    /// Index every column of every lake table.
    pub fn build(lake: &DataLake, config: LshEnsembleConfig) -> LshEnsembleDiscovery {
        LshEnsembleDiscovery::build_scoped(lake, config, ShardScope::all())
    }

    /// Index one shard's stripe of the lake (the slots `scope`
    /// [`admits`](ShardScope::admits)): the shard's token store is
    /// computed over the stripe alone, exactly as
    /// [`LshEnsembleDiscovery::build`] computes it over the whole lake.
    /// [`ShardScope::all`] reproduces the unscoped build.
    ///
    /// The build lays out no ensemble and hashes nothing: the first
    /// sketch-route query lays the ensemble out over the store, and a
    /// domain's MinHash signature is computed by the first sketch probe of
    /// its partition, from its run in the store.
    pub(crate) fn build_scoped(
        lake: &DataLake,
        config: LshEnsembleConfig,
        scope: ShardScope,
    ) -> LshEnsembleDiscovery {
        LshEnsembleDiscovery::build_feeding(lake, config, scope, |_, _, _| {})
    }

    /// [`build_scoped`](Self::build_scoped), also handing each table's
    /// column token sets to `each`: the one build pass, shared by a shard.
    pub(crate) fn build_feeding(
        lake: &DataLake,
        config: LshEnsembleConfig,
        scope: ShardScope,
        mut each: impl FnMut(u32, &Table, &[HashSet<String>]),
    ) -> LshEnsembleDiscovery {
        let mut table_names = SlotTable::new(scope);
        let mut tokens = TokenPostings::new(config.pool_compact_min, scope);
        for (t, table) in lake.entries_routed(scope.shard(), scope.of()) {
            table_names.insert(t, table.name().to_string());
            let columns = column_token_sets(table);
            tokens.insert(t, &columns);
            each(t, table, &columns);
        }
        let hasher = MinHasher::new(config.num_perm, config.seed);
        LshEnsembleDiscovery {
            config,
            hasher,
            layout: OnceLock::new(),
            table_names,
            tokens: Arc::new(tokens),
        }
    }

    /// MinHash signatures computed by this engine's hash family so far:
    /// sketch-path query columns, and domains signed by a partition's
    /// first probe. The build and upserts compute none.
    pub fn sketch_work(&self) -> u64 {
        self.hasher.signatures_computed()
    }

    /// Index (or re-index) one table under its lake slot. `O(table)`;
    /// drops the sketch layout.
    pub fn upsert_table(&mut self, slot: u32, table: &Table) {
        self.remove_table(slot);
        let columns = column_token_sets(table);
        self.table_names.insert(slot, table.name().to_string());
        Arc::make_mut(&mut self.tokens).insert(slot, &columns);
    }

    /// Retire every domain of the table occupying a lake slot.
    /// `O(columns of that table + their postings)`; drops the sketch
    /// layout.
    pub fn remove_table(&mut self, slot: u32) {
        self.layout.take();
        self.table_names.remove(slot);
        Arc::make_mut(&mut self.tokens).remove(slot);
    }

    /// The ensemble over the store's live domains, laid out by the first
    /// call since the last mutation: one `(key, run length)` entry per
    /// domain, partitioned by size and signed by nothing. Concurrent first
    /// calls block on one layout. The layout depends on the store's
    /// domains alone, so it equals a fresh build's over the same lake.
    pub(crate) fn layout(&self) -> &LshEnsemble<DomainKey> {
        self.layout.get_or_init(|| {
            let mut builder = LshEnsembleBuilder::new(self.config.num_perm);
            for key in self.tokens.domains() {
                builder.insert(key, self.tokens.run(key).map_or(0, <[u32]>::len));
            }
            builder.build(self.config.num_partitions)
        })
    }

    /// The MinHash signature of an indexed domain, hashed from its token
    /// strings in the store: the signer every sketch probe hands the
    /// ensemble. MinHash takes an order-free minimum, so it equals the
    /// signature of the column's token set bit for bit. `None` for a
    /// domain the store does not hold.
    pub(crate) fn sign(&self, key: &DomainKey) -> Option<Signature> {
        let run = self.tokens.run(*key)?;
        Some(
            self.hasher
                .signature(run.iter().map(|&id| self.tokens.token(id))),
        )
    }

    /// Whether a query takes the exact posting merge rather than the
    /// sketch: its posting mass is below
    /// [`LshEnsembleConfig::exact_mass_per_token`]` × q_len`. The probe-all
    /// `discover` and the budgeted top-k search both route through here,
    /// so an unlimited budget answers exactly like the probe-all path.
    pub(crate) fn routes_exact(&self, q_ids: &[u32], q_len: usize) -> bool {
        let line = self.config.exact_mass_per_token.saturating_mul(q_len);
        self.tokens.posting_mass(q_ids) < line
    }

    /// Number of distinct tokens currently interned (live + not-yet-
    /// compacted dead weight).
    pub fn pool_len(&self) -> usize {
        self.tokens.pool_len()
    }

    /// `(distinct tokens with postings, total posting entries)` — the
    /// latter always equals the summed live domain sizes, an invariant the
    /// incremental oracle pins under churn.
    pub fn posting_stats(&self) -> (usize, usize) {
        self.tokens.posting_stats()
    }

    /// Resolve the query's tokens through the store into a sorted run.
    /// Tokens the pool has never seen occur in no domain and drop out (the
    /// containment denominator stays the full query size).
    pub(crate) fn query_token_ids(&self, q_tokens: &HashSet<String>) -> Vec<u32> {
        self.tokens.resolve(q_tokens).ids
    }

    /// The exact (sketch-free) answer for light queries: one posting merge
    /// that accumulates `|Q ∩ X|` for every domain sharing a token with
    /// the query. Lists are merged cheapest first, keyed `(length, token
    /// id)` so the order is deterministic, and the merge stops before a
    /// list would take the scanned entries past `max_postings`. A complete
    /// merge folds its overlaps as they are; a merge the budget cut sends
    /// the domains it saw through [`Self::verify_candidates`], so budgeted
    /// output is a sound subset at exact scores. A non-positive threshold
    /// admits zero-overlap domains, which postings cannot see, so that
    /// case scans every domain instead, exempt from the budget.
    ///
    /// Both the probe-all `discover` and the budgeted top-k search call
    /// this one helper, so their exact answers cannot drift apart.
    pub(crate) fn exact_discover<'a>(
        &'a self,
        q_ids: &[u32],
        q_len: usize,
        exclude_table: &str,
        max_postings: usize,
    ) -> (HashMap<&'a str, f64>, TopKStats) {
        let mut stats = TopKStats {
            exact_path: true,
            ..TopKStats::default()
        };
        let mut best = HashMap::new();
        if self.config.threshold <= 0.0 {
            stats.candidates_verified = self.verify_candidates(
                self.tokens.domains(),
                q_ids,
                q_len,
                exclude_table,
                &mut best,
            );
            return (best, stats);
        }
        let mut lists: Vec<(u32, &[DomainKey])> = q_ids
            .iter()
            .filter_map(|&id| self.tokens.posting(id).map(|list| (id, list)))
            .collect();
        lists.sort_unstable_by_key(|(id, list)| (list.len(), *id));
        // The merged lists' keys, sorted: each domain's run of equal keys
        // is its overlap `|Q ∩ X|` (a query token id appears once per list
        // and once per domain run).
        let mut keys: Vec<DomainKey> = Vec::new();
        let mut merged = 0usize;
        for (_, list) in &lists {
            if keys.len() + list.len() > max_postings {
                break;
            }
            keys.extend_from_slice(list);
            merged += 1;
        }
        keys.sort_unstable();
        if merged == lists.len() {
            for run in keys.chunk_by(|a, b| a == b) {
                stats.candidates_verified += 1;
                let hits = run.len();
                self.fold_best(run[0], hits as f64 / q_len as f64, exclude_table, &mut best);
            }
        } else {
            stats.budget_exhausted = true;
            stats.postings_skipped = lists[merged..].iter().map(|(_, list)| list.len()).sum();
            keys.dedup();
            stats.candidates_verified =
                self.verify_candidates(keys, q_ids, q_len, exclude_table, &mut best);
        }
        (best, stats)
    }

    /// Verify candidate domains exactly against their stored token-id runs,
    /// folding each verified containment `|Q ∩ X| / |Q|` into the
    /// per-table best map with [`Self::fold_best`].
    pub(crate) fn verify_candidates<'a, I: IntoIterator<Item = DomainKey>>(
        &'a self,
        candidates: I,
        q_ids: &[u32],
        q_len: usize,
        exclude_table: &str,
        best: &mut HashMap<&'a str, f64>,
    ) -> usize {
        let mut verified = 0usize;
        for key in candidates {
            let Some(domain) = self.tokens.run(key) else {
                continue;
            };
            verified += 1;
            let hits = intersect_count(q_ids, domain);
            self.fold_best(key, hits as f64 / q_len as f64, exclude_table, best);
        }
        verified
    }

    /// Fold one exactly computed containment `c` of domain `key` into the
    /// per-table best map — the one reporting filter every exact path
    /// applies: `c` must reach the threshold (so LSH false positives drop
    /// out), the table must be live, and the query's own table is never
    /// reported.
    pub(crate) fn fold_best<'a>(
        &'a self,
        key: DomainKey,
        c: f64,
        exclude_table: &str,
        best: &mut HashMap<&'a str, f64>,
    ) {
        if c + 1e-12 < self.config.threshold {
            return;
        }
        let Some(table) = self.table_names.get(key.0) else {
            return;
        };
        if table == exclude_table {
            return;
        }
        let entry = best.entry(table.as_str()).or_insert(0.0);
        if c > *entry {
            *entry = c;
        }
    }
}

impl Discovery for LshEnsembleDiscovery {
    fn name(&self) -> &str {
        "lsh-ensemble"
    }

    fn discover(&self, query: &TableQuery, k: usize) -> Vec<Discovered> {
        let col = query.effective_column();
        if col >= query.table.column_count() || k == 0 {
            return Vec::new();
        }
        let q_tokens = query.table.column_token_set(col);
        if q_tokens.is_empty() {
            return Vec::new();
        }
        let q_ids = self.query_token_ids(&q_tokens);
        let q_len = q_tokens.len();
        let exclude = query.table.name();

        let best_per_table: HashMap<&str, f64> = if self.routes_exact(&q_ids, q_len) {
            self.exact_discover(&q_ids, q_len, exclude, usize::MAX).0
        } else {
            let sig = self.hasher.signature(q_tokens.iter().map(String::as_str));
            let sign = |key: &DomainKey| self.sign(key);
            let cands = self
                .layout()
                .query(&sig, q_len, self.config.threshold, &sign);
            let mut best = HashMap::new();
            self.verify_candidates(cands, &q_ids, q_len, exclude, &mut best);
            best
        };

        let scored = best_per_table
            .into_iter()
            .map(|(t, s)| Discovered {
                table: t.to_string(),
                score: s,
            })
            .collect();
        top_k(scored, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::{table, Table, Value};

    /// Number of column domains the engine's token store indexes.
    fn indexed_domains(engine: &LshEnsembleDiscovery) -> usize {
        engine.tokens.domains().count()
    }

    fn city_table(name: &str, extra: &[&str]) -> Table {
        let mut rows: Vec<Vec<Value>> = ["berlin", "barcelona", "boston", "new delhi"]
            .iter()
            .map(|c| vec![(*c).into(), 1i64.into()])
            .collect();
        for e in extra {
            rows.push(vec![(*e).into(), 2i64.into()]);
        }
        Table::from_rows(name, &["city", "v"], rows).unwrap()
    }

    fn demo_lake() -> DataLake {
        let joinable = city_table("cases_by_city", &["madrid", "mumbai"]);
        let partial = table! {
            "partial"; ["place", "x"];
            ["berlin", 1], ["barcelona", 1], ["boston", 1],
            ["zzz1", 1], ["zzz2", 1],
        };
        let noise = table! {
            "noise"; ["animal", "n"];
            ["cat", 1], ["dog", 2], ["emu", 3],
        };
        DataLake::from_tables([joinable, partial, noise]).unwrap()
    }

    fn query() -> TableQuery {
        TableQuery::with_column(
            table! {
                "Q"; ["City", "Rate"];
                ["Berlin", 0.63],
                ["Barcelona", 0.82],
                ["Boston", 0.62],
                ["New Delhi", 0.55],
                ["Madrid", 0.71],
            },
            0,
        )
    }

    /// The default config with every query routed to the sketch.
    fn sketch_config() -> LshEnsembleConfig {
        LshEnsembleConfig {
            exact_mass_per_token: 0,
            ..LshEnsembleConfig::default()
        }
    }

    /// A domain's signature hashed from its run in the store equals the
    /// signature of the table's column token set bit for bit — with
    /// Unicode-lowercased cells, and after pool compaction rewrote every
    /// id — so a partition's first probe signs what an eager build would.
    #[test]
    fn store_hashed_signatures_equal_the_column_token_set_signature() {
        let config = LshEnsembleConfig {
            pool_compact_min: 0,
            ..LshEnsembleConfig::default()
        };
        let mut lake = demo_lake();
        let unicode = table! {
            "unicode"; ["city", "word"];
            ["İSTANBUL", "Straße"], ["Zürich", "ΣΊΣΥΦΟΣ"], ["ǅemal", "Ωmega"],
            ["zürich", "straße"],
        };
        let dead: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Text(format!("Dead{i}"))])
            .collect();
        lake.add(unicode).unwrap();
        lake.add(Table::from_rows("big", &["k"], dead).unwrap())
            .unwrap();
        let mut engine = LshEnsembleDiscovery::build(&lake, config);
        let check = |engine: &LshEnsembleDiscovery, lake: &DataLake| {
            let mut checked = 0;
            for (slot, name) in engine.table_names.iter() {
                let table = lake.get(name).unwrap();
                for c in 0..table.column_count() {
                    let tokens = table.column_token_set(c);
                    let want = engine.hasher.signature(tokens.iter().map(String::as_str));
                    let got = engine.sign(&(slot, c as u32));
                    assert_eq!(got.as_ref(), (!tokens.is_empty()).then_some(&want));
                    checked += 1;
                }
            }
            checked
        };
        assert_eq!(check(&engine, &lake), 9);
        let unicode = lake.get("unicode").unwrap();
        assert!(unicode.column_token_set(0).contains("zürich"));
        let pool = engine.pool_len();
        let (slot, _) = lake.remove_table("big").unwrap();
        engine.remove_table(slot);
        assert!(engine.pool_len() + 200 <= pool, "the removal compacts");
        assert_eq!(check(&engine, &lake), 8);
    }

    /// A hub-lake table `t{t}`: the four hub tokens and one of its own.
    fn hub_table(t: usize) -> Table {
        let mut rows: Vec<Vec<Value>> = (0..4)
            .map(|h| vec![Value::Text(format!("hub{h}"))])
            .collect();
        rows.push(vec![Value::Text(format!("t{t}_v0"))]);
        Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap()
    }

    /// The probe-all answer to `q` and the signatures it computed.
    fn sketched(engine: &LshEnsembleDiscovery, q: &TableQuery) -> (Vec<Discovered>, u64) {
        let before = engine.sketch_work();
        let hits = engine.discover(q, 50);
        (hits, engine.sketch_work() - before)
    }

    /// On the sketch path under churn, upserts and removals hash nothing,
    /// the first sketch query after a write re-signs every domain it
    /// probes and a repeat signs none, and every answer is sound and
    /// equals a fresh build's over the same lake.
    #[test]
    fn sketch_path_signs_on_demand_under_churn() {
        let mut lake = hub_lake(24);
        let mut engine = LshEnsembleDiscovery::build(&lake, sketch_config());
        let q = query_over(&lake, "t3", 10);
        let domains = indexed_domains(&engine) as u64;
        assert_eq!(sketched(&engine, &q).1, 1 + domains);
        assert_eq!(sketched(&engine, &q).1, 1, "a repeat probe signed again");
        for t in 24..30 {
            let work = engine.sketch_work();
            let fresh = hub_table(t);
            let slot = lake.add_table(fresh.clone()).unwrap();
            engine.upsert_table(slot, &fresh);
            let (slot, _) = lake.remove_table(&format!("t{}", t - 20)).unwrap();
            engine.remove_table(slot);
            assert_eq!(engine.sketch_work(), work, "a write hashed");
            let rebuilt = LshEnsembleDiscovery::build(&lake, sketch_config());
            let (hits, signed) = sketched(&engine, &q);
            assert_eq!(signed, 1 + domains, "the new layout was not signed");
            assert_eq!(
                hits,
                rebuilt.discover(&q, 50),
                "diverged from a fresh build"
            );
            let truth = brute(&lake, &q, engine.config.threshold);
            for d in &hits {
                assert_eq!(truth.get(&d.table), Some(&d.score), "{}", d.table);
            }
            // A query equal to the new table's domain has its signature,
            // so every band finds it.
            let own = query_over(&lake, &format!("t{t}"), 5);
            let (hits, _) = sketched(&engine, &own);
            assert!(
                hits.iter()
                    .any(|d| d.table == format!("t{t}") && d.score == 1.0),
                "fresh t{t} missed: {hits:?}"
            );
            assert_eq!(hits, rebuilt.discover(&own, 50));
        }
        assert_eq!(indexed_domains(&engine) as u64, domains);
    }

    /// The sketch layout exists only between a sketch-route probe and the
    /// next write: a build, an upsert, a removal and an exact-route query
    /// leave none, and the first sketch answer after a write equals a
    /// fresh build's.
    #[test]
    fn the_layout_lives_from_a_sketch_probe_to_the_next_write() {
        let mut lake = hub_lake(24);
        // Private tokens (mass 1) route exact, hub tokens (mass 24) route
        // to the sketch.
        let config = LshEnsembleConfig {
            exact_mass_per_token: 2,
            ..LshEnsembleConfig::default()
        };
        let mut engine = LshEnsembleDiscovery::build(&lake, config.clone());
        let laid_out = |engine: &LshEnsembleDiscovery| engine.layout.get().is_some();
        assert!(!laid_out(&engine), "the build laid out the sketch");
        let rows = (1..8).map(|i| vec![Value::Text(format!("t3_v{i}"))]);
        let exact =
            TableQuery::with_column(Table::from_rows("q", &["k"], rows.collect()).unwrap(), 0);
        let budget = crate::QueryBudget::unlimited();
        let (hits, stats) = engine.discover_top_k_with_stats(&exact, 5, &budget);
        assert!(stats.exact_path);
        assert_eq!(hits[0].table, "t3");
        assert!(
            !laid_out(&engine),
            "an exact-route query laid out the sketch"
        );
        let sketch = query_over(&lake, "t3", 10);
        let (_, stats) = engine.discover_top_k_with_stats(&sketch, 5, &budget);
        assert!(!stats.exact_path);
        assert!(laid_out(&engine), "a sketch probe left no layout");
        assert_eq!(engine.layout().len(), indexed_domains(&engine));

        let fresh = hub_table(24);
        let slot = lake.add_table(fresh.clone()).unwrap();
        engine.upsert_table(slot, &fresh);
        assert!(!laid_out(&engine), "an upsert kept the layout");
        let rebuilt = LshEnsembleDiscovery::build(&lake, config.clone());
        assert_eq!(engine.discover(&sketch, 50), rebuilt.discover(&sketch, 50));
        assert!(laid_out(&engine));

        let (slot, _) = lake.remove_table("t3").unwrap();
        engine.remove_table(slot);
        assert!(!laid_out(&engine), "a removal kept the layout");
        let rebuilt = LshEnsembleDiscovery::build(&lake, config);
        assert_eq!(
            engine.discover_top_k_with_stats(&sketch, 5, &budget),
            rebuilt.discover_top_k_with_stats(&sketch, 5, &budget)
        );
        assert_eq!(
            engine.layout().partition_bounds(),
            rebuilt.layout().partition_bounds()
        );
    }

    #[test]
    fn pool_ids_depend_on_the_lake_alone() {
        let mut lake = demo_lake();
        let mut builds: Vec<LshEnsembleDiscovery> = (0..2)
            .map(|_| LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default()))
            .collect();
        let rows = (0..24).map(|i| vec![Value::Text(format!("tok{i}"))]);
        let fresh = Table::from_rows("fresh", &["k"], rows.collect()).unwrap();
        let slot = lake.add_table(fresh.clone()).unwrap();
        for engine in &mut builds {
            engine.upsert_table(slot, &fresh);
        }
        let (a, b) = (&builds[0], &builds[1]);
        assert_eq!(a.pool_len(), b.pool_len());
        for id in 0..a.pool_len() as u32 {
            assert_eq!(a.tokens.token(id), b.tokens.token(id), "pool id {id}");
        }
    }

    #[test]
    fn finds_fully_containing_table() {
        let engine = LshEnsembleDiscovery::build(&demo_lake(), LshEnsembleConfig::default());
        let hits = engine.discover(&query(), 5);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].table, "cases_by_city", "{hits:?}");
        assert!((hits[0].score - 1.0).abs() < 1e-12, "exact containment 1.0");
    }

    #[test]
    fn verification_filters_below_threshold() {
        // "partial" contains 3/5 of the query (< 0.7 threshold) → excluded
        // by exact verification even if LSH proposes it.
        let config = LshEnsembleConfig {
            threshold: 0.7,
            ..LshEnsembleConfig::default()
        };
        let engine = LshEnsembleDiscovery::build(&demo_lake(), config);
        let hits = engine.discover(&query(), 5);
        assert!(hits.iter().all(|d| d.table != "partial"), "{hits:?}");
        assert!(hits.iter().all(|d| d.table != "noise"), "{hits:?}");
    }

    #[test]
    fn lower_threshold_admits_partial_container() {
        // Containment 0.6 is decisively above the 0.3 threshold (the LSH
        // S-curve is centred at the threshold, so borderline pairs are
        // 50/50 by construction — tests stay away from the borderline).
        let config = LshEnsembleConfig {
            threshold: 0.3,
            ..LshEnsembleConfig::default()
        };
        let engine = LshEnsembleDiscovery::build(&demo_lake(), config);
        let hits = engine.discover(&query(), 5);
        assert!(
            hits.iter().any(|d| d.table == "partial"),
            "0.6-containment should pass a 0.3 threshold: {hits:?}"
        );
    }

    #[test]
    fn scores_are_exact_containment() {
        let config = LshEnsembleConfig {
            threshold: 0.3,
            ..LshEnsembleConfig::default()
        };
        let engine = LshEnsembleDiscovery::build(&demo_lake(), config);
        let hits = engine.discover(&query(), 5);
        let partial = hits.iter().find(|d| d.table == "partial").unwrap();
        assert!((partial.score - 3.0 / 5.0).abs() < 1e-9, "{partial:?}");
    }

    #[test]
    fn unmarked_query_column_defaults_to_first() {
        let engine = LshEnsembleDiscovery::build(&demo_lake(), LshEnsembleConfig::default());
        let q = TableQuery::new(query().table.as_ref().clone());
        let hits = engine.discover(&q, 5);
        assert_eq!(hits[0].table, "cases_by_city");
    }

    #[test]
    fn empty_lake_and_empty_query_column() {
        let engine = LshEnsembleDiscovery::build(&DataLake::new(), LshEnsembleConfig::default());
        assert_eq!(indexed_domains(&engine), 0);
        assert!(engine.discover(&query(), 5).is_empty());

        let engine = LshEnsembleDiscovery::build(&demo_lake(), LshEnsembleConfig::default());
        let empty_q = TableQuery::new(
            Table::from_rows("e", &["c"], vec![vec![Value::null_missing()]]).unwrap(),
        );
        assert!(engine.discover(&empty_q, 5).is_empty());
    }

    #[test]
    fn upserted_table_is_discoverable_immediately() {
        let mut lake = demo_lake();
        let mut engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let fresh = city_table("fresh_cities", &["madrid", "lagos"]);
        let slot = lake.add_table(fresh.clone()).unwrap();
        engine.upsert_table(slot, &fresh);
        let hits = engine.discover(&query(), 5);
        assert!(
            hits.iter()
                .any(|d| d.table == "fresh_cities" && (d.score - 1.0).abs() < 1e-12),
            "churned-in table must surface at once: {hits:?}"
        );
    }

    #[test]
    fn removed_table_stops_surfacing() {
        let mut lake = demo_lake();
        let mut engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let before = indexed_domains(&engine);
        let (slot, _) = lake.remove_table("cases_by_city").unwrap();
        engine.remove_table(slot);
        assert!(indexed_domains(&engine) < before);
        let hits = engine.discover(&query(), 5);
        assert!(hits.iter().all(|d| d.table != "cases_by_city"), "{hits:?}");
        // Removing an unindexed slot is a no-op.
        engine.remove_table(9999);
    }

    #[test]
    fn replacing_a_table_reflects_its_new_content() {
        let mut lake = demo_lake();
        let mut engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        // "partial" becomes a full superset of the query.
        let upgraded = city_table("partial", &["madrid"]);
        let slot = lake.replace_table(upgraded.clone());
        engine.upsert_table(slot, &upgraded);
        let hits = engine.discover(&query(), 5);
        let partial = hits.iter().find(|d| d.table == "partial").unwrap();
        assert!((partial.score - 1.0).abs() < 1e-12, "{hits:?}");
    }

    #[test]
    fn postings_track_live_domain_weight() {
        let lake = demo_lake();
        let mut engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let weight = |e: &LshEnsembleDiscovery| -> usize {
            e.tokens
                .domains()
                .map(|key| e.tokens.run(key).unwrap().len())
                .sum::<usize>()
        };
        let (_, total) = engine.posting_stats();
        assert_eq!(total, weight(&engine));

        // Churn keeps the invariant.
        let slot = 0; // cases_by_city sits in some slot; remove by probing
        let slot = engine
            .table_names
            .iter()
            .find(|(_, n)| n.as_str() == "cases_by_city")
            .map(|(s, _)| s)
            .unwrap_or(slot);
        engine.remove_table(slot);
        let (_, total) = engine.posting_stats();
        assert_eq!(total, weight(&engine));
    }

    #[test]
    fn pool_compaction_reclaims_removed_tables_tokens() {
        let config = LshEnsembleConfig {
            pool_compact_min: 0, // compact as soon as dead > live weight
            ..LshEnsembleConfig::default()
        };
        let mut lake = DataLake::new();
        // One small long-lived table, plus a big one that gets withdrawn.
        let keeper = table! { "keeper"; ["k"]; ["stay1"], ["stay2"] };
        let big_rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Text(format!("dead{i}"))])
            .collect();
        let big = Table::from_rows("big", &["k"], big_rows).unwrap();
        let k_slot = lake.add_table(keeper.clone()).unwrap();
        let b_slot = lake.add_table(big.clone()).unwrap();
        let mut engine = LshEnsembleDiscovery::build(&lake, config);
        assert!(engine.pool_len() >= 202);

        lake.remove_table("big").unwrap();
        engine.remove_table(b_slot);
        assert_eq!(
            engine.pool_len(),
            2,
            "200 dead vs 2 live tokens must compact to the keeper's tokens"
        );

        // Post-compaction queries still verify correctly over remapped ids.
        let q = TableQuery::with_column(table! { "q"; ["k"]; ["stay1"], ["stay2"] }, 0);
        let hits = engine.discover(&q, 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].table, "keeper");
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        let _ = k_slot;
    }

    #[test]
    fn small_query_posting_path_matches_full_scan() {
        // The exact fallback is a posting merge; forcing the
        // scan-everything shape via verify_candidates must agree.
        let lake = demo_lake();
        let engine = LshEnsembleDiscovery::build(
            &lake,
            LshEnsembleConfig {
                threshold: 0.3,
                ..LshEnsembleConfig::default()
            },
        );
        let q = query();
        let q_tokens = q.table.column_token_set(0);
        let q_ids = engine.query_token_ids(&q_tokens);
        let (merged, stats) =
            engine.exact_discover(&q_ids, q_tokens.len(), q.table.name(), usize::MAX);
        assert!(
            stats.candidates_verified >= merged.len(),
            "verified counts every merged domain"
        );
        let mut scanned = HashMap::new();
        engine.verify_candidates(
            engine.tokens.domains(),
            &q_ids,
            q_tokens.len(),
            q.table.name(),
            &mut scanned,
        );
        assert_eq!(merged, scanned);
    }

    /// A skewed lake with hub tokens shared by every table: four hub
    /// lists of `tables` entries beside one-entry private lists.
    fn hub_lake(tables: usize) -> DataLake {
        let mut lake = DataLake::new();
        for t in 0..tables {
            let mut rows: Vec<Vec<Value>> = (0..4)
                .map(|h| vec![Value::Text(format!("hub{h}"))])
                .collect();
            for i in 0..8 {
                rows.push(vec![Value::Text(format!("t{t}_v{i}"))]);
            }
            lake.add(Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap())
                .unwrap();
        }
        lake
    }

    /// A query over the first `tokens` sorted tokens of `source`.
    fn query_over(lake: &DataLake, source: &str, tokens: usize) -> TableQuery {
        let table = lake.get(source).unwrap();
        let mut toks: Vec<String> = table.column_token_set(0).into_iter().collect();
        toks.sort();
        toks.truncate(tokens);
        let rows: Vec<Vec<Value>> = toks.into_iter().map(|t| vec![Value::Text(t)]).collect();
        TableQuery::with_column(Table::from_rows("q", &["k"], rows).unwrap(), 0)
    }

    /// The exact merge of `q` under a postings budget, keyed by table name.
    fn merge(
        engine: &LshEnsembleDiscovery,
        q: &TableQuery,
        max_postings: usize,
    ) -> (HashMap<String, f64>, TopKStats) {
        let toks = q.table.column_token_set(0);
        let ids = engine.query_token_ids(&toks);
        let (best, stats) = engine.exact_discover(&ids, toks.len(), q.table.name(), max_postings);
        let best = best.into_iter().map(|(t, s)| (t.to_string(), s)).collect();
        (best, stats)
    }

    /// Brute-force best containment per table over the lake's own token
    /// sets, kept at or above `threshold` like the engine's reporting
    /// filter.
    fn brute(lake: &DataLake, q: &TableQuery, threshold: f64) -> HashMap<String, f64> {
        let toks = q.table.column_token_set(0);
        let mut best = HashMap::new();
        for t in lake.tables().filter(|t| t.name() != q.table.name()) {
            for c in 0..t.column_count() {
                let dom = t.column_token_set(c);
                let hits = toks.iter().filter(|tok| dom.contains(*tok)).count();
                let score = hits as f64 / toks.len() as f64;
                if score + 1e-12 >= threshold {
                    let e = best.entry(t.name().to_string()).or_insert(0.0);
                    if score > *e {
                        *e = score;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn unlimited_merge_equals_brute_force() {
        let lake = hub_lake(12);
        for threshold in [0.5, 0.3] {
            let config = LshEnsembleConfig {
                threshold,
                ..LshEnsembleConfig::default()
            };
            let engine = LshEnsembleDiscovery::build(&lake, config);
            let q = query_over(&lake, "t3", 10);
            let (got, stats) = merge(&engine, &q, usize::MAX);
            assert_eq!(got, brute(&lake, &q, threshold), "threshold {threshold}");
            assert!(!got.is_empty());
            assert!(!stats.budget_exhausted);
            assert_eq!(stats.postings_skipped, 0);
        }
    }

    #[test]
    fn postings_budget_yields_a_sound_subset_and_reports_exhaustion() {
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = query_over(&lake, "t3", 10);
        let full = brute(&lake, &q, engine.config.threshold);
        let (got, stats) = merge(&engine, &q, 2);
        assert!(stats.budget_exhausted, "{stats:?}");
        assert!(stats.postings_skipped > 0, "{stats:?}");
        for (table, score) in &got {
            assert_eq!(full.get(table), Some(score), "budgeted scores stay exact");
        }
        // Zero budget: empty but sound, never a panic.
        let (got, stats) = merge(&engine, &q, 0);
        assert!(got.is_empty());
        assert!(stats.budget_exhausted);
        assert_eq!(stats.candidates_verified, 0);
    }

    #[test]
    fn zero_k_is_an_empty_answer() {
        let lake = hub_lake(12);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let q = query_over(&lake, "t3", 10);
        assert!(!engine.discover(&q, 5).is_empty());
        assert!(engine.discover(&q, 0).is_empty());
    }

    #[test]
    fn no_postings_is_an_empty_exact_answer() {
        let lake = hub_lake(3);
        let engine = LshEnsembleDiscovery::build(&lake, LshEnsembleConfig::default());
        let (got, stats) = engine.exact_discover(&[], 5, "q", usize::MAX);
        assert!(got.is_empty());
        assert_eq!(
            stats,
            TopKStats {
                exact_path: true,
                ..TopKStats::default()
            }
        );
    }
}
