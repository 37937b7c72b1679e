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
//! and the budget-aware [`TopKPlanner`](crate::TopKPlanner) share that
//! routing and that merge. **Signatures on demand:** only a heavier query
//! takes the sketch, and the ensemble's first probe of a partition signs
//! its domains by hashing their token strings straight from the store
//! (`LshEnsembleDiscovery::sign`). Building and upserting hash nothing,
//! and a snapshot carries only the signatures some probe computed.
//!
//! The engine is incrementally maintainable: [`LshEnsembleDiscovery::
//! upsert_table`] / [`LshEnsembleDiscovery::remove_table`] apply one
//! table's worth of work (stage its domains' sizes, retire its dead domain
//! keys and postings) instead of rebuilding over the whole lake — `LakeIndex` drives
//! these from the lake changelog. Staged (not-yet-rebalanced) domains are
//! exact-scanned at query time, so a freshly added table is discoverable
//! immediately, never an LSH false negative. The store reclaims removed
//! tables' tokens by pool compaction once the retired token weight
//! overtakes the live weight (and [`LshEnsembleConfig::pool_compact_min`]),
//! so long-churn memory stays bounded.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dialite_minhash::{LshEnsemble, LshEnsembleBuilder, MinHasher, Signature, SketchSnapshot};
use dialite_table::{DataLake, Table};

use crate::pool::intersect_count;
use crate::retrieval::{column_token_sets, DomainKey, TokenPostings, POOL_COMPACT_MIN};
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
    /// Fraction of live domains that may be dirty (staged inserts +
    /// tombstones) before a mutation triggers ensemble re-partitioning.
    pub rebalance_dirtiness: f64,
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
            rebalance_dirtiness: 0.25,
            pool_compact_min: POOL_COMPACT_MIN,
        }
    }
}

/// Joinable-table discovery: find lake tables with a column whose domain
/// contains (most of) the query column's domain.
pub struct LshEnsembleDiscovery {
    pub(crate) config: LshEnsembleConfig,
    pub(crate) hasher: MinHasher,
    pub(crate) ensemble: LshEnsemble<DomainKey>,
    /// Lake table names by slot index (live tables only).
    pub(crate) table_names: HashMap<u32, String>,
    /// Every column's sorted token-id run, for exact verification, and the
    /// exact posting lists over them. Maintained through every
    /// upsert/remove, in lockstep with `ensemble`; in a `LakeIndex` shard,
    /// the store SANTOS reads too.
    pub(crate) tokens: Arc<TokenPostings>,
}

impl LshEnsembleDiscovery {
    /// Index every column of every lake table.
    pub fn build(lake: &DataLake, config: LshEnsembleConfig) -> LshEnsembleDiscovery {
        LshEnsembleDiscovery::build_scoped(lake, config, ShardScope::all(), None)
    }

    /// Index one shard's stripe of the lake (the slots `scope`
    /// [`admits`](ShardScope::admits)): the shard's token store and
    /// equi-depth ensemble partitions are computed over the
    /// stripe alone, exactly as [`LshEnsembleDiscovery::build`] computes
    /// them over the whole lake. [`ShardScope::all`] reproduces the
    /// unscoped build.
    ///
    /// The build hashes nothing: a domain's MinHash signature is computed
    /// by the first sketch probe of its ensemble partition, from its run
    /// in the store. `sketches` warm-starts the build from a durable
    /// snapshot: a persisted signature pre-fills its domain's cell only
    /// when its hash-family identity (`num_perm`, `seed`) matches the
    /// config **and** its recorded domain size equals the live domain's
    /// token count — any other domain is signed on demand, so a stale or
    /// foreign snapshot can slow a warm start but never corrupt it. Token
    /// interning, posting lists and exact verification sets are always
    /// rebuilt from the lake (they are cheap `u32` work).
    pub fn build_scoped(
        lake: &DataLake,
        config: LshEnsembleConfig,
        scope: ShardScope,
        sketches: Option<&SketchSnapshot>,
    ) -> LshEnsembleDiscovery {
        LshEnsembleDiscovery::build_feeding(lake, config, scope, sketches, |_, _, _| {})
    }

    /// [`build_scoped`](Self::build_scoped), also handing each table's
    /// column token sets to `each`: the one build pass, shared by a shard.
    pub(crate) fn build_feeding(
        lake: &DataLake,
        config: LshEnsembleConfig,
        scope: ShardScope,
        sketches: Option<&SketchSnapshot>,
        mut each: impl FnMut(u32, &Table, &[HashSet<String>]),
    ) -> LshEnsembleDiscovery {
        let reusable: HashMap<DomainKey, (usize, &Signature)> = sketches
            .filter(|s| s.matches_family(config.num_perm, config.seed))
            .map(|s| {
                s.domains
                    .iter()
                    .map(|(key, size, sig)| (*key, (*size, sig)))
                    .collect()
            })
            .unwrap_or_default();
        let mut builder = LshEnsembleBuilder::new(config.num_perm);
        let mut table_names = HashMap::new();
        let mut tokens = TokenPostings::new(config.pool_compact_min);
        for (t, table) in lake.entries_routed(scope.shard(), scope.of()) {
            table_names.insert(t, table.name().to_string());
            let columns = column_token_sets(table);
            for (c, col) in columns.iter().enumerate() {
                if col.is_empty() {
                    continue;
                }
                let key: DomainKey = (t, c as u32);
                match reusable.get(&key) {
                    Some(&(size, sig)) if size == col.len() => {
                        builder.insert_signed(key, size, sig.clone());
                    }
                    _ => builder.insert(key, col.len()),
                }
            }
            tokens.insert(t, &columns);
            each(t, table, &columns);
        }
        let hasher = MinHasher::new(config.num_perm, config.seed);
        let mut ensemble = builder.build(config.num_partitions);
        ensemble.set_rebalance_threshold(config.rebalance_dirtiness);
        LshEnsembleDiscovery {
            config,
            hasher,
            ensemble,
            table_names,
            tokens: Arc::new(tokens),
        }
    }

    /// Export every indexed domain's MinHash signature computed so far
    /// (by a sketch probe, or carried over from a snapshot), tagged with
    /// the hash-family identity, in the shape durable snapshots persist.
    /// A domain no sketch probe has reached has none to export.
    pub fn export_sketches(&self) -> SketchSnapshot {
        SketchSnapshot {
            num_perm: self.config.num_perm,
            seed: self.config.seed,
            domains: self.ensemble.export_entries(),
        }
    }

    /// MinHash signatures computed by this engine's hash family so far:
    /// sketch-path query columns, and domains signed by a partition's
    /// first probe. The build and upserts compute none; a warm start keeps
    /// a probe's signing to the domains the snapshot does not cover.
    pub fn sketch_work(&self) -> u64 {
        self.hasher.signatures_computed()
    }

    /// Index (or re-index) one table under its lake slot. `O(table)`.
    pub fn upsert_table(&mut self, slot: u32, table: &Table) {
        self.remove_table(slot);
        let columns = column_token_sets(table);
        self.sketch(slot, table.name(), &columns);
        Arc::make_mut(&mut self.tokens).insert(slot, &columns);
    }

    /// Retire every domain of the table occupying a lake slot.
    /// `O(columns of that table + their postings)`.
    pub fn remove_table(&mut self, slot: u32) {
        let mut tokens = std::mem::take(&mut self.tokens);
        self.unsketch(slot, &tokens);
        Arc::make_mut(&mut tokens).remove(slot);
        self.tokens = tokens;
    }

    /// The ensemble half of [`upsert_table`](Self::upsert_table), from
    /// precomputed token sets; the slot must not be indexed. It stages
    /// each column's size and hashes nothing.
    pub(crate) fn sketch(&mut self, slot: u32, name: &str, columns: &[HashSet<String>]) {
        self.table_names.insert(slot, name.to_string());
        for (c, col) in columns.iter().enumerate() {
            if !col.is_empty() {
                self.ensemble.insert((slot, c as u32), col.len());
            }
        }
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
    /// `discover` and the `TopKPlanner` both route through here, so an
    /// unlimited planner answers exactly like the probe-all path.
    pub(crate) fn routes_exact(&self, q_ids: &[u32], q_len: usize) -> bool {
        let line = self.config.exact_mass_per_token.saturating_mul(q_len);
        self.tokens.posting_mass(q_ids) < line
    }

    /// The ensemble half of [`remove_table`](Self::remove_table). It reads
    /// the slot's runs, so it must run before the store retires the slot.
    pub(crate) fn unsketch(&mut self, slot: u32, tokens: &TokenPostings) {
        if self.table_names.remove(&slot).is_some() {
            for key in tokens.domains_of(slot) {
                self.ensemble.remove(&key);
            }
        }
    }

    /// Number of indexed column domains.
    pub fn indexed_domains(&self) -> usize {
        self.tokens.domains().count()
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
    /// Both the probe-all `discover` and the `TopKPlanner` call this one
    /// helper, so their exact answers cannot drift apart.
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
        let mut overlap: HashMap<DomainKey, usize> = HashMap::new();
        let mut scanned = 0usize;
        let mut merged = 0usize;
        for (_, list) in &lists {
            if scanned + list.len() > max_postings {
                break;
            }
            for key in *list {
                *overlap.entry(*key).or_insert(0) += 1;
            }
            scanned += list.len();
            merged += 1;
        }
        if merged == lists.len() {
            stats.candidates_verified = overlap.len();
            for (key, hits) in overlap {
                self.fold_best(key, hits as f64 / q_len as f64, exclude_table, &mut best);
            }
        } else {
            stats.budget_exhausted = true;
            stats.postings_skipped = lists[merged..].iter().map(|(_, list)| list.len()).sum();
            stats.candidates_verified =
                self.verify_candidates(overlap.into_keys(), q_ids, q_len, exclude_table, &mut best);
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
        let Some(table) = self.table_names.get(&key.0) else {
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
            // The candidates include every domain staged since the last
            // rebalance, so fresh churn is never an LSH false negative.
            let sign = |key: &DomainKey| self.sign(key);
            let cands = self
                .ensemble
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

    /// Signatures a probe-all sketch query computes on `engine`: one for
    /// the query, one per domain no earlier probe or snapshot signed.
    fn probe_work(engine: &LshEnsembleDiscovery) -> u64 {
        let before = engine.sketch_work();
        engine.discover(&query(), 5);
        engine.sketch_work() - before
    }

    #[test]
    fn warm_build_reuses_sketches_and_matches_cold_output() {
        let lake = demo_lake();
        let cold = LshEnsembleDiscovery::build(&lake, sketch_config());
        assert_eq!(cold.sketch_work(), 0, "the build hashed");
        let domains = cold.indexed_domains() as u64;
        assert_eq!(
            probe_work(&cold),
            1 + domains,
            "a probe-all signs every domain"
        );
        let sketches = cold.export_sketches();
        assert_eq!(sketches.domains.len() as u64, domains);

        let warm = LshEnsembleDiscovery::build_scoped(
            &lake,
            sketch_config(),
            ShardScope::all(),
            Some(&sketches),
        );
        assert_eq!(
            probe_work(&warm),
            1,
            "full snapshot coverage must leave only the query to hash"
        );
        assert_eq!(warm.indexed_domains(), cold.indexed_domains());
        assert_eq!(warm.posting_stats(), cold.posting_stats());
        assert_eq!(warm.discover(&query(), 5), cold.discover(&query(), 5));
    }

    #[test]
    fn foreign_family_sketches_fall_back_to_hashing() {
        let lake = demo_lake();
        let cold = LshEnsembleDiscovery::build(&lake, sketch_config());
        let cold_work = probe_work(&cold);
        let mut sketches = cold.export_sketches();
        let warm = |sketches: &SketchSnapshot| {
            LshEnsembleDiscovery::build_scoped(
                &lake,
                sketch_config(),
                ShardScope::all(),
                Some(sketches),
            )
        };
        assert_eq!(probe_work(&warm(&sketches)), 1, "the own family is reused");
        sketches.seed ^= 1; // pretend the snapshot came from another family
        let foreign = warm(&sketches);
        assert_eq!(
            probe_work(&foreign),
            cold_work,
            "family mismatch must rebuild every sketch"
        );
        assert_eq!(foreign.discover(&query(), 5), cold.discover(&query(), 5));
    }

    /// A domain's signature hashed from its run in the store equals the
    /// signature of the table's column token set bit for bit — with
    /// Unicode-lowercased cells, and after pool compaction rewrote every
    /// id — so snapshots written from either stay reusable.
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
            for (&slot, name) in &engine.table_names {
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

    /// On the sketch path under churn, upserts hash nothing, a probe signs
    /// only what no earlier probe signed, and answers stay sound and find
    /// a staged superset at once.
    #[test]
    fn sketch_path_signs_on_demand_under_churn() {
        let mut lake = hub_lake(24);
        let config = LshEnsembleConfig {
            rebalance_dirtiness: 0.2,
            ..sketch_config()
        };
        let mut engine = LshEnsembleDiscovery::build(&lake, config);
        let q = query_over(&lake, "t3", 10);
        let domains = engine.indexed_domains() as u64;
        let sketched = |engine: &LshEnsembleDiscovery, q: &TableQuery| {
            let before = engine.sketch_work();
            let hits = engine.discover(q, 50);
            (hits, engine.sketch_work() - before)
        };
        assert_eq!(sketched(&engine, &q).1, 1 + domains);
        assert_eq!(sketched(&engine, &q).1, 1, "a repeat probe signed again");
        for t in 24..30 {
            let mut rows: Vec<Vec<Value>> = (0..4)
                .map(|h| vec![Value::Text(format!("hub{h}"))])
                .collect();
            rows.push(vec![Value::Text(format!("t{t}_v0"))]);
            let fresh = Table::from_rows(&format!("t{t}"), &["k"], rows).unwrap();
            let slot = lake.add_table(fresh.clone()).unwrap();
            engine.upsert_table(slot, &fresh);
            let (slot, _) = lake.remove_table(&format!("t{}", t - 20)).unwrap();
            engine.remove_table(slot);
            let (hits, _) = sketched(&engine, &q);
            let truth = brute(&lake, &q, engine.config.threshold);
            for d in &hits {
                assert_eq!(truth.get(&d.table), Some(&d.score), "{}", d.table);
            }
            let own = query_over(&lake, &format!("t{t}"), 5);
            let (hits, _) = sketched(&engine, &own);
            assert!(
                hits.iter()
                    .any(|d| d.table == format!("t{t}") && d.score == 1.0),
                "staged or fresh t{t} missed: {hits:?}"
            );
        }
        assert_eq!(engine.indexed_domains() as u64, domains);
        // Every live partitioned domain was signed by a probe; a staged
        // one waits for the rebalance that partitions it.
        let staged = engine.ensemble.staged_keys().count() as u64;
        assert!(staged > 0);
        assert_eq!(
            engine.export_sketches().domains.len() as u64,
            domains - staged
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
        assert_eq!(engine.indexed_domains(), 0);
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
        let before = engine.indexed_domains();
        let (slot, _) = lake.remove_table("cases_by_city").unwrap();
        engine.remove_table(slot);
        assert!(engine.indexed_domains() < before);
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
            .map(|(s, _)| *s)
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
