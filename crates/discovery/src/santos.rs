//! SANTOS-style semantic union search.
//!
//! SANTOS scores a candidate table by how well the *semantic graph* of the
//! query — semantic types on columns, binary relationships between the
//! intent column and the other columns — matches the candidate's graph.
//! This implementation follows that construction over the mini KB:
//!
//! 1. **Index.** For every lake table, annotate each column with its top
//!    semantic type (confidence-weighted, alias-resolved, leaf types) and
//!    each ordered column pair with its top relationship. Relationships
//!    are annotated only between KB-covered columns (some value resolves),
//!    since a row votes for one only when both its values resolve; one KB
//!    lookup per distinct token decides coverage. An inverted index
//!    `type → tables` provides candidate retrieval.
//! 2. **Query.** Annotate the query the same way; build its star graph
//!    around the intent column.
//! 3. **Score.** For each candidate: the best-matching candidate column for
//!    the intent (type similarity), plus for every other query column the
//!    best candidate column matching both edge relationship and node type.
//!    Scores are normalized to `[0, 1]`.
//! 4. **Synthesized signal.** Where the KB knows neither domain, direct
//!    value overlap (Jaccard) between the columns substitutes — the
//!    laptop-scale stand-in for SANTOS's data-lake-synthesized KB. Column
//!    value domains are sorted id runs in a value [`TokenPostings`]. A
//!    typeless query under a finite cap reads every `|Qj ∩ Cc|` off the
//!    posting walk that ranks its candidates ([`DomainOverlaps`]); typed
//!    queries and the exhaustive full scan merge the two runs instead, so
//!    the oracle path counts independently of the walk. A standalone
//!    engine owns its store; a `LakeIndex` keeps one value store per
//!    shard, read by SANTOS and the joinable leg.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dialite_kb::{Direction, KnowledgeBase, RelationId, TypeId};
use dialite_table::{DataLake, Table};

use crate::pool::{intersect_count, QueryColumn};
use crate::retrieval::{
    bounded_top_k, column_token_sets, score_all, DomainOverlaps, Named, Report, RetrievalStats,
    Runs, SlotTable, TokenPostings, POOL_COMPACT_MIN,
};
use crate::shard::ShardScope;
use crate::types::{score_cmp, Discovered, Discovery, TableQuery};

/// Configuration of the SANTOS-style engine.
#[derive(Debug, Clone)]
pub struct SantosConfig {
    /// Minimum annotation confidence for a type/relationship to be used.
    pub min_confidence: f64,
    /// Weight of relationship-edge agreement relative to node types.
    pub edge_weight: f64,
    /// Weight of the synthesized (value-overlap) signal when KB annotations
    /// are absent on both sides.
    pub synth_weight: f64,
    /// Minimum candidate score to be reported at all; keeps weakly related
    /// tables (one coincidental column) out of the integration set.
    pub min_score: f64,
}

impl Default for SantosConfig {
    fn default() -> Self {
        SantosConfig {
            min_confidence: 0.4,
            edge_weight: 0.5,
            synth_weight: 0.6,
            min_score: 0.2,
        }
    }
}

/// Per-column annotation kept in the index. The column's value tokens
/// (for the synthesized signal) live as an id run in the value
/// [`TokenPostings`], under the table's slot.
#[derive(Debug, Clone, Default)]
struct ColumnSemantics {
    /// `(type, confidence)` above the confidence floor, best first.
    types: Vec<(TypeId, f64)>,
}

/// Per-table annotation kept in the index.
struct TableSemantics {
    name: String,
    columns: Vec<ColumnSemantics>,
    /// `(col_a, col_b) → (relation, direction, confidence)` for the top
    /// relationship of each ordered pair (a < b).
    pairs: HashMap<(usize, usize), (RelationId, Direction, f64)>,
    /// `true` when any column carries no annotation above the confidence
    /// floor. Such a column scores through the synthesized value-overlap
    /// signal against *typed* query columns too, so the capped-retrieval
    /// upper bound must keep the `synth_weight` ceiling open for it.
    has_untyped_column: bool,
}

impl Named for TableSemantics {
    fn name(&self) -> &str {
        &self.name
    }
}

/// The SANTOS-style discovery engine. Build once per lake, then either
/// query as-is or keep it warm across churn with
/// [`SantosDiscovery::upsert_table`] / [`SantosDiscovery::remove_table`] —
/// table annotations are independent of each other, so incremental
/// maintenance is exactly equivalent to a fresh build.
pub struct SantosDiscovery {
    kb: Arc<KnowledgeBase>,
    config: SantosConfig,
    /// Per-table semantics by the lake's stable slot index, iterated in
    /// slot order, so the full scan is deterministic.
    tables: SlotTable<TableSemantics>,
    /// Inverted index: type → table slots exhibiting it on some column.
    by_type: HashMap<TypeId, HashSet<u32>>,
    /// Synthesized-signal index: each table's per-column value-token runs,
    /// and value token → table slots whose value domain (union over
    /// columns) contains it. Gives typeless (KB-poor) queries
    /// best-bound-first retrieval. In a `LakeIndex` shard, the store the
    /// joinable leg reads too.
    pub(crate) tokens: Arc<TokenPostings>,
}

impl SantosDiscovery {
    /// Annotate and index the whole lake.
    pub fn build(lake: &DataLake, kb: Arc<KnowledgeBase>, config: SantosConfig) -> SantosDiscovery {
        SantosDiscovery::build_scoped(lake, kb, config, ShardScope::all())
    }

    /// Annotate and index one shard's stripe of the lake (the slots
    /// `scope` [`admits`](ShardScope::admits)). Annotations are per-table,
    /// so a scoped build is exactly a full build restricted to the stripe;
    /// [`ShardScope::all`] reproduces [`SantosDiscovery::build`].
    pub(crate) fn build_scoped(
        lake: &DataLake,
        kb: Arc<KnowledgeBase>,
        config: SantosConfig,
        scope: ShardScope,
    ) -> SantosDiscovery {
        let mut engine = SantosDiscovery::empty(kb, config, scope);
        for (slot, table) in lake.entries_routed(scope.shard(), scope.of()) {
            engine.upsert_table(slot, table);
        }
        engine
    }

    /// An engine for the slots `scope` admits with no table annotated,
    /// over an empty store of its own.
    pub(crate) fn empty(
        kb: Arc<KnowledgeBase>,
        config: SantosConfig,
        scope: ShardScope,
    ) -> SantosDiscovery {
        SantosDiscovery {
            kb,
            config,
            tables: SlotTable::new(scope),
            by_type: HashMap::new(),
            tokens: Arc::new(TokenPostings::new(POOL_COMPACT_MIN, scope)),
        }
    }

    /// Annotate (or re-annotate) one table under its lake slot.
    /// `O(that table)`.
    pub fn upsert_table(&mut self, slot: u32, table: &Table) {
        self.remove_table(slot);
        let columns = column_token_sets(table);
        self.annotate(slot, table, &columns);
        Arc::make_mut(&mut self.tokens).insert(slot, &columns);
    }

    /// Drop the annotations of the table occupying a lake slot.
    pub fn remove_table(&mut self, slot: u32) {
        self.unannotate(slot);
        Arc::make_mut(&mut self.tokens).remove(slot);
    }

    /// The annotation half of [`upsert_table`](Self::upsert_table), from
    /// precomputed token sets; the slot must not be annotated.
    pub(crate) fn annotate(&mut self, slot: u32, table: &Table, columns: &[HashSet<String>]) {
        let sem = annotate_table(&self.kb, table, &self.config, columns);
        for col in &sem.columns {
            for (t, _) in &col.types {
                self.by_type.entry(*t).or_default().insert(slot);
            }
        }
        self.tables.insert(slot, sem);
    }

    /// The annotation half of [`remove_table`](Self::remove_table).
    pub(crate) fn unannotate(&mut self, slot: u32) {
        let Some(sem) = self.tables.remove(slot) else {
            return;
        };
        for col in &sem.columns {
            for (t, _) in &col.types {
                if let Some(set) = self.by_type.get_mut(t) {
                    set.remove(&slot);
                    if set.is_empty() {
                        self.by_type.remove(t);
                    }
                }
            }
        }
    }

    /// Number of indexed tables.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// Similarity of two annotated columns: semantic type agreement when
    /// available on both sides, otherwise the synthesized value-overlap
    /// signal, `synth_weight` times the Jaccard `jaccard` yields.
    fn column_sim(
        &self,
        q: &ColumnSemantics,
        c: &ColumnSemantics,
        jaccard: impl FnOnce() -> f64,
    ) -> f64 {
        if !q.types.is_empty() && !c.types.is_empty() {
            let mut best = 0.0f64;
            for (qt, qconf) in &q.types {
                for (ct, cconf) in &c.types {
                    if qt == ct {
                        best = best.max(qconf.min(*cconf));
                    }
                }
            }
            best
        } else {
            self.config.synth_weight * jaccard()
        }
    }
}

/// Specificity-weighted column annotation: each known value votes 1.0 for
/// its *leaf* types and 0.5 for their direct parents. Full ancestor closure
/// would make city and country columns indistinguishable through a shared
/// distant ancestor ("place"), destroying discrimination — SANTOS likewise
/// prefers the most specific annotation.
///
/// Also returns whether the column is *covered*: some token resolves in
/// the KB, typed or not (an entity registered only by a fact has no types
/// but carries relationships). Each token is looked up once.
fn annotate_column_specific(
    kb: &KnowledgeBase,
    tokens: &HashSet<String>,
    min_confidence: f64,
) -> (Vec<(TypeId, f64)>, bool) {
    let mut covered = false;
    let mut votes: HashMap<TypeId, f64> = HashMap::new();
    let mut token_votes: HashMap<TypeId, f64> = HashMap::new();
    for tok in tokens {
        let Some(leafs) = kb.leaf_types_of(tok) else {
            continue;
        };
        covered = true;
        for t in leafs {
            token_votes.insert(*t, 1.0);
        }
        for t in leafs {
            for p in kb.parent_types(*t) {
                token_votes.entry(*p).or_insert(0.5);
            }
        }
        for (t, w) in token_votes.drain() {
            *votes.entry(t).or_insert(0.0) += w;
        }
    }
    let total = tokens.len() as f64;
    let mut types: Vec<(TypeId, f64)> = votes
        .into_iter()
        .map(|(t, v)| (t, v / total))
        .filter(|(_, conf)| *conf >= min_confidence)
        .collect();
    // total_cmp: confidences can be NaN on degenerate inputs; sorting must
    // stay panic-free and deterministic.
    types.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    (types, covered)
}

#[cfg(test)]
thread_local! {
    /// Column pairs handed to the KB's relation vote by this thread, so
    /// tests can pin that uncovered pairs never pay the per-row walk.
    static KB_PAIRS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Annotate a table from its per-column value-token sets, which the
/// caller also interns (lake tables) or resolves (queries) into runs.
///
/// A relationship vote needs both values of a row to resolve, and a row's
/// values are tokens of their columns, so only pairs of covered columns
/// are walked row by row; every other pair gets no relationship, exactly
/// as the vote would give it.
fn annotate_table(
    kb: &KnowledgeBase,
    table: &Table,
    config: &SantosConfig,
    token_sets: &[HashSet<String>],
) -> TableSemantics {
    let mut covered = Vec::new();
    // Collected from an exact-size iterator, so the `Vec` the index keeps
    // per table has no spare capacity (`unzip` would round a one-column
    // table up to four slots).
    let columns: Vec<ColumnSemantics> = token_sets
        .iter()
        .enumerate()
        .map(|(c, tokens)| {
            let (types, is_covered) = annotate_column_specific(kb, tokens, config.min_confidence);
            if is_covered {
                covered.push(c);
            }
            ColumnSemantics { types }
        })
        .collect();
    let mut pairs = HashMap::new();
    for (i, &a) in covered.iter().enumerate() {
        for &b in &covered[i + 1..] {
            #[cfg(test)]
            KB_PAIRS.with(|n| n.set(n.get() + 1));
            let pair_values: Vec<(String, String)> = table
                .rows()
                .filter_map(|row| {
                    let va = row[a].overlap_token()?;
                    let vb = row[b].overlap_token()?;
                    Some((va, vb))
                })
                .collect();
            let ann = kb.annotate_pair(pair_values.iter().map(|(x, y)| (x.as_str(), y.as_str())));
            if let Some(((rel, dir), conf)) = ann.top() {
                if conf >= config.min_confidence {
                    pairs.insert((a, b), (rel, dir, conf));
                }
            }
        }
    }
    let has_untyped_column = columns.iter().any(|c| c.types.is_empty());
    TableSemantics {
        name: table.name().to_string(),
        columns,
        pairs,
        has_untyped_column,
    }
}

/// Relationship of the ordered pair `(a, b)` normalized to "a plays subject".
fn pair_rel(sem: &TableSemantics, a: usize, b: usize) -> Option<(RelationId, Direction, f64)> {
    if a < b {
        sem.pairs.get(&(a, b)).copied()
    } else {
        sem.pairs.get(&(b, a)).map(|&(r, d, c)| {
            let flipped = match d {
                Direction::Forward => Direction::Backward,
                Direction::Backward => Direction::Forward,
            };
            (r, flipped, c)
        })
    }
}

impl Discovery for SantosDiscovery {
    fn name(&self) -> &str {
        "santos"
    }

    fn discover(&self, query: &TableQuery, k: usize) -> Vec<Discovered> {
        self.discover_capped(query, k, usize::MAX).0
    }
}

/// The query-side half of the capped-retrieval bounds. `score_candidate`
/// averages the intent column's similarity with, per other query column
/// `j`, `(1 - edge_weight) * node + edge_weight * edge`; given a sound
/// ceiling `ub(j)` on each column's best similarity, [`GraphBound::of`]
/// mirrors that normalization exactly, with edge agreement at most the
/// query's own pair confidence, so `bound >= score` always holds.
struct GraphBound {
    intent: usize,
    node_w: f64,
    edge_w: f64,
    /// Per query column: its pair confidence with the intent column (0 for
    /// the intent itself).
    edge_conf: Vec<f64>,
}

impl GraphBound {
    fn new(config: &SantosConfig, q: &TableSemantics, intent: usize) -> GraphBound {
        let edge_conf = (0..q.columns.len())
            .map(|j| {
                if j == intent {
                    return 0.0;
                }
                pair_rel(q, intent, j).map(|(_, _, c)| c).unwrap_or(0.0)
            })
            .collect();
        GraphBound {
            intent,
            node_w: (1.0 - config.edge_weight).max(0.0),
            edge_w: config.edge_weight.max(0.0),
            edge_conf,
        }
    }

    fn of(&self, ub: impl Fn(usize) -> f64) -> f64 {
        let qcols = self.edge_conf.len();
        if qcols == 1 {
            return ub(self.intent);
        }
        let rest: f64 = (0..qcols)
            .filter(|&j| j != self.intent)
            .map(|j| self.node_w * ub(j) + self.edge_w * self.edge_conf[j])
            .sum();
        (ub(self.intent) + rest) / qcols as f64
    }
}

impl SantosDiscovery {
    /// [`Discovery::discover`] with a **candidate cap**: under any finite
    /// `cap`, type-inverted-index candidates are ranked by a cheap
    /// per-table *type-overlap upper bound* on the full graph-matching
    /// score and scored best-bound-first; retrieval stops once `cap`
    /// candidates are scored, or earlier when the k-th best kept score
    /// provably (strictly) beats every remaining bound. Any finite
    /// `cap >= lake size` therefore equals the exhaustive output exactly —
    /// tables the bound prunes can never enter the top-k, and score ties
    /// are still scored so name tie-breaking is preserved — pinned against
    /// the exhaustive oracle by `tests/santos_cap_recall.rs`.
    ///
    /// `cap == usize::MAX` is the **exhaustive oracle path**: every
    /// retrieved candidate is scored with no ranking or pruning, exactly
    /// the pre-cap engine (and what [`Discovery::discover`] runs) — the
    /// baseline the capped path's equality and recall are measured
    /// against.
    ///
    /// Queries with no usable annotations (typeless, KB-poor) rank
    /// candidates by a synthesized-signal upper bound from the token →
    /// table posting index instead: under any finite `cap` they get the
    /// same best-bound-first shape as typed queries (`typeless_pruned` in
    /// the stats), while `cap == usize::MAX` keeps the exhaustive full
    /// scan as the typeless oracle path (`full_scan` in the stats), pinned
    /// by `tests/cost_oracle.rs`.
    pub fn discover_capped(
        &self,
        query: &TableQuery,
        k: usize,
        cap: usize,
    ) -> (Vec<Discovered>, RetrievalStats) {
        let q_sets = column_token_sets(&query.table);
        let q_sem = annotate_table(&self.kb, &query.table, &self.config, &q_sets);
        if q_sem.columns.is_empty() || k == 0 {
            return (Vec::new(), RetrievalStats::default());
        }
        let q_tokens: Vec<QueryColumn> =
            q_sets.iter().map(|col| self.tokens.resolve(col)).collect();
        let intent = query
            .effective_column()
            .min(q_sem.columns.len().saturating_sub(1));
        let typeless = q_sem.columns.iter().all(|c| c.types.is_empty());
        let report = Report {
            k,
            min_score: self.config.min_score,
            exclude: query.table.name(),
        };
        let q = (&q_sem, &q_tokens[..]);
        // Every `|Qj ∩ Cc|` by a merge of the two runs.
        let merged = |slot: u32, cand: &TableSemantics| {
            let runs = self.tokens.runs(slot);
            let inter = |j: usize, c: usize| {
                intersect_count(&q_tokens[j].ids, runs.get(c).unwrap_or_default())
            };
            self.score_candidate(q, intent, (cand, runs), inter)
        };
        let (hits, mut stats) = if cap == usize::MAX {
            if typeless {
                score_all(self.tables.iter(), report, merged)
            } else {
                let candidates: HashSet<u32> = q_sem
                    .columns
                    .iter()
                    .flat_map(|col| &col.types)
                    .filter_map(|(t, _)| self.by_type.get(t))
                    .flatten()
                    .copied()
                    .collect();
                let tables = candidates
                    .iter()
                    .filter_map(|&slot| Some((slot, self.tables.get(slot)?)));
                score_all(tables, report, merged)
            }
        } else if typeless {
            let (ranked, overlaps) = self.typeless_ranked(&q_sem, &q_tokens, intent);
            bounded_top_k(&self.tables, ranked, cap, report, |slot, cand, at| {
                let inter = |j: usize, c: usize| overlaps.get(at, c, j);
                self.score_candidate(q, intent, (cand, self.tokens.runs(slot)), inter)
            })
        } else {
            let ranked = self.typed_ranked(&q_sem, intent);
            bounded_top_k(&self.tables, ranked, cap, report, |slot, cand, ()| {
                merged(slot, cand)
            })
        };
        stats.full_scan = typeless && cap == usize::MAX;
        if typeless {
            stats.typeless_pruned = std::mem::take(&mut stats.bound_pruned);
        }
        (hits, stats)
    }

    /// Type-index candidates with their type-overlap bound. Per query
    /// column `j` the best candidate-column similarity is at most the best
    /// shared-type confidence; the synthesized fallback (≤ synth_weight)
    /// stays reachable when the query column is untyped or the candidate
    /// has an untyped column.
    fn typed_ranked(&self, q: &TableSemantics, intent: usize) -> Vec<(u32, f64, ())> {
        let qcols = q.columns.len();
        // Per (candidate, query column): the best confidence of a shared
        // type.
        let mut type_bounds: HashMap<u32, Vec<f64>> = HashMap::new();
        for (j, col) in q.columns.iter().enumerate() {
            for (t, qconf) in &col.types {
                if let Some(set) = self.by_type.get(t) {
                    for &slot in set {
                        let per_col = type_bounds.entry(slot).or_insert_with(|| vec![0.0; qcols]);
                        if *qconf > per_col[j] {
                            per_col[j] = *qconf;
                        }
                    }
                }
            }
        }
        let synth = self.config.synth_weight.max(0.0);
        let bound = GraphBound::new(&self.config, q, intent);
        type_bounds
            .into_iter()
            .filter_map(|(slot, per_col)| {
                let cand = self.tables.get(slot)?;
                let b = bound.of(|j| {
                    if q.columns[j].types.is_empty() || cand.has_untyped_column {
                        per_col[j].max(synth)
                    } else {
                        per_col[j]
                    }
                });
                Some((slot, b, ()))
            })
            .collect()
    }

    /// Token-posting candidates with their synthesized-signal bound. A
    /// typeless query column always scores through
    /// `synth_weight * jaccard`, and `jaccard(Qj, C) <= min(1, |Q ∩ T| /
    /// |Qj|)` where `|Q ∩ T|` is the table-level token overlap the
    /// postings count; an empty query column can reach `jaccard == 1`
    /// against an empty candidate column, so its ceiling stays the full
    /// `synth_weight`. Zero-overlap candidates can still score — through
    /// pair-edge agreement or empty-column jaccard — so they are ranked at
    /// the zero-overlap bound whenever it could pass the reporting filter.
    /// The same posting walk counts every `|Qj ∩ Cc|` of the candidates it
    /// reaches, which their scores read instead of merging runs.
    fn typeless_ranked(
        &self,
        q: &TableSemantics,
        q_tokens: &[QueryColumn],
        intent: usize,
    ) -> (Vec<(u32, f64, u32)>, DomainOverlaps) {
        let synth = self.config.synth_weight.max(0.0);
        let bound = GraphBound::new(&self.config, q, intent);
        let bound = |ov: usize| {
            bound.of(|j| {
                let qn = q_tokens[j].len;
                if qn == 0 {
                    synth
                } else {
                    synth * (ov as f64 / qn as f64).min(1.0)
                }
            })
        };
        let mut overlaps = DomainOverlaps::new(q_tokens.len());
        let ranked = self
            .tokens
            .ranked(q_tokens, self.config.min_score, bound, &mut overlaps);
        (ranked, overlaps)
    }

    /// The graph-matching score of a candidate: the query with its
    /// resolved columns, the candidate with its runs, and `inter(j, c)`
    /// giving `|Qj ∩ Cc|` — from a merge of the two runs, or from the
    /// counts of the posting walk that ranked the candidate. Only the
    /// synthesized signal asks for it.
    fn score_candidate(
        &self,
        (q, q_tokens): (&TableSemantics, &[QueryColumn]),
        intent: usize,
        (cand, c_runs): (&TableSemantics, Runs),
        inter: impl Fn(usize, usize) -> usize,
    ) -> f64 {
        debug_assert_eq!(c_runs.len(), cand.columns.len(), "runs out of step");
        let qcols = q.columns.len();
        if qcols == 0 || cand.columns.is_empty() {
            return 0.0;
        }
        let sim = |j: usize, c: usize| {
            self.column_sim(&q.columns[j], &cand.columns[c], || {
                let run_len = c_runs.get(c).map_or(0, <[u32]>::len);
                q_tokens[j].jaccard_of(inter(j, c), run_len)
            })
        };
        // Choose the candidate column best matching the intent column.
        let (best_intent_col, intent_sim) = (0..cand.columns.len())
            .map(|i| (i, sim(intent, i)))
            .max_by(|a, b| score_cmp(a.1, b.1))
            .unwrap();

        if qcols == 1 {
            return intent_sim;
        }

        // For every other query column: best candidate column by node type
        // plus edge agreement with the intent relationship.
        let mut rest = 0.0;
        for j in 0..qcols {
            if j == intent {
                continue;
            }
            let q_edge = pair_rel(q, intent, j);
            let mut best = 0.0f64;
            for cj in 0..cand.columns.len() {
                if cj == best_intent_col {
                    continue;
                }
                let node = sim(j, cj);
                let edge = match (q_edge, pair_rel(cand, best_intent_col, cj)) {
                    (Some((qr, qd, qc)), Some((cr, cd, cc))) if qr == cr && qd == cd => qc.min(cc),
                    _ => 0.0,
                };
                let w = self.config.edge_weight;
                best = best.max((1.0 - w) * node + w * edge);
            }
            rest += best;
        }
        // Normalize: intent contributes like one column.
        (intent_sim + rest) / qcols as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_kb::curated::covid_kb;
    use dialite_table::{table, Value};

    /// Lake: a unionable COVID table (cities/countries/rates), a vaccine
    /// table, and numeric noise.
    fn demo_lake() -> DataLake {
        let unionable = table! {
            "covid_na"; ["nation", "town", "pct"];
            ["Canada", "Toronto", 0.83],
            ["Mexico", "Mexico City", Value::null_missing()],
            ["USA", "Boston", 0.62],
        };
        let vaccines = table! {
            "vaccines"; ["shot", "maker_country"];
            ["Pfizer", "United States"],
            ["AstraZeneca", "England"],
        };
        let noise = table! {
            "numbers"; ["a", "b"];
            [1, 2],
            [3, 4],
        };
        DataLake::from_tables([unionable, vaccines, noise]).unwrap()
    }

    fn query() -> TableQuery {
        TableQuery::with_column(
            table! {
                "Q"; ["Country", "City", "Rate"];
                ["Germany", "Berlin", 0.63],
                ["England", "Manchester", 0.78],
                ["Spain", "Barcelona", 0.82],
            },
            1, // City is the intent column, as in the demo scenario
        )
    }

    fn engine() -> SantosDiscovery {
        SantosDiscovery::build(&demo_lake(), Arc::new(covid_kb()), SantosConfig::default())
    }

    #[test]
    fn finds_unionable_table_first() {
        let hits = engine().discover(&query(), 3);
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].table, "covid_na",
            "the city/country/rate table should win: {hits:?}"
        );
    }

    #[test]
    fn noise_table_scores_lower_or_absent() {
        let hits = engine().discover(&query(), 10);
        let noise = hits.iter().find(|d| d.table == "numbers");
        let union = hits.iter().find(|d| d.table == "covid_na").unwrap();
        if let Some(noise) = noise {
            assert!(noise.score < union.score);
        }
    }

    #[test]
    fn relationship_edges_boost_semantically_coherent_tables() {
        // Candidate A has (city, country) with the located_in edge;
        // candidate B has cities and countries in *unrelated* columns
        // (shuffled rows), so the edge confidence is low.
        let coherent = table! {
            "coherent"; ["c1", "c2"];
            ["Toronto", "Canada"],
            ["Boston", "United States"],
            ["Ottawa", "Canada"],
        };
        let incoherent = table! {
            "incoherent"; ["c1", "c2"];
            ["Toronto", "United States"],
            ["Boston", "India"],
            ["Ottawa", "Mexico"],
        };
        let lake = DataLake::from_tables([coherent, incoherent]).unwrap();
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let q = TableQuery::with_column(
            table! {
                "Q"; ["City", "Country"];
                ["Berlin", "Germany"],
                ["Barcelona", "Spain"],
            },
            0,
        );
        let hits = engine.discover(&q, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].table, "coherent", "{hits:?}");
        assert!(hits[0].score > hits[1].score, "{hits:?}");
    }

    #[test]
    fn synthesized_signal_works_without_kb_coverage() {
        // Domains unknown to the KB, but overlapping values.
        let a = table! { "parts"; ["part"]; ["bolt-17"], ["nut-4"], ["washer-9"] };
        let b = table! { "other"; ["x"]; ["gear-1"], ["gear-2"] };
        let lake = DataLake::from_tables([a, b]).unwrap();
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let q = TableQuery::new(table! { "Q"; ["p"]; ["bolt-17"], ["nut-4"] });
        let hits = engine.discover(&q, 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].table, "parts");
    }

    #[test]
    fn query_table_itself_is_excluded() {
        let mut lake = demo_lake();
        lake.add(query().table.as_ref().clone().renamed("Q"))
            .unwrap();
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let hits = engine.discover(&query(), 10);
        assert!(hits.iter().all(|d| d.table != "Q"));
    }

    #[test]
    fn k_limits_results() {
        let hits = engine().discover(&query(), 1);
        assert!(hits.len() <= 1);
    }

    #[test]
    fn incremental_maintenance_matches_fresh_build() {
        // Apply churn incrementally and rebuild from scratch; annotations
        // are per-table, so the two must agree exactly (keys + scores).
        let mut lake = demo_lake();
        let kb = Arc::new(covid_kb());
        let mut engine = SantosDiscovery::build(&lake, kb.clone(), SantosConfig::default());

        let newcomer = table! {
            "covid_eu"; ["country", "city", "rate"];
            ["Germany", "Berlin", 0.63],
            ["Spain", "Barcelona", 0.82],
        };
        let slot = lake.add_table(newcomer.clone()).unwrap();
        engine.upsert_table(slot, &newcomer);
        let (gone, _) = lake.remove_table("vaccines").unwrap();
        engine.remove_table(gone);
        let replacement = table! {
            "numbers"; ["a", "b"];
            [9, 9],
        };
        let slot = lake.replace_table(replacement.clone());
        engine.upsert_table(slot, &replacement);

        let fresh = SantosDiscovery::build(&lake, kb, SantosConfig::default());
        assert_eq!(engine.len(), fresh.len());
        assert_eq!(
            engine.discover(&query(), 10),
            fresh.discover(&query(), 10),
            "incremental index must answer exactly like a rebuild"
        );
        assert!(engine
            .discover(&query(), 10)
            .iter()
            .any(|d| d.table == "covid_eu"));
    }

    #[test]
    fn finite_cap_covering_the_lake_equals_exhaustive() {
        // The bound-soundness smoke test: a finite cap larger than the
        // lake engages the ranked/pruned path, and its output must equal
        // the exhaustive oracle exactly (order and tie-breaks included).
        let engine = engine();
        for k in [1, 2, 10] {
            let (exhaustive, ex_stats) = engine.discover_capped(&query(), k, usize::MAX);
            let (capped, stats) = engine.discover_capped(&query(), k, 1000);
            assert_eq!(capped, exhaustive, "k={k}");
            assert!(!stats.cap_hit);
            assert!(!stats.full_scan);
            assert_eq!(stats.candidates_retrieved, ex_stats.candidates_retrieved);
            assert!(stats.candidates_scored <= ex_stats.candidates_scored);
        }
    }

    #[test]
    fn cap_limits_scored_candidates_and_reports_it() {
        let engine = engine();
        let (hits, stats) = engine.discover_capped(&query(), 5, 1);
        assert!(stats.candidates_scored <= 1, "{stats:?}");
        assert!(
            stats.cap_hit || stats.candidates_retrieved <= 1,
            "{stats:?}"
        );
        // Whatever survived is still genuinely scored (no invented hits).
        let (exhaustive, _) = engine.discover_capped(&query(), 5, usize::MAX);
        for hit in &hits {
            assert!(
                exhaustive.contains(hit),
                "capped hit {hit:?} not in exhaustive output {exhaustive:?}"
            );
        }
    }

    /// A KB-free lake: `n` part-list tables sharing a fraction of the
    /// query's tokens, plus disjoint noise tables.
    fn typeless_lake(n: usize) -> DataLake {
        let mut tables = Vec::new();
        for i in 0..n {
            // Table i shares tokens p0..p{i} with the query (more overlap
            // for higher i), plus private filler.
            let mut rows: Vec<Vec<Value>> = (0..=i)
                .map(|j| vec![Value::Text(format!("p{j}"))])
                .collect();
            rows.push(vec![Value::Text(format!("filler{i}"))]);
            tables.push(
                dialite_table::Table::from_rows(&format!("parts{i}"), &["part"], rows).unwrap(),
            );
        }
        for i in 0..n {
            let rows: Vec<Vec<Value>> = (0..3)
                .map(|j| vec![Value::Text(format!("noise{i}_{j}"))])
                .collect();
            tables
                .push(dialite_table::Table::from_rows(&format!("noise{i}"), &["x"], rows).unwrap());
        }
        DataLake::from_tables(tables).unwrap()
    }

    fn typeless_query(tokens: usize) -> TableQuery {
        let rows: Vec<Vec<Value>> = (0..tokens)
            .map(|j| vec![Value::Text(format!("p{j}"))])
            .collect();
        TableQuery::new(dialite_table::Table::from_rows("Q", &["p"], rows).unwrap())
    }

    #[test]
    fn typeless_covering_cap_equals_the_full_scan_oracle() {
        // Any finite cap covering the lake must reproduce the exhaustive
        // full scan byte-for-byte — the typeless leg's equality contract.
        let lake = typeless_lake(6);
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let q = typeless_query(4);
        for k in [1, 2, 5, usize::MAX] {
            let (oracle, ostats) = engine.discover_capped(&q, k, usize::MAX);
            assert!(ostats.full_scan, "{ostats:?}");
            let (capped, stats) = engine.discover_capped(&q, k, 1000);
            assert!(!stats.full_scan, "finite cap takes the bounded path");
            assert!(!stats.cap_hit);
            assert_eq!(capped, oracle, "k={k}");
        }
    }

    #[test]
    fn typeless_bound_prunes_zero_overlap_noise() {
        // With k=1 and a perfect-overlap candidate available, the bound
        // should prune the noise tables (their token-overlap ceiling can't
        // beat a verified full match).
        let lake = typeless_lake(6);
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let q = typeless_query(4);
        let (hits, stats) = engine.discover_capped(&q, 1, 1000);
        assert!(!hits.is_empty());
        assert!(
            stats.typeless_pruned > 0,
            "disjoint noise must be pruned, not scored: {stats:?}"
        );
        let (oracle, _) = engine.discover_capped(&q, 1, usize::MAX);
        assert_eq!(hits, oracle);
    }

    #[test]
    fn typeless_cap_is_honored_and_results_stay_sound() {
        let lake = typeless_lake(6);
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        let q = typeless_query(4);
        let (hits, stats) = engine.discover_capped(&q, 5, 1);
        assert!(stats.candidates_scored <= 1, "{stats:?}");
        assert!(!stats.full_scan);
        let (oracle, _) = engine.discover_capped(&q, 5, usize::MAX);
        for hit in &hits {
            assert!(
                oracle.contains(hit),
                "capped hit {hit:?} not in oracle {oracle:?}"
            );
        }
    }

    /// Runs [`intersect_count`] merges on this thread while `f` runs.
    fn merges_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
        crate::pool::MERGES.with(|n| n.set(0));
        let r = f();
        (r, crate::pool::MERGES.with(|n| n.get()))
    }

    #[test]
    fn bounded_typeless_scores_read_the_walk_counts_and_merge_nothing() {
        let lake = typeless_lake(6);
        let engine = SantosDiscovery::build(&lake, Arc::new(covid_kb()), SantosConfig::default());
        // One and two query columns, the second sharing tokens with the
        // first and adding one the lake never saw.
        let two = dialite_table::Table::from_rows(
            "Q2",
            &["p", "q"],
            (0..4)
                .map(|j| {
                    vec![
                        Value::Text(format!("p{j}")),
                        Value::Text(format!("p{}", j + 2)),
                    ]
                })
                .chain([vec![Value::null_missing(), Value::Text("unseen".into())]])
                .collect(),
        )
        .unwrap();
        for q in [typeless_query(4), TableQuery::new(two)] {
            let ((capped, stats), merged) = merges_during(|| engine.discover_capped(&q, 3, 1000));
            assert!(!stats.full_scan && stats.candidates_scored > 0, "{stats:?}");
            assert_eq!(merged, 0, "the bounded typeless path merged runs");
            let ((full, stats), merged) =
                merges_during(|| engine.discover_capped(&q, 3, usize::MAX));
            assert!(stats.full_scan, "{stats:?}");
            assert!(
                merged >= stats.candidates_scored,
                "the oracle path counts by merging"
            );
            assert_eq!(capped, full);
        }
    }

    #[test]
    fn token_postings_track_churn_and_compaction_preserves_answers() {
        let mut lake = typeless_lake(3);
        let kb = Arc::new(covid_kb());
        let mut engine = SantosDiscovery::build(&lake, kb.clone(), SantosConfig::default());
        let (_, entries) = engine.tokens.posting_stats();
        let live: usize = 3 + (1 + 2 + 3) + 3 * 3; // fillers + shared + noise
        assert_eq!(entries, live);

        // Churn a large table in and out; postings must retire with it and
        // the pool must eventually compact (overtake rule), without
        // changing any answer.
        let big_rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| vec![Value::Text(format!("dead{i}"))])
            .collect();
        let big = dialite_table::Table::from_rows("big", &["part"], big_rows).unwrap();
        let slot = lake.add_table(big.clone()).unwrap();
        engine.upsert_table(slot, &big);
        lake.remove_table("big").unwrap();
        engine.remove_table(slot);

        let (_, entries) = engine.tokens.posting_stats();
        let pool_len = engine.tokens.pool_len();
        assert_eq!(entries, live, "retired postings must be gone");
        assert!(
            pool_len < 5000,
            "5000 dead vs {live} live tokens must have compacted the pool"
        );
        let q = typeless_query(3);
        let fresh = SantosDiscovery::build(&lake, kb, SantosConfig::default());
        assert_eq!(
            engine.discover_capped(&q, 5, 100),
            fresh.discover_capped(&q, 5, 100),
            "post-compaction bounded retrieval must answer like a rebuild"
        );
    }

    /// The relationship half of [`annotate_table`] before covered-pair
    /// skipping: the KB's vote over *every* column pair.
    fn every_pair_vote(
        kb: &KnowledgeBase,
        table: &Table,
        config: &SantosConfig,
    ) -> HashMap<(usize, usize), (RelationId, Direction, f64)> {
        let ncols = table.column_count();
        let mut pairs = HashMap::new();
        for a in 0..ncols {
            for b in (a + 1)..ncols {
                let values: Vec<(String, String)> = table
                    .rows()
                    .filter_map(|row| Some((row[a].overlap_token()?, row[b].overlap_token()?)))
                    .collect();
                let ann = kb.annotate_pair(values.iter().map(|(x, y)| (x.as_str(), y.as_str())));
                if let Some(((rel, dir), conf)) = ann.top() {
                    if conf >= config.min_confidence {
                        pairs.insert((a, b), (rel, dir, conf));
                    }
                }
            }
        }
        pairs
    }

    /// The column half of [`annotate_table`] as first written: every token
    /// votes, an unknown one with no types.
    fn reference_column_types(
        kb: &KnowledgeBase,
        tokens: &HashSet<String>,
        min_confidence: f64,
    ) -> Vec<(TypeId, f64)> {
        let mut votes: HashMap<TypeId, f64> = HashMap::new();
        for tok in tokens {
            let leafs = kb.leaf_types_of(tok).unwrap_or_default();
            let mut token_votes: HashMap<TypeId, f64> = HashMap::new();
            for t in leafs {
                token_votes.insert(*t, 1.0);
            }
            for t in leafs {
                for p in kb.parent_types(*t) {
                    token_votes.entry(*p).or_insert(0.5);
                }
            }
            for (t, w) in token_votes {
                *votes.entry(t).or_insert(0.0) += w;
            }
        }
        let total = tokens.len() as f64;
        let mut types: Vec<(TypeId, f64)> = votes
            .into_iter()
            .map(|(t, v)| (t, v / total))
            .filter(|(_, conf)| *conf >= min_confidence)
            .collect();
        types.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        types
    }

    /// Value families of the differential KB. Row `r` of a subject family
    /// relates to row `r` of its object family.
    const FAMILIES: usize = 8;

    /// Typed cities located in typed countries (aliased as `ctr <i>`),
    /// fact-only suppliers and buyers, number facts, and an alias whose
    /// canonical entity is unknown.
    fn differential_kb() -> KnowledgeBase {
        let mut b = dialite_kb::KbBuilder::new();
        b.add_type("place", None);
        b.add_type("city", Some("place"));
        b.add_type("country", Some("place"));
        for i in 0..3 {
            b.add_entity(&format!("city {i}"), &["city"]);
            b.add_entity(&format!("country {i}"), &["country"]);
            b.add_alias(&format!("ctr {i}"), &format!("country {i}"));
            b.add_fact(&format!("city {i}"), "located_in", &format!("country {i}"));
            b.add_fact(&format!("supplier {i}"), "supplies", &format!("buyer {i}"));
            b.add_fact(&i.to_string(), "halves", &format!("{}.5", i));
        }
        b.add_alias("ghost", "nowhere");
        b.build()
    }

    /// Cell of family `family` on row `row`; `noise` picks a spelling
    /// variant, a null or an unknown token.
    fn differential_cell(family: usize, row: usize, noise: usize) -> Value {
        let i = row % 3;
        let label = match family {
            0 => format!("city {i}"),
            1 => format!("country {i}"),
            2 => format!("ctr {i}"),
            3 => format!("supplier {i}"),
            4 => format!("buyer {i}"),
            5 => return Value::Int(i as i64),
            6 => return Value::Float(i as f64 + 0.5),
            _ => format!("unknown {row}"),
        };
        Value::Text(match noise {
            0 | 1 => label,
            2 => label.to_uppercase(),
            3 => format!("  {label} "),
            4 => label.replace(' ', "   "),
            5 => label.replace(' ', "\t"),
            6 => return Value::null_missing(),
            7 => "ghost".to_string(),
            8 => format!("zzz {row}"),
            _ => return Value::Int(row as i64 * 7),
        })
    }

    fn differential_table(families: &[usize], noise: &[Vec<usize>]) -> Table {
        let headers: Vec<String> = (0..families.len()).map(|c| format!("c{c}")).collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<Value>> = noise
            .iter()
            .enumerate()
            .map(|(r, cells)| {
                families
                    .iter()
                    .enumerate()
                    .map(|(c, &f)| differential_cell(f, r, cells[c % cells.len()]))
                    .collect()
            })
            .collect();
        Table::from_rows("t", &headers, rows).unwrap()
    }

    fn assert_matches_every_pair_vote(kb: &KnowledgeBase, table: &Table) {
        let config = SantosConfig::default();
        let token_sets = column_token_sets(table);
        let sem = annotate_table(kb, table, &config, &token_sets);
        assert_eq!(sem.pairs, every_pair_vote(kb, table, &config), "{table:?}");
        let types: Vec<Vec<(TypeId, f64)>> = token_sets
            .iter()
            .map(|tokens| reference_column_types(kb, tokens, config.min_confidence))
            .collect();
        let got: Vec<Vec<(TypeId, f64)>> = sem.columns.iter().map(|c| c.types.clone()).collect();
        assert_eq!(got, types, "{table:?}");
        assert_eq!(
            sem.has_untyped_column,
            types.iter().any(Vec::is_empty),
            "{table:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]
        #[test]
        fn covered_pair_skip_equals_the_every_pair_vote(
            families in proptest::collection::vec(0..FAMILIES, 1..5),
            noise in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 1..5),
                0..9,
            ),
        ) {
            let kb = differential_kb();
            assert_matches_every_pair_vote(&kb, &differential_table(&families, &noise));
        }
    }

    #[test]
    fn fact_only_columns_still_get_their_relation() {
        // Suppliers and buyers are registered only by facts: no types, yet
        // their column pair carries `supplies`.
        let kb = differential_kb();
        let table = differential_table(&[3, 4], &[vec![0], vec![0], vec![0]]);
        let sem = annotate_table(
            &kb,
            &table,
            &SantosConfig::default(),
            &column_token_sets(&table),
        );
        assert!(sem.columns.iter().all(|c| c.types.is_empty()));
        let supplies = kb.relation_id("supplies").unwrap();
        assert_eq!(sem.pairs[&(0, 1)], (supplies, Direction::Forward, 1.0));
        assert_matches_every_pair_vote(&kb, &table);
    }

    /// Column pairs [`annotate_table`] hands the KB while `f` runs.
    fn kb_pairs_during(f: impl FnOnce()) -> usize {
        KB_PAIRS.with(|n| n.set(0));
        f();
        KB_PAIRS.with(|n| n.get())
    }

    #[test]
    fn uncovered_pairs_never_reach_the_kb() {
        let kb = Arc::new(covid_kb());
        let spec = dialite_datagen::workloads::HeterogeneousLakeWorkload {
            tables: 200,
            ..Default::default()
        };
        let lake = spec.lake();
        let built = kb_pairs_during(|| {
            SantosDiscovery::build(&lake, kb.clone(), SantosConfig::default());
        });
        assert_eq!(built, 0, "no hetero-lake column resolves in the KB");

        let config = SantosConfig::default();
        let mut all_covered = 0;
        for (_, table) in demo_lake().entries() {
            let token_sets = column_token_sets(table);
            let n = token_sets.len();
            if !token_sets.iter().all(|t| t.iter().any(|tok| kb.knows(tok))) {
                continue;
            }
            all_covered += 1;
            let handed = kb_pairs_during(|| {
                annotate_table(&kb, table, &config, &token_sets);
            });
            assert_eq!(handed, n * (n - 1) / 2, "{}", table.name());
        }
        assert!(all_covered > 0, "demo_lake has a fully covered table");
    }

    #[test]
    fn empty_lake_is_fine() {
        let engine = SantosDiscovery::build(
            &DataLake::new(),
            Arc::new(covid_kb()),
            SantosConfig::default(),
        );
        assert_eq!(engine.len(), 0);
        assert!(engine.discover(&query(), 5).is_empty());
    }
}
