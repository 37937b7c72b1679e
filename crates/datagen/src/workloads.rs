//! Parameterized workloads for the benchmark harness.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dialite_kb::{KbBuilder, KnowledgeBase};
use dialite_table::{DataLake, Table, Value};

/// Parameters of the FD workload: key-sharing tables with nulls, the
/// input of the FD engine equivalence tests.
#[derive(Debug, Clone)]
pub struct FdWorkload {
    /// Number of tables in the integration set.
    pub tables: usize,
    /// Rows per table.
    pub rows: usize,
    /// Size of the shared key domain; smaller = more joins. Each table
    /// draws keys uniformly from `0..key_domain`.
    pub key_domain: usize,
    /// Fraction of non-key cells nulled out.
    pub null_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FdWorkload {
    fn default() -> Self {
        FdWorkload {
            tables: 4,
            rows: 100,
            key_domain: 200,
            null_rate: 0.1,
            seed: 7,
        }
    }
}

impl FdWorkload {
    /// Generate the integration set: table `i` has schema
    /// `(key, attr_i)` — a star around the shared key, so FD merges chains
    /// through key equality while attribute columns stay disjoint. The
    /// shapes match the open-data lakes ALITE evaluates on: many narrow
    /// tables overlapping on entity columns.
    pub fn generate(&self) -> Vec<Table> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.tables);
        for t in 0..self.tables {
            let cols = ["key".to_string(), format!("attr_{t}")];
            let mut rows = Vec::with_capacity(self.rows);
            for r in 0..self.rows {
                let key = Value::Text(format!("k{}", rng.gen_range(0..self.key_domain.max(1))));
                let attr = if rng.gen_bool(self.null_rate) {
                    Value::null_missing()
                } else {
                    Value::Text(format!("t{t}v{r}"))
                };
                rows.push(vec![key, attr]);
            }
            out.push(Table::from_rows(&format!("W{t}"), &cols, rows).expect("fixed arity"));
        }
        out
    }
}

/// Parameters of the lake-churn workload: an initial lake plus a trace of
/// interleaved add / replace / remove / query operations — the living-lake
/// regime incremental discovery indexes must survive (the CRUD-bench shape
/// applied to table discovery).
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    /// Tables in the initial lake.
    pub initial_tables: usize,
    /// Distinct key tokens per table (the discovery-relevant column).
    pub rows_per_table: usize,
    /// Size of the shared token universe. Each table draws its keys from a
    /// random contiguous window of the universe, so overlapping windows
    /// produce the full spectrum of containment relations.
    pub vocab: usize,
    /// Number of trace operations after the initial lake.
    pub ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnWorkload {
    fn default() -> Self {
        ChurnWorkload {
            initial_tables: 16,
            rows_per_table: 24,
            vocab: 400,
            ops: 32,
            seed: 23,
        }
    }
}

/// One operation of a churn trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// Register a new table.
    Add(Table),
    /// Replace the same-named live table in place.
    Replace(Table),
    /// Withdraw a live table by name.
    Remove(String),
    /// Run discovery with this table as the query (column 0 is the probe
    /// column). Its keys are a subset of one live table's keys, so a
    /// containment-1.0 match always exists at query time.
    Query(Table),
}

impl ChurnOp {
    /// Apply a mutation op to a lake (queries are no-ops). Returns `true`
    /// when the lake changed.
    pub fn apply(&self, lake: &mut DataLake) -> bool {
        match self {
            ChurnOp::Add(t) => {
                lake.add_table(t.clone()).expect("trace names are unique");
                true
            }
            ChurnOp::Replace(t) => {
                lake.replace_table(t.clone());
                true
            }
            ChurnOp::Remove(name) => {
                lake.remove_table(name).expect("trace removes live tables");
                true
            }
            ChurnOp::Query(_) => false,
        }
    }
}

/// A generated churn trace.
#[derive(Debug, Clone)]
pub struct ChurnTrace {
    /// The initial lake contents.
    pub initial: Vec<Table>,
    /// The operation trace (valid when applied in order after `initial`).
    pub ops: Vec<ChurnOp>,
}

impl ChurnWorkload {
    fn table(&self, rng: &mut StdRng, name: &str) -> Table {
        let vocab = self.vocab.max(2);
        let rows = self.rows_per_table.clamp(1, vocab);
        // A contiguous window twice the row count: windows overlap across
        // tables, yielding containments anywhere in (0, 1].
        let span = (rows * 2).min(vocab);
        let start = rng.gen_range(0..=(vocab - span));
        let mut pool: Vec<usize> = (start..start + span).collect();
        pool.shuffle(rng);
        pool.truncate(rows);
        pool.sort_unstable();
        let rows: Vec<Vec<Value>> = pool
            .into_iter()
            .map(|j| {
                vec![
                    Value::Text(format!("v{j}")),
                    Value::Int(rng.gen_range(0..1_000_i64)),
                ]
            })
            .collect();
        Table::from_rows(name, &["key", "val"], rows).expect("fixed arity")
    }

    /// Generate the initial lake and a valid interleaved trace. Same spec
    /// + seed → identical trace.
    pub fn generate(&self) -> ChurnTrace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut next_id = 0usize;
        let mut fresh_name = || {
            let n = format!("churn_t{next_id}");
            next_id += 1;
            n
        };
        let mut alive: Vec<Table> = Vec::with_capacity(self.initial_tables);
        for _ in 0..self.initial_tables.max(1) {
            let name = fresh_name();
            alive.push(self.table(&mut rng, &name));
        }
        let initial = alive.clone();

        let mut ops = Vec::with_capacity(self.ops);
        let mut queries = 0usize;
        for i in 0..self.ops {
            // Queries interleave deterministically (every 4th op) so every
            // trace exercises discovery between mutations.
            if i % 4 == 3 || alive.is_empty() {
                let source = alive.choose(&mut rng).cloned().unwrap_or_else(|| {
                    let name = fresh_name();
                    self.table(&mut rng, &name)
                });
                let keep = rng.gen_range(1..=source.row_count());
                let mut rows: Vec<Vec<Value>> = source.rows().map(|r| vec![r[0].clone()]).collect();
                rows.shuffle(&mut rng);
                rows.truncate(keep);
                queries += 1;
                let q = Table::from_rows(&format!("churn_q{queries}"), &["key"], rows)
                    .expect("fixed arity");
                ops.push(ChurnOp::Query(q));
                continue;
            }
            match rng.gen_range(0..3) {
                0 => {
                    let name = fresh_name();
                    let t = self.table(&mut rng, &name);
                    alive.push(t.clone());
                    ops.push(ChurnOp::Add(t));
                }
                1 if alive.len() > 1 => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive.remove(idx).name().to_string();
                    ops.push(ChurnOp::Remove(name));
                }
                _ => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive[idx].name().to_string();
                    let t = self.table(&mut rng, &name);
                    alive[idx] = t.clone();
                    ops.push(ChurnOp::Replace(t));
                }
            }
        }
        ChurnTrace { initial, ops }
    }
}

/// Parameters of the skewed top-k discovery workload: a lake whose
/// column-domain sizes follow a power law — a few huge "hub" tables whose
/// domains contain whole query universes, and a long tail of small tables
/// whose domains can never reach the containment threshold for a
/// realistically sized query.
///
/// This is the regime open-data lakes actually exhibit (a handful of
/// master registries, thousands of small extracts) and the one where
/// budget-aware partition scheduling pays: equi-depth size partitioning
/// puts the long tail into partitions whose upper size bound caps their
/// best possible containment below the threshold, so a top-k planner can
/// prove them irrelevant without probing, while a probe-all scan pays for
/// every partition and verifies every near-miss candidate.
#[derive(Debug, Clone)]
pub struct TopKWorkload {
    /// Total lake tables. Table of rank `r` holds
    /// `max(tail_rows, hub_rows / (r + 1))` distinct keys — a `1/x` decay
    /// from a few hubs down to the flat tail.
    pub tables: usize,
    /// Number of leading ranks that count as hubs; queries are drawn as
    /// subsets of a hub's keys, so every query has a containment-1.0 hub.
    pub hub_tables: usize,
    /// Distinct keys of the largest (rank-0) table.
    pub hub_rows: usize,
    /// Distinct keys of every tail table (the decay floor).
    pub tail_rows: usize,
    /// Size of the shared token universe. Every table draws its keys from
    /// a random contiguous window, so tail tables overlap hubs enough to
    /// surface as near-miss candidates without ever passing verification.
    pub vocab: usize,
    /// Number of query tables to generate.
    pub queries: usize,
    /// Distinct keys per query table.
    pub query_rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopKWorkload {
    fn default() -> Self {
        TopKWorkload {
            tables: 200,
            hub_tables: 4,
            hub_rows: 192,
            tail_rows: 8,
            vocab: 4_000,
            queries: 8,
            query_rows: 96,
            seed: 29,
        }
    }
}

/// A generated skewed lake plus its query tables.
#[derive(Debug, Clone)]
pub struct TopKTrace {
    /// The lake tables, rank order (sizes descending).
    pub tables: Vec<Table>,
    /// Query tables (single `key` column); query `i` is a subset of hub
    /// `i % hub_tables`'s keys.
    pub queries: Vec<Table>,
}

impl TopKWorkload {
    fn size_of(&self, rank: usize) -> usize {
        (self.hub_rows / (rank + 1)).max(self.tail_rows.max(1))
    }

    /// Generate the lake and queries. Same spec + seed → identical output.
    /// Degenerate specs are clamped rather than panicking: at least one
    /// table always exists, and at least the rank-0 table counts as a hub
    /// so every requested query has a source.
    pub fn generate(&self) -> TopKTrace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let vocab = self.vocab.max(2 * self.hub_rows.max(2));
        let tables_n = self.tables.max(1);
        let hubs = self.hub_tables.clamp(1, tables_n);
        let mut tables = Vec::with_capacity(tables_n);
        let mut hub_keys: Vec<Vec<usize>> = Vec::with_capacity(hubs);
        for rank in 0..tables_n {
            let size = self.size_of(rank).min(vocab);
            let span = (size * 2).min(vocab);
            let start = rng.gen_range(0..=(vocab - span));
            let mut pool: Vec<usize> = (start..start + span).collect();
            pool.shuffle(&mut rng);
            pool.truncate(size);
            pool.sort_unstable();
            if rank < hubs {
                hub_keys.push(pool.clone());
            }
            let rows: Vec<Vec<Value>> = pool
                .into_iter()
                .map(|j| {
                    vec![
                        Value::Text(format!("v{j}")),
                        Value::Int(rng.gen_range(0..1_000_i64)),
                    ]
                })
                .collect();
            tables.push(
                Table::from_rows(&format!("topk_t{rank}"), &["key", "val"], rows)
                    .expect("fixed arity"),
            );
        }
        let mut queries = Vec::with_capacity(self.queries);
        for qi in 0..self.queries {
            let hub = &hub_keys[qi % hub_keys.len()];
            let mut keys = hub.clone();
            keys.shuffle(&mut rng);
            keys.truncate(self.query_rows.clamp(1, hub.len()));
            let rows: Vec<Vec<Value>> = keys
                .into_iter()
                .map(|j| vec![Value::Text(format!("v{j}"))])
                .collect();
            queries.push(
                Table::from_rows(&format!("topk_q{qi}"), &["key"], rows).expect("fixed arity"),
            );
        }
        TopKTrace { tables, queries }
    }
}

/// Parameters of the **type-dense SANTOS workload**: a lake whose column
/// values are drawn from a small roster of semantic types, so the SANTOS
/// type inverted index is *dense* — every type's posting list spans a
/// large fraction of the lake, and a typed query retrieves most tables as
/// candidates. This is the regime where unbounded type-index retrieval
/// degenerates into a full scan (the motivation for the candidate cap):
/// open-data lakes reuse the same handful of entity vocabularies
/// (places, agencies, dates) across hundreds of thousands of tables.
///
/// Each table draws an (unordered) tuple of `cols_per_table` distinct
/// types and fills each column from that type's entity pool, diluted by a
/// per-table unknown-token noise rate in `[0, max_noise]` — so annotation
/// confidences (and therefore candidate scores) vary continuously and
/// bound-ranked retrieval has a real ordering to exploit. Queries copy a
/// random lake table's type tuple with clean (noise-free) columns, so
/// every query has full-tuple strong matches, a band of partial-overlap
/// candidates, and a long tail of single-type near-misses.
#[derive(Debug, Clone)]
pub struct SantosWorkload {
    /// Lake tables.
    pub tables: usize,
    /// Distinct semantic types in the synthesized KB. Density rises as
    /// this shrinks relative to `tables * cols_per_table`.
    pub types: usize,
    /// Entity tokens per type pool.
    pub entities_per_type: usize,
    /// Typed columns per table (and per query).
    pub cols_per_table: usize,
    /// Rows per table.
    pub rows_per_table: usize,
    /// Upper bound of the per-table unknown-token rate. Keep it below
    /// ~0.5 so every column stays confidently annotated.
    pub max_noise: f64,
    /// Query tables to generate.
    pub queries: usize,
    /// Rows per query table.
    pub query_rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SantosWorkload {
    fn default() -> Self {
        SantosWorkload {
            tables: 800,
            types: 8,
            entities_per_type: 64,
            cols_per_table: 3,
            rows_per_table: 16,
            max_noise: 0.3,
            queries: 6,
            query_rows: 12,
            seed: 31,
        }
    }
}

/// A generated type-dense lake, its synthesized KB, and typed queries.
#[derive(Debug, Clone)]
pub struct SantosTrace {
    /// The lake tables.
    pub tables: Vec<Table>,
    /// Query tables (typed columns, intent column 0); query `i` reuses the
    /// type tuple of lake table `i * tables / queries`.
    pub queries: Vec<Table>,
    /// The KB typing every entity pool (one leaf type per entity).
    pub kb: KnowledgeBase,
}

impl SantosWorkload {
    fn entity(&self, ty: usize, i: usize) -> String {
        format!("ent{ty}x{i}")
    }

    /// Draw one typed column: `rows` tokens from the type's pool, with
    /// `noise` of them replaced by KB-unknown junk.
    fn column(
        &self,
        rng: &mut StdRng,
        ty: usize,
        rows: usize,
        noise: f64,
        junk_tag: &str,
    ) -> Vec<Value> {
        let pool = self.entities_per_type.max(1);
        (0..rows)
            .map(|i| {
                if rng.gen_bool(noise) {
                    Value::Text(format!("junk_{junk_tag}_{i}"))
                } else {
                    Value::Text(self.entity(ty, rng.gen_range(0..pool)))
                }
            })
            .collect()
    }

    fn typed_table(
        &self,
        rng: &mut StdRng,
        name: &str,
        tuple: &[usize],
        rows: usize,
        noise: f64,
    ) -> Table {
        let cols: Vec<String> = (0..tuple.len()).map(|c| format!("c{c}")).collect();
        let columns: Vec<Vec<Value>> = tuple
            .iter()
            .enumerate()
            .map(|(c, &ty)| self.column(rng, ty, rows, noise, &format!("{name}_{c}")))
            .collect();
        let row_data: Vec<Vec<Value>> = (0..rows)
            .map(|r| columns.iter().map(|col| col[r].clone()).collect())
            .collect();
        Table::from_rows(name, &cols, row_data).expect("fixed arity")
    }

    /// Generate the KB, lake and queries. Same spec + seed → identical
    /// output. Degenerate specs are clamped (at least one table, one type,
    /// one column) rather than panicking.
    pub fn generate(&self) -> SantosTrace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let types = self.types.max(1);
        let cols = self.cols_per_table.clamp(1, types);
        let tables_n = self.tables.max(1);

        let mut kb = KbBuilder::new();
        for ty in 0..types {
            kb.add_type(&format!("stype{ty}"), None);
        }
        for ty in 0..types {
            for i in 0..self.entities_per_type.max(1) {
                kb.add_entity(&self.entity(ty, i), &[&format!("stype{ty}")]);
            }
        }
        let kb = kb.build();

        let mut all_types: Vec<usize> = (0..types).collect();
        let mut tables = Vec::with_capacity(tables_n);
        let mut tuples: Vec<Vec<usize>> = Vec::with_capacity(tables_n);
        for r in 0..tables_n {
            all_types.shuffle(&mut rng);
            let tuple: Vec<usize> = all_types[..cols].to_vec();
            let noise = rng.gen_range(0.0..=self.max_noise.clamp(0.0, 0.45));
            tables.push(self.typed_table(
                &mut rng,
                &format!("santos_t{r}"),
                &tuple,
                self.rows_per_table.max(1),
                noise,
            ));
            tuples.push(tuple);
        }

        let mut queries = Vec::with_capacity(self.queries);
        for qi in 0..self.queries {
            // Spread query tuples across the lake deterministically so
            // every query has exact-tuple matches to recall.
            let source = (qi * tables_n / self.queries.max(1)) % tables_n;
            queries.push(self.typed_table(
                &mut rng,
                &format!("santos_q{qi}"),
                &tuples[source],
                self.query_rows.max(1),
                0.0,
            ));
        }
        SantosTrace {
            tables,
            queries,
            kb,
        }
    }
}

/// Parameters of the **serving workload**: a mixed read/churn request
/// trace over a skewed ([`TopKWorkload`]-shaped) lake, the input of the
/// serving linearization oracle (`serving_oracle.rs` in
/// `dialite-discovery`).
///
/// Reads draw from a fixed pool of distinct query tables under a zipfian
/// rank distribution — a few hot queries dominate, a long tail trickles —
/// which is how discovery traffic over open-data portals actually skews
/// (a handful of popular datasets absorb most lookups). Writes are churn
/// mutations shaped like [`ChurnWorkload`]'s: adds of fresh tables,
/// replaces and removes of live ones. The read share is exact
/// (`round(ops * read_ratio)` queries), with kinds shuffled through the
/// trace so every prefix mixes both.
#[derive(Debug, Clone)]
pub struct ServingWorkload {
    /// Lake shape: total tables (skewed sizes, see [`TopKWorkload`]).
    pub tables: usize,
    /// Lake shape: leading hub tables queries are drawn from.
    pub hub_tables: usize,
    /// Lake shape: distinct keys of the rank-0 hub.
    pub hub_rows: usize,
    /// Lake shape: distinct keys of every tail table.
    pub tail_rows: usize,
    /// Lake shape: shared token universe size.
    pub vocab: usize,
    /// Distinct query tables in the request pool.
    pub query_pool: usize,
    /// Distinct keys per query table.
    pub query_rows: usize,
    /// Total request-trace operations (queries + mutations).
    pub ops: usize,
    /// Fraction of ops that are queries, in `[0, 1]`. The trace holds
    /// exactly `round(ops * read_ratio)` queries.
    pub read_ratio: f64,
    /// Zipf exponent of the query-rank distribution; `0.0` is uniform,
    /// `~1.0` is classic web-traffic skew.
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServingWorkload {
    fn default() -> Self {
        ServingWorkload {
            tables: 200,
            hub_tables: 4,
            hub_rows: 192,
            tail_rows: 8,
            vocab: 4_000,
            query_pool: 32,
            query_rows: 64,
            ops: 512,
            read_ratio: 0.9,
            zipf_s: 1.0,
            seed: 31,
        }
    }
}

/// One request of a serving trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingOp {
    /// Run discovery with query-pool table of this index (column 0 is the
    /// probe column).
    Query(usize),
    /// Apply a lake mutation. Under concurrent replay use
    /// [`ServingOp::apply_tolerant`], not [`ChurnOp::apply`]: threads
    /// drain the trace through a shared cursor, so mutations can land in
    /// an order where a strict apply would panic on a name conflict.
    Mutate(ChurnOp),
}

impl ServingOp {
    /// Apply a mutation to a lake, tolerating any interleaving: adds and
    /// replaces become upserts, removes of absent tables are no-ops.
    /// Queries are no-ops. Returns `true` when the lake changed.
    pub fn apply_tolerant(&self, lake: &mut DataLake) -> bool {
        match self {
            ServingOp::Query(_) => false,
            ServingOp::Mutate(ChurnOp::Query(_)) => false,
            ServingOp::Mutate(ChurnOp::Add(t)) | ServingOp::Mutate(ChurnOp::Replace(t)) => {
                lake.upsert(t.clone());
                true
            }
            ServingOp::Mutate(ChurnOp::Remove(name)) => lake.remove(name).is_some(),
        }
    }
}

/// A generated serving trace.
#[derive(Debug, Clone)]
pub struct ServingTrace {
    /// The initial lake contents (skewed sizes, rank order).
    pub initial: Vec<Table>,
    /// The query-table pool; [`ServingOp::Query`] indexes into it.
    pub pool: Vec<Table>,
    /// The request trace. Mutations are valid when applied in order, and
    /// safe under any interleaving via [`ServingOp::apply_tolerant`].
    pub ops: Vec<ServingOp>,
}

/// Sample from a zipfian rank distribution via precomputed cumulative
/// weights `w(r) = 1 / (r + 1)^s` and a binary search per draw.
struct ZipfRanks {
    cumulative: Vec<f64>,
}

impl ZipfRanks {
    fn new(n: usize, s: f64) -> ZipfRanks {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0f64;
        for r in 0..n.max(1) {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfRanks { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

impl ServingWorkload {
    /// Generate the initial lake, the query pool and the request trace.
    /// Same spec + seed → identical output.
    pub fn generate(&self) -> ServingTrace {
        // The lake and query pool reuse the skewed top-k generator, so
        // the served lake has the same hub/tail shape as a `TopKWorkload`.
        let base = TopKWorkload {
            tables: self.tables,
            hub_tables: self.hub_tables,
            hub_rows: self.hub_rows,
            tail_rows: self.tail_rows,
            vocab: self.vocab,
            queries: self.query_pool.max(1),
            query_rows: self.query_rows,
            seed: self.seed,
        }
        .generate();

        // Distinct stream from the lake generator's so trace shape and
        // lake shape vary independently of each other under one seed.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e59_11a6_0dd5_ee1d);
        let zipf = ZipfRanks::new(base.queries.len(), self.zipf_s.max(0.0));

        // Exact read share: fix the kind of every slot, then shuffle.
        let ops_n = self.ops;
        let reads = ((ops_n as f64) * self.read_ratio.clamp(0.0, 1.0)).round() as usize;
        let reads = reads.min(ops_n);
        let mut kinds: Vec<bool> = Vec::with_capacity(ops_n);
        kinds.extend(std::iter::repeat_n(true, reads));
        kinds.extend(std::iter::repeat_n(false, ops_n - reads));
        kinds.shuffle(&mut rng);

        // Mutations follow ChurnWorkload's alive-set logic so an in-order
        // replay is strictly valid (the linearization oracle relies on
        // that) while names stay distinct from the initial lake's.
        let churn = ChurnWorkload {
            rows_per_table: self.tail_rows.max(8),
            vocab: self.vocab,
            ..ChurnWorkload::default()
        };
        let mut alive: Vec<Table> = base.tables.clone();
        let mut next_id = 0usize;
        let mut ops = Vec::with_capacity(ops_n);
        for is_read in kinds {
            if is_read {
                ops.push(ServingOp::Query(zipf.sample(&mut rng)));
                continue;
            }
            match rng.gen_range(0..3) {
                0 => {
                    let name = format!("serve_t{next_id}");
                    next_id += 1;
                    let t = churn.table(&mut rng, &name);
                    alive.push(t.clone());
                    ops.push(ServingOp::Mutate(ChurnOp::Add(t)));
                }
                1 if alive.len() > 1 => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive.remove(idx).name().to_string();
                    ops.push(ServingOp::Mutate(ChurnOp::Remove(name)));
                }
                _ => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive[idx].name().to_string();
                    let t = churn.table(&mut rng, &name);
                    alive[idx] = t.clone();
                    ops.push(ServingOp::Mutate(ChurnOp::Replace(t)));
                }
            }
        }
        ServingTrace {
            initial: base.tables,
            pool: base.queries,
            ops,
        }
    }
}

/// Boilerplate header vocabulary every topical cluster mixes in —
/// the `id`/`name`/`year` columns that show up across a whole open-data
/// corpus regardless of topic.
const GLOBAL_HEADERS: &[&str] = &[
    "record", "id", "name", "year", "value", "code", "region", "status", "date", "count",
    "category", "total",
];

/// Parameters of the **heterogeneous corpus-scale lake workload**: a lake
/// *streamed* table-by-table with O(1) generator state — table `i` is a
/// pure function of the spec and `seed + i`
/// ([`HeterogeneousLakeWorkload::table`]), so a 100k-table lake never
/// needs a shared `Vec<Table>` — shaped like a real open-data corpus:
///
/// * **Zipf-distributed table sizes**: row counts double across Zipf-ranked
///   size classes, so most tables sit at the 2-row floor while a thin head
///   reaches `max_rows` — the registry-vs-extract skew open-data portals
///   document.
/// * **Overlapping topical clusters**: every table belongs to a
///   Zipf-popular primary cluster (and sometimes a secondary one), drawing
///   both its column headers and its value vocabulary from the cluster's
///   pools plus the shared `GLOBAL_HEADERS` boilerplate — so header
///   vocab overlaps within and across clusters the way topically related
///   datasets share schema fragments.
/// * **Dirt**: configurable null and dirty-cell rates, plus *sparse*
///   columns that are mostly null — except column 0, which stays clean so
///   every table keeps a usable token domain for value-overlap queries.
///
/// Header tokens are fully alphanumeric (`h<cluster>x<t>`) so each header
/// survives `dialite_text::word_tokens` as a single token — the contract
/// the metadata-aware discovery engine indexes on.
#[derive(Debug, Clone)]
pub struct HeterogeneousLakeWorkload {
    /// Total tables streamed into the lake.
    pub tables: usize,
    /// Topical clusters; each has its own header and value vocabularies.
    /// Cluster popularity is Zipf-distributed (`zipf_s`).
    pub clusters: usize,
    /// Header tokens per cluster pool.
    pub cluster_headers: usize,
    /// Maximum columns per table (column count is Zipf-skewed toward 1).
    pub max_cols: usize,
    /// Maximum rows per table (sizes double across Zipf-ranked classes
    /// from a 2-row floor up to this cap).
    pub max_rows: usize,
    /// Zipf exponent shared by the size, column-count and cluster
    /// popularity distributions; `0.0` is uniform.
    pub zipf_s: f64,
    /// Distinct value tokens per cluster vocabulary.
    pub value_vocab: usize,
    /// Fraction of non-key cells nulled out.
    pub null_rate: f64,
    /// Fraction of non-key cells mangled into near-unique dirty tokens.
    pub dirty_rate: f64,
    /// Probability a non-key column is *sparse* (mostly null).
    pub sparse_rate: f64,
    /// Query tables generated by [`HeterogeneousLakeWorkload::queries`]
    /// and header queries by
    /// [`HeterogeneousLakeWorkload::header_queries`].
    pub queries: usize,
    /// Distinct keys per token-mode query table.
    pub query_rows: usize,
    /// Base RNG seed; table `i` derives its own stream from `seed` and
    /// `i`, the query sets and serving trace from `seed` alone.
    pub seed: u64,
}

impl Default for HeterogeneousLakeWorkload {
    fn default() -> Self {
        HeterogeneousLakeWorkload {
            tables: 100_000,
            clusters: 24,
            cluster_headers: 16,
            max_cols: 6,
            max_rows: 256,
            zipf_s: 1.1,
            value_vocab: 4_000,
            null_rate: 0.08,
            dirty_rate: 0.04,
            sparse_rate: 0.25,
            queries: 8,
            query_rows: 16,
            seed: 83,
        }
    }
}

impl HeterogeneousLakeWorkload {
    /// One header token of a cluster's pool — fully alphanumeric so
    /// `word_tokens` keeps it whole.
    fn cluster_header(&self, cluster: usize, t: usize) -> String {
        format!("h{cluster}x{t}")
    }

    /// One value token of a cluster's vocabulary.
    fn cluster_value(&self, cluster: usize, t: usize) -> String {
        format!("c{cluster}v{t}")
    }

    /// The `i`-th lake table (`hetero_t<i>`), generated from its own
    /// seeded stream: same spec + same `i` → identical table, regardless
    /// of which other tables were ever materialized.
    pub fn table(&self, i: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1 + i as u64));
        let clusters = self.clusters.max(1);
        let zipf_clusters = ZipfRanks::new(clusters, self.zipf_s.max(0.0));
        // First draw: the primary cluster (tests re-derive it from here).
        let primary = zipf_clusters.sample(&mut rng);
        let secondary = if clusters > 1 && rng.gen_bool(0.3) {
            Some(zipf_clusters.sample(&mut rng))
        } else {
            None
        };

        // Zipf-ranked size classes double rows from the 2-row floor.
        let max_rows = self.max_rows.max(2);
        let mut classes = 1usize;
        while (2usize << (classes - 1)) < max_rows {
            classes += 1;
        }
        let z = ZipfRanks::new(classes, self.zipf_s.max(0.0)).sample(&mut rng);
        let rows = (2usize << z).min(max_rows);
        let cols = 1 + ZipfRanks::new(self.max_cols.max(1), self.zipf_s.max(0.0)).sample(&mut rng);

        let headers_per_cluster = self.cluster_headers.max(1);
        let vocab = self.value_vocab.max(1);
        let null_rate = self.null_rate.clamp(0.0, 1.0);
        let dirty_rate = self.dirty_rate.clamp(0.0, 1.0);
        let sparse_rate = self.sparse_rate.clamp(0.0, 1.0);

        // Per-column plan: header, value cluster, sparsity, numeric-ness.
        let mut headers: Vec<String> = Vec::with_capacity(cols);
        let mut value_cluster: Vec<usize> = Vec::with_capacity(cols);
        let mut sparse: Vec<bool> = Vec::with_capacity(cols);
        let mut numeric: Vec<bool> = Vec::with_capacity(cols);
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for c in 0..cols {
            let (mut header, vc) = if c == 0 {
                // The anchor column: always a primary-cluster header over
                // primary-cluster values, clean and dense.
                (
                    self.cluster_header(primary, rng.gen_range(0..headers_per_cluster)),
                    primary,
                )
            } else {
                match (rng.gen_range(0..4), secondary) {
                    (0, _) => (
                        GLOBAL_HEADERS[rng.gen_range(0..GLOBAL_HEADERS.len())].to_string(),
                        primary,
                    ),
                    (1, Some(s)) => (
                        self.cluster_header(s, rng.gen_range(0..headers_per_cluster)),
                        s,
                    ),
                    _ => (
                        self.cluster_header(primary, rng.gen_range(0..headers_per_cluster)),
                        primary,
                    ),
                }
            };
            if !seen.insert(header.clone()) {
                // Schemas require unique headers; real corpora dedupe
                // repeated ones with positional suffixes.
                header = format!("{header} col{c}");
                seen.insert(header.clone());
            }
            headers.push(header);
            value_cluster.push(vc);
            sparse.push(c != 0 && rng.gen_bool(sparse_rate));
            numeric.push(c != 0 && rng.gen_bool(0.25));
        }

        let mut data: Vec<Vec<Value>> = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for c in 0..cols {
                if c == 0 {
                    row.push(Value::Text(
                        self.cluster_value(primary, rng.gen_range(0..vocab)),
                    ));
                    continue;
                }
                if sparse[c] && rng.gen_bool(0.9) {
                    row.push(Value::null_missing());
                    continue;
                }
                if rng.gen_bool(null_rate) {
                    row.push(Value::null_missing());
                    continue;
                }
                if numeric[c] {
                    row.push(Value::Int(rng.gen_range(0..1_000_000_i64)));
                    continue;
                }
                let tok = self.cluster_value(value_cluster[c], rng.gen_range(0..vocab));
                if rng.gen_bool(dirty_rate) {
                    // A mangled, near-unique cell — the typo/encoding dirt
                    // profiling studies report for open-data CSVs.
                    row.push(Value::Text(format!("{tok}zz{r}")));
                } else {
                    row.push(Value::Text(tok));
                }
            }
            data.push(row);
        }
        Table::from_rows(&format!("hetero_t{i}"), &headers, data).expect("fixed arity")
    }

    /// Stream every lake table in slot order, one at a time.
    pub fn stream(&self) -> impl Iterator<Item = Table> + '_ {
        (0..self.tables).map(|i| self.table(i))
    }

    /// Stream the whole workload into a fresh [`DataLake`] (slot `i`
    /// holds [`HeterogeneousLakeWorkload::table`]`(i)`).
    pub fn lake(&self) -> DataLake {
        let mut lake = DataLake::new();
        for t in self.stream() {
            lake.add_table(t).expect("streamed names are unique");
        }
        lake
    }

    /// The **token-mode** query set: query `q` (`hetero_q<q>`) keeps a
    /// random `query_rows`-subset of the anchor-column tokens of an evenly
    /// spaced lake table, so a high-overlap match always exists and
    /// queries spread across every slot stripe (and every cluster the
    /// stripe touches).
    pub fn queries(&self) -> Vec<Table> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let stride = (self.tables / self.queries.max(1)).max(1);
        let mut out = Vec::with_capacity(self.queries);
        for q in 0..self.queries {
            let source = self.table((q * stride) % self.tables.max(1));
            let mut rows: Vec<Vec<Value>> = source.rows().map(|r| vec![r[0].clone()]).collect();
            rows.shuffle(&mut rng);
            rows.truncate(self.query_rows.max(1));
            let header = source.schema().column(0).name.clone();
            out.push(
                Table::from_rows(&format!("hetero_q{q}"), &[header], rows).expect("fixed arity"),
            );
        }
        out
    }

    /// The **metadata-mode** query set: query `q` (`hetero_hq<q>`)
    /// carries the first three header tokens of cluster `q % clusters` as
    /// its column headers (values are placeholders) — the
    /// "find tables annotated like this" probe the metadata-aware engine
    /// answers from its header-token index.
    pub fn header_queries(&self) -> Vec<Table> {
        let clusters = self.clusters.max(1);
        let cols = self.cluster_headers.clamp(1, 3);
        (0..self.queries)
            .map(|q| {
                let cluster = q % clusters;
                let headers: Vec<String> =
                    (0..cols).map(|t| self.cluster_header(cluster, t)).collect();
                let row = vec![Value::Text("probe".to_string()); cols];
                Table::from_rows(&format!("hetero_hq{q}"), &headers, vec![row])
                    .expect("fixed arity")
            })
            .collect()
    }

    /// A zipfian read/churn **serving trace** over the heterogeneous lake:
    /// `(query pool, ops)`. Reads draw from
    /// [`queries`](HeterogeneousLakeWorkload::queries) under the spec's
    /// Zipf skew; writes are adds of fresh streamed tables
    /// (`hetero_t<tables + n>`), plus removes and in-place replaces of
    /// live ones. The trace is valid replayed strictly in order against
    /// [`lake`](HeterogeneousLakeWorkload::lake) and safe under any
    /// interleaving via [`ServingOp::apply_tolerant`]. The initial lake is
    /// *not* materialized here — stream it separately, preserving the
    /// O(1)-state contract.
    pub fn serving_ops(&self, ops: usize, read_ratio: f64) -> (Vec<Table>, Vec<ServingOp>) {
        let pool = self.queries();
        // Distinct stream from the table generator's so trace shape and
        // lake shape vary independently under one seed.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7e11_a55e_d1ce_0afe);
        let zipf = ZipfRanks::new(pool.len().max(1), self.zipf_s.max(0.0));

        let reads = ((ops as f64) * read_ratio.clamp(0.0, 1.0)).round() as usize;
        let reads = reads.min(ops);
        let mut kinds: Vec<bool> = Vec::with_capacity(ops);
        kinds.extend(std::iter::repeat_n(true, reads));
        kinds.extend(std::iter::repeat_n(false, ops - reads));
        kinds.shuffle(&mut rng);

        let mut alive: Vec<String> = (0..self.tables).map(|i| format!("hetero_t{i}")).collect();
        let mut next = 0usize;
        let mut out = Vec::with_capacity(ops);
        for is_read in kinds {
            if is_read {
                out.push(ServingOp::Query(zipf.sample(&mut rng)));
                continue;
            }
            match rng.gen_range(0..3) {
                0 => {
                    let t = self.table(self.tables + next);
                    next += 1;
                    alive.push(t.name().to_string());
                    out.push(ServingOp::Mutate(ChurnOp::Add(t)));
                }
                1 if alive.len() > 1 => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive.swap_remove(idx);
                    out.push(ServingOp::Mutate(ChurnOp::Remove(name)));
                }
                _ if !alive.is_empty() => {
                    let idx = rng.gen_range(0..alive.len());
                    let name = alive[idx].clone();
                    let t = self.table(self.tables + next).renamed(&name);
                    next += 1;
                    out.push(ServingOp::Mutate(ChurnOp::Replace(t)));
                }
                _ => {
                    let t = self.table(self.tables + next);
                    next += 1;
                    alive.push(t.name().to_string());
                    out.push(ServingOp::Mutate(ChurnOp::Add(t)));
                }
            }
        }
        (pool, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_workload_shapes() {
        let w = FdWorkload {
            tables: 3,
            rows: 20,
            ..FdWorkload::default()
        };
        let tables = w.generate();
        assert_eq!(tables.len(), 3);
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(t.row_count(), 20);
            assert_eq!(t.column_count(), 2);
            assert_eq!(t.column_index("key"), Some(0));
            assert_eq!(t.column_index(&format!("attr_{i}")), Some(1));
        }
    }

    #[test]
    fn fd_workload_is_deterministic() {
        let a = FdWorkload::default().generate();
        let b = FdWorkload::default().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn smaller_key_domain_means_more_shared_keys() {
        let dense = FdWorkload {
            key_domain: 10,
            ..FdWorkload::default()
        }
        .generate();
        let sparse = FdWorkload {
            key_domain: 10_000,
            ..FdWorkload::default()
        }
        .generate();
        let shared = |tables: &[Table]| {
            let a = tables[0].column_token_set(0);
            let b = tables[1].column_token_set(0);
            a.intersection(&b).count()
        };
        assert!(shared(&dense) > shared(&sparse));
    }

    #[test]
    fn churn_trace_is_deterministic_and_valid() {
        let w = ChurnWorkload::default();
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.initial.len(), b.initial.len());
        assert_eq!(a.ops.len(), w.ops);
        for (x, y) in a.initial.iter().zip(&b.initial) {
            assert_eq!(x, y);
        }
        // Replaying the trace against a lake never panics: adds are fresh
        // names, removes/replaces hit live tables.
        let mut lake = DataLake::from_tables(a.initial.clone()).unwrap();
        let mut mutations = 0;
        let mut queries = 0;
        for op in &a.ops {
            if op.apply(&mut lake) {
                mutations += 1;
            } else {
                queries += 1;
            }
        }
        assert!(mutations > 0 && queries > 0, "trace must interleave");
        assert!(!lake.is_empty());
    }

    #[test]
    fn churn_queries_have_a_live_full_containment_match() {
        let trace = ChurnWorkload {
            ops: 40,
            ..ChurnWorkload::default()
        }
        .generate();
        let mut lake = DataLake::from_tables(trace.initial.clone()).unwrap();
        for op in &trace.ops {
            if let ChurnOp::Query(q) = op {
                let q_keys = q.column_token_set(0);
                assert!(!q_keys.is_empty());
                let contained = lake.tables().any(|t| {
                    let keys = t.column_token_set(0);
                    q_keys.iter().all(|k| keys.contains(k))
                });
                assert!(contained, "query {} has no superset table", q.name());
            }
            op.apply(&mut lake);
        }
    }

    #[test]
    fn topk_workload_is_skewed_and_every_query_has_a_hub() {
        let w = TopKWorkload::default();
        let trace = w.generate();
        assert_eq!(trace.tables.len(), w.tables);
        assert_eq!(trace.queries.len(), w.queries);
        // Deterministic.
        let again = w.generate();
        assert_eq!(trace.tables, again.tables);
        assert_eq!(trace.queries, again.queries);
        // Power-law skew: sizes descend, and the overwhelming majority of
        // tables sit at the tail floor — below half the query size, so
        // they can never pass a 0.5 containment threshold.
        let sizes: Vec<usize> = trace.tables.iter().map(|t| t.row_count()).collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] >= pair[1], "sizes must descend: {pair:?}");
        }
        let sub_threshold = sizes
            .iter()
            .filter(|&&s| (s as f64) < 0.5 * w.query_rows as f64)
            .count();
        assert!(
            sub_threshold * 10 >= w.tables * 9,
            "at least 90% of tables must be provably below threshold, got {sub_threshold}/{}",
            w.tables
        );
        // Every query is fully contained in its source hub.
        for (qi, q) in trace.queries.iter().enumerate() {
            let hub = &trace.tables[qi % w.hub_tables];
            let hub_keys = hub.column_token_set(0);
            let q_keys = q.column_token_set(0);
            assert!(!q_keys.is_empty());
            assert!(
                q_keys.iter().all(|k| hub_keys.contains(k)),
                "query {qi} must be a subset of {}",
                hub.name()
            );
        }
    }

    #[test]
    fn topk_workload_degenerate_specs_are_clamped_not_panics() {
        // hub_tables: 0 used to index an empty hub vec once queries > 0.
        let trace = TopKWorkload {
            hub_tables: 0,
            tables: 3,
            queries: 2,
            ..TopKWorkload::default()
        }
        .generate();
        assert_eq!(trace.tables.len(), 3);
        assert_eq!(trace.queries.len(), 2);
        // Rank 0 serves as the implicit hub: queries stay contained.
        let hub_keys = trace.tables[0].column_token_set(0);
        for q in &trace.queries {
            assert!(q.column_token_set(0).iter().all(|k| hub_keys.contains(k)));
        }
        // Zero tables also survives.
        let tiny = TopKWorkload {
            tables: 0,
            hub_tables: 0,
            queries: 1,
            ..TopKWorkload::default()
        }
        .generate();
        assert_eq!(tiny.tables.len(), 1);
        assert_eq!(tiny.queries.len(), 1);
    }

    #[test]
    fn santos_workload_is_deterministic_and_type_dense() {
        let w = SantosWorkload {
            tables: 60,
            queries: 4,
            ..SantosWorkload::default()
        };
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.tables.len(), 60);
        assert_eq!(a.queries.len(), 4);

        // Type density: every type pool must back many tables' columns —
        // with 8 types over 60 × 3 columns each type covers ~20 tables,
        // so a typed query retrieves a large candidate fraction.
        for ty in 0..w.types {
            let marker = format!("ent{ty}x");
            let covered = a
                .tables
                .iter()
                .filter(|t| {
                    (0..t.column_count()).any(|c| {
                        t.column_token_set(c)
                            .iter()
                            .any(|tok| tok.starts_with(&marker))
                    })
                })
                .count();
            assert!(
                covered * w.types >= a.tables.len(),
                "type {ty} covers only {covered}/{} tables",
                a.tables.len()
            );
        }

        // Every query column is dominated by KB-known entities (clean
        // queries), so annotation confidence is high and the type path —
        // not the full-scan fallback — is exercised.
        for q in &a.queries {
            for c in 0..q.column_count() {
                let tokens = q.column_token_set(c);
                assert!(!tokens.is_empty());
                assert!(
                    tokens.iter().all(|tok| a.kb.knows(tok)),
                    "query column {c} of {} holds unknown tokens",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn santos_workload_degenerate_specs_are_clamped() {
        let trace = SantosWorkload {
            tables: 0,
            types: 0,
            cols_per_table: 5,
            queries: 1,
            ..SantosWorkload::default()
        }
        .generate();
        assert_eq!(trace.tables.len(), 1);
        assert_eq!(trace.queries.len(), 1);
        // cols clamp to the (clamped) type count.
        assert_eq!(trace.tables[0].column_count(), 1);
    }

    #[test]
    fn serving_trace_is_deterministic_with_exact_read_share() {
        let spec = ServingWorkload {
            tables: 40,
            query_pool: 8,
            ops: 200,
            read_ratio: 0.8,
            ..ServingWorkload::default()
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.initial.len(), 40);
        assert_eq!(a.pool.len(), 8);
        assert_eq!(a.ops.len(), 200);
        let queries = |t: &ServingTrace| {
            t.ops
                .iter()
                .filter(|op| matches!(op, ServingOp::Query(_)))
                .count()
        };
        assert_eq!(queries(&a), 160, "read share is exact, not expected");
        assert_eq!(queries(&a), queries(&b));
        for (x, y) in a.ops.iter().zip(&b.ops) {
            match (x, y) {
                (ServingOp::Query(i), ServingOp::Query(j)) => assert_eq!(i, j),
                (ServingOp::Mutate(_), ServingOp::Mutate(_)) => {}
                _ => panic!("traces diverge"),
            }
        }
    }

    #[test]
    fn serving_trace_mutations_replay_in_order_and_tolerantly() {
        let trace = ServingWorkload {
            tables: 24,
            ops: 120,
            read_ratio: 0.5,
            ..ServingWorkload::default()
        }
        .generate();
        // Strict in-order replay is valid (ChurnOp::apply panics if not).
        let mut lake = DataLake::new();
        for t in &trace.initial {
            lake.add(t.clone()).unwrap();
        }
        for op in &trace.ops {
            if let ServingOp::Mutate(m) = op {
                m.apply(&mut lake);
            }
        }
        // Tolerant replay of mutations in *reverse* order must not panic.
        let mut lake = DataLake::new();
        for t in &trace.initial {
            lake.add(t.clone()).unwrap();
        }
        for op in trace.ops.iter().rev() {
            op.apply_tolerant(&mut lake);
        }
        // Query ops always index into the pool.
        for op in &trace.ops {
            if let ServingOp::Query(i) = op {
                assert!(*i < trace.pool.len());
            }
        }
    }

    #[test]
    fn serving_zipf_skews_queries_toward_low_ranks() {
        let trace = ServingWorkload {
            query_pool: 16,
            ops: 1_000,
            read_ratio: 1.0,
            zipf_s: 1.2,
            ..ServingWorkload::default()
        }
        .generate();
        let mut counts = vec![0usize; 16];
        for op in &trace.ops {
            if let ServingOp::Query(i) = op {
                counts[*i] += 1;
            }
        }
        let head: usize = counts[..4].iter().sum();
        assert!(head > 500, "zipf(1.2) head should dominate: {counts:?}");
        assert!(counts[0] > counts[8], "rank 0 beats mid-tail: {counts:?}");
        // Uniform (s = 0) spreads out.
        let uniform = ServingWorkload {
            query_pool: 16,
            ops: 1_000,
            read_ratio: 1.0,
            zipf_s: 0.0,
            ..ServingWorkload::default()
        }
        .generate();
        let mut ucounts = vec![0usize; 16];
        for op in &uniform.ops {
            if let ServingOp::Query(i) = op {
                ucounts[*i] += 1;
            }
        }
        let uhead: usize = ucounts[..4].iter().sum();
        assert!(uhead < 400, "uniform head should not dominate: {ucounts:?}");
    }

    #[test]
    fn topk_workload_same_seed_generates_identical_traces() {
        let spec = TopKWorkload {
            tables: 30,
            hub_tables: 3,
            hub_rows: 48,
            tail_rows: 4,
            vocab: 600,
            queries: 5,
            query_rows: 24,
            seed: 1234,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.tables, b.tables, "lake tables must be reproducible");
        assert_eq!(a.queries, b.queries, "query tables must be reproducible");
        let other = TopKWorkload { seed: 1235, ..spec }.generate();
        assert_ne!(a.tables, other.tables, "the seed must actually matter");
    }

    #[test]
    fn santos_workload_same_seed_generates_identical_traces() {
        let spec = SantosWorkload {
            tables: 24,
            queries: 4,
            ..SantosWorkload::default()
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.tables, b.tables, "lake tables must be reproducible");
        assert_eq!(a.queries, b.queries, "query tables must be reproducible");
        assert_eq!(
            a.kb.stats(),
            b.kb.stats(),
            "the synthesized KB must be reproducible"
        );
        let other = SantosWorkload {
            seed: spec.seed + 1,
            ..spec
        }
        .generate();
        assert_ne!(a.tables, other.tables, "the seed must actually matter");
    }

    fn small_hetero() -> HeterogeneousLakeWorkload {
        HeterogeneousLakeWorkload {
            tables: 120,
            clusters: 6,
            cluster_headers: 8,
            max_cols: 4,
            max_rows: 64,
            value_vocab: 200,
            queries: 6,
            query_rows: 4,
            seed: 83,
            ..HeterogeneousLakeWorkload::default()
        }
    }

    #[test]
    fn hetero_table_is_a_pure_function_of_spec_and_index() {
        let spec = small_hetero();
        for i in [0usize, 17, 119] {
            assert_eq!(
                spec.table(i),
                spec.table(i),
                "hetero table {i} must be a pure function of (spec, i)"
            );
        }
        let a: Vec<Table> = spec.stream().collect();
        let b: Vec<Table> = spec.stream().collect();
        assert_eq!(a, b, "hetero lake must be reproducible");
        assert_eq!(spec.queries(), spec.queries());
        assert_eq!(spec.header_queries(), spec.header_queries());
        let other = HeterogeneousLakeWorkload {
            seed: 84,
            ..spec.clone()
        };
        assert_ne!(
            spec.table(0),
            other.table(0),
            "the seed must actually matter"
        );
    }

    #[test]
    fn hetero_sizes_are_zipf_skewed_with_a_long_tail() {
        let spec = small_hetero();
        let sizes: Vec<usize> = spec.stream().map(|t| t.row_count()).collect();
        let floor = sizes.iter().filter(|&&n| n == 2).count();
        let head = sizes.iter().filter(|&&n| n == spec.max_rows).count();
        assert!(
            floor * 3 > sizes.len() && floor > head,
            "the 2-row floor should be the modal size class, got {floor}/{} (head {head})",
            sizes.len()
        );
        let max = *sizes.iter().max().unwrap();
        assert!(
            max >= 16,
            "the head of the size distribution should be much larger than the floor, got {max}"
        );
    }

    #[test]
    fn hetero_clusters_share_headers_and_cluster_of_matches_the_table() {
        // The primary topical cluster of table `i`, re-derived from the
        // table's own seeded stream (the cluster is its first draw).
        let cluster_of = |spec: &HeterogeneousLakeWorkload, i: usize| {
            let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(1 + i as u64));
            ZipfRanks::new(spec.clusters.max(1), spec.zipf_s.max(0.0)).sample(&mut rng)
        };
        let spec = small_hetero();
        for i in 0..spec.tables {
            let t = spec.table(i);
            let cluster = cluster_of(&spec, i);
            let anchor = &t.schema().column(0).name;
            assert!(
                anchor.starts_with(&format!("h{cluster}x")),
                "table {i}: anchor header {anchor:?} must come from cluster {cluster}"
            );
        }
        // Popular clusters are shared by many tables — header vocab overlaps.
        let head = (0..spec.tables)
            .filter(|&i| cluster_of(&spec, i) == 0)
            .count();
        assert!(
            head >= spec.tables / 4,
            "the Zipf head cluster should dominate, got {head}/{}",
            spec.tables
        );
    }

    #[test]
    fn hetero_dirt_materializes_nulls_and_dirty_cells() {
        let spec = HeterogeneousLakeWorkload {
            tables: 60,
            null_rate: 0.3,
            dirty_rate: 0.3,
            ..small_hetero()
        };
        let mut nulls = 0usize;
        let mut dirty = 0usize;
        let mut anchor_nulls = 0usize;
        for t in spec.stream() {
            for row in t.rows() {
                if row[0].is_null() {
                    anchor_nulls += 1;
                }
                for v in row {
                    match v {
                        Value::Text(s) if s.contains("zz") => dirty += 1,
                        v if v.is_null() => nulls += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(nulls > 0, "null cells should materialize");
        assert!(dirty > 0, "dirty cells should materialize");
        assert_eq!(anchor_nulls, 0, "the anchor column must stay clean");
    }

    #[test]
    fn hetero_serving_trace_is_deterministic_and_replays_in_order() {
        let spec = HeterogeneousLakeWorkload {
            tables: 30,
            ..small_hetero()
        };
        let (pool_a, ops_a) = spec.serving_ops(80, 0.7);
        let (pool_b, ops_b) = spec.serving_ops(80, 0.7);
        assert_eq!(pool_a, pool_b);
        assert_eq!(ops_a, ops_b, "serving trace must be deterministic");
        let reads = ops_a
            .iter()
            .filter(|op| matches!(op, ServingOp::Query(_)))
            .count();
        assert_eq!(reads, 56, "exact read share");
        for op in &ops_a {
            if let ServingOp::Query(i) = op {
                assert!(*i < pool_a.len());
            }
        }
        // Strict in-order replay must be valid against the streamed lake.
        let mut lake = spec.lake();
        for op in &ops_a {
            if let ServingOp::Mutate(m) = op {
                assert!(m.apply(&mut lake), "trace is valid in order");
            }
        }
    }
}
