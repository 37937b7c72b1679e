//! Bounded retrieval for the slot-keyed legs (SANTOS typed and typeless,
//! metadata), the slot-indexed tables they score from, and the token
//! store the discovery legs read.
//!
//! * **The kernel.** [`bounded_top_k`] takes `(slot, bound, mark)`
//!   candidates whose bound is a sound ceiling on the exact score, scores
//!   them best bound first (slot breaks ties) and stops at the candidate
//!   cap, or as soon as the k-th kept score strictly beats every remaining
//!   bound. Tables it never scores can therefore never enter the top-k,
//!   and a bound that *ties* the k-th score is still scored, so name
//!   tie-breaks match the exhaustive output: any finite cap covering the
//!   candidates returns exactly what [`score_all`] — the exhaustive oracle
//!   path legs run at `cap == usize::MAX` — returns. Only the prefix the
//!   cap lets it reach is sorted; the rest is only partitioned off behind
//!   it. Both keep a kept hit as a `(score, &name)` pair and allocate a
//!   name only for the `k` they return. A candidate's mark is whatever its
//!   score reads beyond the slot: the typeless SANTOS leg's handle on the
//!   walk's per-domain overlap counts, nothing for the other legs.
//! * **Slot tables.** A leg's per-table state lives in a [`SlotTable`],
//!   indexed by the lake's stable, reused slot the way `DataLake` stores
//!   its tables, so reaching a candidate is one indexed load. A shard's
//!   table indexes its stripe densely (`slot / shards`), so the other
//!   stripes' slots cost it nothing.
//! * **The token store.** [`TokenPostings`] owns an id space: it interns
//!   each column of a table into a sorted id run, keeps
//!   `token id → (slot, column)` postings over those runs, resolves query
//!   columns against its pool, and walks the query's postings once to
//!   rank candidates ([`TokenPostings::ranked`]). The walk counts the
//!   table-level overlap `|Q ∩ T|` the slot-keyed legs turn into bounds,
//!   and, for a [`Tally`] that asks, the per-domain overlap `|Qj ∩ Cc|`
//!   of every query column `j` and candidate column `c` it reaches
//!   ([`DomainOverlaps`]): each posting of a query token is one domain
//!   holding it, so the count is the walk's own work, with no run merged
//!   and nothing sorted. There is one value store per shard, read by
//!   SANTOS and the joinable leg; metadata keeps its header store. SANTOS
//!   reads the value runs by slot, the joinable leg per column domain for
//!   its exact verification and posting merge. The store alone rewrites
//!   ids on compaction; legs read runs by slot or domain and never see a
//!   remap. Its layout is compact: the pool keeps each token's bytes
//!   once, in one arena; each indexed slot's runs are one packed block in
//!   a slot table — the column ends, then the runs back to back — read
//!   through a borrowed [`Runs`] view, with the column count beside it in
//!   the table's entry; and the postings are a `Vec`
//!   indexed by dense token id whose lone posting — most tokens sit in
//!   one column — is stored inline, with no heap list of its own. A token
//!   is live exactly when its list is non-empty, which is all compaction
//!   needs to know. The walk finds a candidate through a per-thread,
//!   slot-indexed cell stamped per query token, so no query clears it.
//!
//! A slot-keyed leg keeps only what is its own: annotation, the bound
//! formula and the score function, which takes Jaccard from
//! [`QueryColumn::jaccard_of`] — over the walk's counts on the typeless
//! SANTOS bounded path, over a merge of two runs
//! ([`QueryColumn::jaccard`]) everywhere else.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashSet;

use dialite_table::Table;

use crate::pool::{QueryColumn, StringPool, POOL_ID_DROPPED};
use crate::shard::ShardScope;
use crate::types::{score_cmp, Discovered};

/// Per-table state a slot-keyed leg scores. The kernel needs only its
/// name: to skip the query's own table and to report hits.
pub(crate) trait Named {
    fn name(&self) -> &str;
}

/// A leg that keeps nothing per table but its name.
impl Named for String {
    fn name(&self) -> &str {
        self
    }
}

/// The reporting rule both retrieval paths apply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Report<'q> {
    /// Hits returned, best first.
    pub k: usize,
    /// A score is kept only when `score >= min_score && score > 0`.
    pub min_score: f64,
    /// The query's own table, should it live in the lake: never scored,
    /// counted or reported.
    pub exclude: &'q str,
}

impl Report<'_> {
    fn keeps(&self, score: f64) -> bool {
        score >= self.min_score && score > 0.0
    }

    /// The best `k` kept `(score, name)` hits by the
    /// [`top_k`](crate::types::top_k) rule — score descending, NaN last,
    /// name ascending — and the only ones given an owned name.
    fn top(&self, mut hits: Vec<(f64, &str)>) -> Vec<Discovered> {
        hits.sort_by(|a, b| score_cmp(b.0, a.0).then_with(|| a.1.cmp(b.1)));
        hits.truncate(self.k);
        hits.into_iter()
            .map(|(score, name)| Discovered {
                table: name.to_string(),
                score,
            })
            .collect()
    }
}

/// What one capped retrieval did — the observability half of the
/// candidate-cap contract, returned by
/// [`SantosDiscovery::discover_capped`](crate::SantosDiscovery::discover_capped)
/// and [`MetadataDiscovery::discover_capped`](crate::MetadataDiscovery::discover_capped).
/// The kernel fills the counts; each leg sets the flags it owns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Candidate tables handed to the kernel: surfaced by the leg's
    /// inverted index, or every table on a full scan.
    pub candidates_retrieved: usize,
    /// Candidates actually run through the leg's exact score.
    pub candidates_scored: usize,
    /// Candidates left unscored because the k-th best kept score provably
    /// beats their upper bound (type overlap for typed SANTOS queries,
    /// header overlap for metadata).
    pub bound_pruned: usize,
    /// Retrieval stopped at the candidate cap (results are best-effort).
    pub cap_hit: bool,
    /// The cap was unlimited and retrieval scored every table — the
    /// leg's exhaustive oracle path (for SANTOS, typeless queries only).
    pub full_scan: bool,
    /// SANTOS only (always 0 for metadata): typeless candidates left
    /// unscored because the k-th best kept score provably beats their
    /// synthesized-signal (token-overlap) upper bound.
    pub typeless_pruned: usize,
}

/// Exhaustive retrieval: score every `(slot, table)` candidate, no
/// ranking, no pruning.
pub(crate) fn score_all<'t, T: Named + 't>(
    candidates: impl IntoIterator<Item = (u32, &'t T)>,
    report: Report,
    mut score: impl FnMut(u32, &T) -> f64,
) -> (Vec<Discovered>, RetrievalStats) {
    let mut run = RetrievalStats::default();
    let mut hits = Vec::new();
    for (slot, cand) in candidates {
        run.candidates_retrieved += 1;
        if cand.name() == report.exclude {
            continue;
        }
        run.candidates_scored += 1;
        let s = score(slot, cand);
        if report.keeps(s) {
            hits.push((s, cand.name()));
        }
    }
    (report.top(hits), run)
}

/// Bounded retrieval: score `ranked` `(slot, bound, mark)` candidates, one
/// per slot, best bound first over `tables`, stopping after `cap` scored
/// candidates or once the k-th kept score strictly beats every remaining
/// bound. Every `bound` must be at least its table's `score`; the mark is
/// handed to `score` as it came.
pub(crate) fn bounded_top_k<T: Named, M: Copy>(
    tables: &SlotTable<T>,
    mut ranked: Vec<(u32, f64, M)>,
    cap: usize,
    report: Report,
    mut score: impl FnMut(u32, &T, M) -> f64,
) -> (Vec<Discovered>, RetrievalStats) {
    // Slot breaks bound ties so the scored prefix is deterministic even
    // when the cap cuts inside a tie group; with one entry per slot the
    // order is total.
    let best_first = |a: &(u32, f64, M), b: &(u32, f64, M)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    // The loop visits at most `cap + 1` entries plus the ones it skips, so
    // only that prefix is put in order up front: a query reaching far more
    // tables than the cap does not pay to sort them all.
    let mut ordered = cap.saturating_add(1).min(ranked.len());
    if ordered < ranked.len() {
        ranked.select_nth_unstable_by(ordered, best_first);
    }
    ranked[..ordered].sort_by(best_first);
    let mut run = RetrievalStats {
        candidates_retrieved: ranked.len(),
        ..RetrievalStats::default()
    };
    let mut hits = Vec::new();
    // The best `k` kept scores, descending.
    let mut kept: Vec<f64> = Vec::new();
    for pos in 0..ranked.len() {
        if pos == ordered {
            ranked[pos..].sort_by(best_first);
            ordered = ranked.len();
        }
        let (slot, bound, mark) = ranked[pos];
        let kth = report.k.checked_sub(1).and_then(|i| kept.get(i));
        if kth.is_some_and(|&kth| kth > bound) {
            run.bound_pruned = ranked.len() - pos;
            break;
        }
        if run.candidates_scored >= cap {
            run.cap_hit = true;
            break;
        }
        let Some(cand) = tables.get(slot) else {
            continue;
        };
        if cand.name() == report.exclude {
            continue;
        }
        run.candidates_scored += 1;
        let s = score(slot, cand, mark);
        if report.keeps(s) {
            let at = kept.partition_point(|&x| score_cmp(x, s) == Ordering::Greater);
            kept.insert(at, s);
            kept.truncate(report.k);
            hits.push((s, cand.name()));
        }
    }
    (report.top(hits), run)
}

/// Per-slot state of one leg, stored by the lake's stable, reused slot
/// index the way `DataLake` stores its tables: reading a slot is one
/// indexed load, and iteration runs in ascending slot order. Its length
/// follows the highest slot stored, which suits the lake's dense, reused
/// slots. A table scoped to one shard's stripe stores slot `s` at
/// `s / shards`, so the other stripes' slots cost it nothing; a slot
/// outside the stripe lays the table out over every slot first.
#[derive(Clone)]
pub(crate) struct SlotTable<T> {
    /// Indexed by `slot / scope.of()`; `None` marks a free slot.
    entries: Vec<Option<T>>,
    /// Occupied entries.
    len: usize,
    /// The stripe every stored slot belongs to.
    scope: ShardScope,
}

impl<T> Default for SlotTable<T> {
    fn default() -> SlotTable<T> {
        SlotTable::new(ShardScope::all())
    }
}

impl<T> SlotTable<T> {
    /// An empty table for the slots `scope` admits.
    pub(crate) fn new(scope: ShardScope) -> SlotTable<T> {
        SlotTable {
            entries: Vec::new(),
            len: 0,
            scope,
        }
    }

    /// Where `slot` is stored; `None` outside the stripe.
    fn at(&self, slot: u32) -> Option<usize> {
        self.scope
            .admits(slot)
            .then(|| (slot / self.scope.of()) as usize)
    }

    /// The slot stored at entry `at`.
    fn slot(&self, at: usize) -> u32 {
        at as u32 * self.scope.of() + self.scope.shard()
    }

    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.entries.get(self.at(slot)?)?.as_ref()
    }

    /// Store `value` at `slot`, returning what was there.
    pub(crate) fn insert(&mut self, slot: u32, value: T) -> Option<T> {
        let at = match self.at(slot) {
            Some(at) => at,
            None => {
                self.widen();
                slot as usize
            }
        };
        if at >= self.entries.len() {
            self.entries.resize_with(at + 1, || None);
        }
        let old = self.entries[at].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Free `slot`, returning what was there. Trailing free entries are
    /// dropped, so the table spans the highest stored slot only.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<T> {
        let at = self.at(slot)?;
        let old = self.entries.get_mut(at)?.take()?;
        self.len -= 1;
        while let Some(None) = self.entries.last() {
            self.entries.pop();
        }
        Some(old)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every stored `(slot, value)`, in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        let entries = self.entries.iter().enumerate();
        entries.filter_map(|(at, entry)| Some((self.slot(at), entry.as_ref()?)))
    }

    /// Every stored value, in ascending slot order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.entries.iter_mut().flatten()
    }

    /// One past the highest slot the table can hold without growing: a
    /// bound on every stored slot.
    pub(crate) fn slot_bound(&self) -> usize {
        self.entries.len() * self.scope.of() as usize
    }

    /// Re-lay the table out over every slot, for a slot outside its
    /// stripe.
    fn widen(&mut self) {
        let SlotTable { entries, scope, .. } =
            std::mem::replace(self, SlotTable::new(ShardScope::all()));
        for (at, entry) in entries.into_iter().enumerate() {
            if let Some(value) = entry {
                self.insert(at as u32 * scope.of() + scope.shard(), value);
            }
        }
    }
}

/// Floor on the retired-token weight before a removal may compact the
/// store of a standalone SANTOS engine and of the metadata leg; the
/// default
/// [`LshEnsembleConfig::pool_compact_min`](crate::LshEnsembleConfig::pool_compact_min),
/// which floors a shard's shared value store.
pub(crate) const POOL_COMPACT_MIN: usize = 1024;

/// A column domain's identity: `(table slot, column)`.
pub(crate) type DomainKey = (u32, u32);

/// Every column's value token set, in column order: what the value legs
/// (SANTOS, joinable) hand [`TokenPostings::insert`].
pub(crate) fn column_token_sets(table: &Table) -> Vec<HashSet<String>> {
    (0..table.column_count())
        .map(|c| table.column_token_set(c))
        .collect()
}

/// The column domains holding one token, in no particular order. A lone
/// domain is stored inline and an empty list allocates nothing, so most
/// tokens of an open-data lake — the ones in a single column — cost no
/// heap beyond their slot in the store's id-indexed `Vec`.
#[derive(Clone, Debug)]
enum Posting {
    One(DomainKey),
    /// Empty, or at least two domains: a list that falls to one goes
    /// back to [`Posting::One`].
    Many(Vec<DomainKey>),
}

impl Default for Posting {
    fn default() -> Posting {
        Posting::Many(Vec::new())
    }
}

impl Posting {
    fn is_empty(&self) -> bool {
        matches!(self, Posting::Many(keys) if keys.is_empty())
    }

    fn as_slice(&self) -> &[DomainKey] {
        match self {
            Posting::One(key) => std::slice::from_ref(key),
            Posting::Many(keys) => keys,
        }
    }

    fn push(&mut self, key: DomainKey) {
        match self {
            Posting::One(first) => *self = Posting::Many(vec![*first, key]),
            Posting::Many(keys) if keys.is_empty() => *self = Posting::One(key),
            Posting::Many(keys) => keys.push(key),
        }
    }

    /// Drop `key`, if present.
    fn remove(&mut self, key: DomainKey) {
        match self {
            Posting::One(only) if *only == key => *self = Posting::default(),
            Posting::One(_) => {}
            Posting::Many(keys) => {
                if let Some(pos) = keys.iter().position(|k| *k == key) {
                    keys.swap_remove(pos);
                }
                if let [last] = keys[..] {
                    *self = Posting::One(last);
                }
            }
        }
    }
}

/// One indexed slot's runs: its column count, kept in the slot table's
/// entry so a posting walk sizes a candidate's counts without reading the
/// block, and one packed block — each column's run end, then the runs
/// back to back.
#[derive(Clone)]
struct Packed {
    columns: u32,
    block: Box<[u32]>,
}

/// One slot's column runs, borrowed from its packed block: each column's
/// sorted, deduplicated token ids, in column order. An unindexed slot
/// reads as no columns.
#[derive(Clone, Copy, Default)]
pub(crate) struct Runs<'a> {
    /// `ends[c]`: where column `c`'s run ends in `ids`; it starts where
    /// column `c - 1`'s ends (column 0 at 0).
    ends: &'a [u32],
    /// Every column's run, back to back.
    ids: &'a [u32],
}

impl<'a> Runs<'a> {
    /// The view of a packed block: `[ends…, ids…]`.
    fn of(packed: &'a Packed) -> Runs<'a> {
        let (ends, ids) = packed.block.split_at(packed.columns as usize);
        Runs { ends, ids }
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for a slot with no columns.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Column `col`'s run; `None` past the last column.
    pub(crate) fn get(&self, col: usize) -> Option<&'a [u32]> {
        let end = *self.ends.get(col)? as usize;
        let start = col
            .checked_sub(1)
            .map_or(0, |prev| self.ends[prev] as usize);
        Some(&self.ids[start..end])
    }

    /// Every column's run, in column order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a [u32]> + 'a {
        let (ends, ids) = (self.ends, self.ids);
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(ends)
            .map(move |(start, &end)| &ids[start as usize..end as usize])
    }
}

/// A discovery token store: one [`StringPool`], each indexed slot's
/// per-column token runs, and `token id → column domains` postings over
/// them. Every indexed slot is known, even one with no tokens, so
/// zero-overlap candidates can still be ranked; a column domain exists
/// for every non-empty run. Removed tables' tokens are reclaimed once the
/// retired weight (posting entries) overtakes the live weight and the
/// store's compaction floor, so long-churn memory stays bounded.
/// `Default` is an empty placeholder that never compacts on its own
/// floor; builds swap the real store in.
#[derive(Clone, Default)]
pub(crate) struct TokenPostings {
    pool: StringPool,
    /// Indexed by token id, one per pool id: the column domains whose run
    /// contains it. A token is live exactly when its list is non-empty.
    postings: Vec<Posting>,
    /// Slot → its column count and one packed block, the slot's only
    /// allocation: each column's run end, then the runs back to back (see
    /// [`Runs`]).
    runs: SlotTable<Packed>,
    /// Σ run lengths over indexed slots: the live posting entries.
    live_weight: usize,
    /// Posting entries retired since the last compaction.
    retired_weight: usize,
    /// Retired weight a removal must exceed before it may compact.
    compact_min: usize,
}

impl TokenPostings {
    /// An empty store for the slots `scope` admits, that compacts only
    /// once the retired weight exceeds `compact_min` as well as the live
    /// weight.
    pub(crate) fn new(compact_min: usize, scope: ShardScope) -> TokenPostings {
        TokenPostings {
            pool: StringPool::new(),
            postings: Vec::new(),
            runs: SlotTable::new(scope),
            live_weight: 0,
            retired_weight: 0,
            compact_min,
        }
    }

    /// Index `slot`'s columns, each a token set, as one run per column,
    /// packed into one block. Each column interns its tokens in sorted
    /// order, so pool ids — and anything ordered by them, like the
    /// joinable exact path's `(list length, token id)` schedule — depend
    /// on the lake alone, not on `HashSet` iteration order. An already
    /// indexed slot is [`remove`](Self::remove)d first, so its old runs
    /// leave the postings and the live weight.
    pub(crate) fn insert(&mut self, slot: u32, columns: &[HashSet<String>]) {
        self.remove(slot);
        let width = columns.len() + columns.iter().map(HashSet::len).sum::<usize>();
        let mut block: Vec<u32> = Vec::with_capacity(width);
        block.resize(columns.len(), 0);
        let ids_from = block.len();
        let mut sorted: Vec<&str> = Vec::new();
        for (col, tokens) in columns.iter().enumerate() {
            sorted.clear();
            sorted.extend(tokens.iter().map(String::as_str));
            sorted.sort_unstable();
            let start = block.len();
            block.extend(sorted.iter().map(|t| self.pool.intern(t)));
            let run = &mut block[start..];
            run.sort_unstable();
            self.postings.resize_with(self.pool.len(), Posting::default);
            for &id in &*run {
                self.postings[id as usize].push((slot, col as u32));
            }
            self.live_weight += run.len();
            block[col] = u32::try_from(block.len() - ids_from).expect("run end");
        }
        let packed = Packed {
            columns: u32::try_from(columns.len()).expect("column count"),
            block: block.into_boxed_slice(),
        };
        self.runs.insert(slot, packed);
    }

    /// Retire `slot`'s runs and postings, compacting the pool once the
    /// retired weight overtakes the live weight and the floor; a no-op for
    /// an unindexed slot.
    pub(crate) fn remove(&mut self, slot: u32) {
        let Some(packed) = self.runs.remove(slot) else {
            return;
        };
        let runs = Runs::of(&packed);
        for (col, run) in runs.iter().enumerate() {
            let key: DomainKey = (slot, col as u32);
            for &id in run {
                self.postings[id as usize].remove(key);
            }
        }
        self.live_weight -= runs.ids.len();
        self.retired_weight += runs.ids.len();
        if self.retired_weight > self.live_weight.max(self.compact_min) {
            self.compact();
        }
    }

    /// Drop every token no run references — exactly those with an empty
    /// posting list — and rewrite all stored ids through the pool's
    /// remap, in place: the remap is monotone, so runs stay sorted, and
    /// the survivors' postings keep their order at their new ids.
    /// `O(live tokens + pool)`.
    fn compact(&mut self) {
        let postings = &self.postings;
        let remap = self.pool.compact(|id| !postings[id as usize].is_empty());
        for packed in self.runs.values_mut() {
            let ids_from = packed.columns as usize;
            for id in &mut packed.block[ids_from..] {
                *id = remap[*id as usize];
                debug_assert_ne!(*id, POOL_ID_DROPPED, "live id dropped");
            }
        }
        self.postings.retain(|list| !list.is_empty());
        self.retired_weight = 0;
    }

    /// `slot`'s per-column runs, in column order; no columns for an
    /// unindexed slot.
    pub(crate) fn runs(&self, slot: u32) -> Runs<'_> {
        self.runs.get(slot).map_or_else(Runs::default, Runs::of)
    }

    /// `slot`'s column count, read without touching its runs; 0 for an
    /// unindexed slot.
    pub(crate) fn columns(&self, slot: u32) -> usize {
        self.runs
            .get(slot)
            .map_or(0, |packed| packed.columns as usize)
    }

    /// The run of one column domain; `None` unless it is indexed and
    /// non-empty.
    pub(crate) fn run(&self, (slot, col): DomainKey) -> Option<&[u32]> {
        let run = self.runs(slot).get(col as usize)?;
        (!run.is_empty()).then_some(run)
    }

    /// `slot`'s column domains: its non-empty columns.
    pub(crate) fn domains_of(&self, slot: u32) -> impl Iterator<Item = DomainKey> + '_ {
        let runs = self.runs(slot).iter().enumerate();
        runs.filter(|(_, run)| !run.is_empty())
            .map(move |(col, _)| (slot, col as u32))
    }

    /// Every indexed column domain, in ascending `(slot, column)` order.
    pub(crate) fn domains(&self) -> impl Iterator<Item = DomainKey> + '_ {
        self.runs.iter().flat_map(|(slot, _)| self.domains_of(slot))
    }

    /// The column domains holding token `id`; `None` when none does.
    pub(crate) fn posting(&self, id: u32) -> Option<&[DomainKey]> {
        let list = self.postings.get(id as usize)?;
        (!list.is_empty()).then(|| list.as_slice())
    }

    /// `Σ |posting(t)|` over `ids`: the entries an exact merge of their
    /// lists would scan. `O(ids)`.
    pub(crate) fn posting_mass(&self, ids: &[u32]) -> usize {
        ids.iter()
            .map(|&id| self.posting(id).map_or(0, <[DomainKey]>::len))
            .sum()
    }

    /// Resolve a query column through the pool, never interning: the
    /// query is not part of the lake, and a token the pool never saw
    /// occurs in no run.
    pub(crate) fn resolve(&self, column: &HashSet<String>) -> QueryColumn {
        let mut ids: Vec<u32> = column.iter().filter_map(|t| self.pool.get(t)).collect();
        ids.sort_unstable();
        QueryColumn {
            ids,
            len: column.len(),
        }
    }

    /// Candidates for a query, `(slot, bound, mark)`: every slot sharing a
    /// token with it, at `bound(|Q ∩ T|)`, plus — when the zero-overlap
    /// bound could pass the reporting filter (`> 0` and `>= min_score`) —
    /// every other indexed slot at `bound(0)`. Below that filter a
    /// zero-overlap table's true score fails it too, so leaving it out
    /// loses nothing. `|Q ∩ T|` is table-level: a query token counts once
    /// for a slot however many of its columns hold it. One walk over the
    /// query tokens' postings, finding candidates through this thread's
    /// [`OverlapCounter`]; `tally` counts each posting per query column
    /// holding its token, and marks each candidate — a zero-overlap one
    /// with [`Tally::UNSEEN`].
    pub(crate) fn ranked<K: Tally>(
        &self,
        query: &[QueryColumn],
        min_score: f64,
        bound: impl Fn(usize) -> f64,
        tally: &mut K,
    ) -> Vec<(u32, f64, K::Mark)> {
        // Every query token tagged with a column holding it, by token: one
        // group per distinct token, listing its query columns.
        let mut tagged: Vec<(u32, u32)> = (0..)
            .zip(query)
            .flat_map(|(j, col)| col.ids.iter().map(move |&id| (id, j)))
            .collect();
        tagged.sort_unstable();
        let base = bound(0);
        let rank_the_rest = base > 0.0 && base >= min_score;
        OVERLAP.with_borrow_mut(|counter| {
            let first = counter.begin(self.runs.slot_bound(), tagged.len());
            // `(slot, |Q ∩ T| until the bound replaces it, mark)`; a
            // candidate's cell holds its index here.
            let mut ranked: Vec<(u32, f64, K::Mark)> = Vec::new();
            for (i, cols) in tagged.chunk_by(|a, b| a.0 == b.0).enumerate() {
                let stamp = first + i as u32;
                for &(slot, col) in self.posting(cols[0].0).unwrap_or_default() {
                    let cell = &mut counter.cells[slot as usize];
                    if cell.0 < first {
                        *cell = (stamp, ranked.len() as u32);
                        ranked.push((slot, 1.0, tally.open(self, slot)));
                    } else if cell.0 != stamp {
                        cell.0 = stamp;
                        ranked[cell.1 as usize].1 += 1.0;
                    }
                    tally.count(ranked[cell.1 as usize].2, col, cols);
                }
            }
            for (_, b, _) in &mut ranked {
                *b = bound(*b as usize);
            }
            if rank_the_rest {
                for (slot, _) in self.runs.iter() {
                    if counter.cells[slot as usize].0 < first {
                        ranked.push((slot, base, K::UNSEEN));
                    }
                }
            }
            ranked
        })
    }

    /// Distinct tokens interned: live ones plus not-yet-compacted dead
    /// weight.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// `(distinct tokens with postings, total posting entries)`; the
    /// latter always equals the summed run lengths.
    pub(crate) fn posting_stats(&self) -> (usize, usize) {
        let lists = self.postings.iter().filter(|list| !list.is_empty());
        lists.fold((0, 0), |(tokens, entries), list| {
            (tokens + 1, entries + list.as_slice().len())
        })
    }

    /// The token behind a pool id; empty for an id never assigned.
    pub(crate) fn token(&self, id: u32) -> &str {
        self.pool.resolve(id).unwrap_or_default()
    }
}

/// What a [`TokenPostings::ranked`] walk counts per candidate beyond the
/// table-level overlap it ranks by.
pub(crate) trait Tally {
    /// What a candidate's score reads its counts through.
    type Mark: Copy;
    /// The mark of a candidate no query token reaches.
    const UNSEEN: Self::Mark;
    /// `slot`'s first posting: make room for its counts.
    fn open(&mut self, store: &TokenPostings, slot: u32) -> Self::Mark;
    /// One posting, in candidate column `col`, of a token the query
    /// columns `cols` hold (as `(token id, query column)` pairs).
    fn count(&mut self, mark: Self::Mark, col: u32, cols: &[(u32, u32)]);
}

/// Table-level overlap only: the metadata leg.
impl Tally for () {
    type Mark = ();
    const UNSEEN: () = ();
    fn open(&mut self, _: &TokenPostings, _: u32) {}
    fn count(&mut self, _: (), _: u32, _: &[(u32, u32)]) {}
}

/// `|Qj ∩ Cc|` for every query column `j` and every column `c` of each
/// candidate a [`TokenPostings::ranked`] walk reaches: a posting `(slot,
/// c)` of a token in `Qj` is one token of `Qj ∩ Cc`, and a run holds a
/// token once. Per candidate, one block of `columns × query columns`
/// counts, row by candidate column; the mark is where the block starts.
pub(crate) struct DomainOverlaps {
    query_columns: usize,
    counts: Vec<u32>,
}

impl DomainOverlaps {
    pub(crate) fn new(query_columns: usize) -> DomainOverlaps {
        DomainOverlaps {
            query_columns,
            counts: Vec::new(),
        }
    }

    /// `|Qj ∩ Cc|` of the candidate marked `at`.
    pub(crate) fn get(&self, at: u32, c: usize, j: usize) -> usize {
        if at == Self::UNSEEN {
            return 0;
        }
        self.counts[at as usize + c * self.query_columns + j] as usize
    }
}

impl Tally for DomainOverlaps {
    type Mark = u32;
    const UNSEEN: u32 = u32::MAX;

    fn open(&mut self, store: &TokenPostings, slot: u32) -> u32 {
        let at = self.counts.len();
        let width = store.columns(slot) * self.query_columns;
        self.counts.resize(at + width, 0);
        u32::try_from(at)
            .ok()
            .filter(|&at| at != Self::UNSEEN)
            .expect("overlap count offset")
    }

    fn count(&mut self, at: u32, col: u32, cols: &[(u32, u32)]) {
        let row = at as usize + col as usize * self.query_columns;
        for &(_, j) in cols {
            self.counts[row + j as usize] += 1;
        }
    }
}

/// [`TokenPostings::ranked`]'s candidate finder: one `(stamp, candidate
/// index)` cell per slot, shared by every store ranked on its thread.
/// Each query token takes a fresh stamp, so a cell stamped before the
/// query's first stamp is untouched by the query, and a cell stamped with
/// the current token's has counted it already. No query clears the cells;
/// they are cleared only when the stamps would wrap.
#[derive(Default)]
struct OverlapCounter {
    cells: Vec<(u32, u32)>,
    /// The last stamp handed out; 0 stamps no token.
    stamp: u32,
}

impl OverlapCounter {
    /// Reserve `tokens` fresh stamps for one query over slots below
    /// `slots`, returning the first.
    fn begin(&mut self, slots: usize, tokens: usize) -> u32 {
        if self.cells.len() < slots {
            self.cells.resize(slots, (0, 0));
        }
        let tokens = u32::try_from(tokens).expect("query token count");
        let fits = self
            .stamp
            .checked_add(tokens)
            .and_then(|s| s.checked_add(1));
        if fits.is_none() {
            self.cells.fill((0, 0));
            self.stamp = 0;
        }
        let first = self.stamp + 1;
        self.stamp += tokens;
        first
    }
}

thread_local! {
    /// This thread's [`OverlapCounter`]: no lock, nothing shared between
    /// serving threads.
    static OVERLAP: RefCell<OverlapCounter> = RefCell::new(OverlapCounter::default());
}

/// Move this thread's overlap stamp forward to at least `stamp`, so a
/// test can drive the counter across wrap-around.
#[cfg(test)]
fn advance_overlap_stamp(stamp: u32) {
    OVERLAP.with_borrow_mut(|counter| counter.stamp = counter.stamp.max(stamp));
}

#[cfg(test)]
mod tests {
    //! The kernel against brute force: the one place the strict-`>`
    //! termination and the slot tie-break are tested directly. Scores and
    //! bounds are multiples of 0.25 so score ties, bound ties and
    //! bound == k-th score all occur. The store, its packed runs and the
    //! overlap counter against a naive `token → domains` oracle.

    use super::*;
    use crate::types::top_k;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    #[derive(Debug)]
    struct Cand {
        name: String,
        score: f64,
    }

    impl Named for Cand {
        fn name(&self) -> &str {
            &self.name
        }
    }

    /// A lake of `(slot, bound)`-ranked candidates plus what brute force
    /// answers: the top `k` of every non-excluded candidate passing the
    /// reporting rule.
    struct Case {
        tables: SlotTable<Cand>,
        ranked: Vec<(u32, f64)>,
        exclude: String,
        min_score: f64,
    }

    impl Case {
        fn new(cands: &[(u8, u8)], rot: usize, exclude: usize, min_score: u8) -> Case {
            let mut tables = SlotTable::new(ShardScope::all());
            let mut ranked = Vec::new();
            for (i, &(score, slack)) in cands.iter().enumerate() {
                // Name order and slot order disagree, so the slot
                // tie-break and the name tie-break are distinct rules.
                let slot = (i * 7 + rot) as u32 % 24;
                let score = f64::from(score) * 0.25;
                let name = format!("t{i:02}");
                tables.insert(slot, Cand { name, score });
                ranked.push((slot, score + f64::from(slack) * 0.25));
            }
            Case {
                tables,
                ranked,
                exclude: format!("t{exclude:02}"),
                min_score: f64::from(min_score) * 0.25,
            }
        }

        fn report(&self, k: usize) -> Report<'_> {
            Report {
                k,
                min_score: self.min_score,
                exclude: &self.exclude,
            }
        }

        /// Candidates other than the query's own table.
        fn eligible(&self) -> usize {
            self.tables
                .iter()
                .filter(|(_, c)| c.name != self.exclude)
                .count()
        }

        fn brute_force(&self, k: usize) -> Vec<Discovered> {
            let report = self.report(k);
            let passing = self
                .tables
                .iter()
                .filter(|(_, c)| c.name != self.exclude && report.keeps(c.score))
                .map(|(_, c)| Discovered {
                    table: c.name.clone(),
                    score: c.score,
                })
                .collect();
            top_k(passing, k)
        }

        /// Run the kernel, recording every table it scores.
        fn bounded(&self, k: usize, cap: usize) -> (Vec<Discovered>, RetrievalStats, Vec<String>) {
            let seen = RefCell::new(Vec::new());
            let ranked = self.ranked.iter().map(|&(slot, b)| (slot, b, ())).collect();
            let (hits, run) =
                bounded_top_k(&self.tables, ranked, cap, self.report(k), |_, c, ()| {
                    seen.borrow_mut().push(c.name.clone());
                    c.score
                });
            (hits, run, seen.into_inner())
        }
    }

    fn cands() -> impl Strategy<Value = Vec<(u8, u8)>> {
        prop::collection::vec((0u8..6, 0u8..3), 0..24)
    }

    /// Churn steps `(slot, op, columns)`: `op == 0` removes the slot, any
    /// other op (re-)inserts it with `columns`, each a set of token
    /// numbers out of a vocabulary small enough that lists grow past one
    /// domain and fall back.
    fn churn() -> impl Strategy<Value = Vec<(u32, u8, Vec<Vec<u32>>)>> {
        let columns = prop::collection::vec(prop::collection::vec(0u32..8, 0..4), 0..3);
        prop::collection::vec((0u32..5, 0u8..4, columns), 0..40)
    }

    fn token_set(nums: &[u32]) -> HashSet<String> {
        nums.iter().map(|n| format!("t{n}")).collect()
    }

    /// Slot → per-column token numbers, each column sorted and deduplicated.
    type Tables = BTreeMap<u32, Vec<Vec<u32>>>;

    /// The naive oracle: token number → the domains holding it.
    fn naive_postings(tables: &Tables) -> HashMap<u32, HashSet<DomainKey>> {
        let mut oracle: HashMap<u32, HashSet<DomainKey>> = HashMap::new();
        for (&slot, columns) in tables {
            for (col, nums) in columns.iter().enumerate() {
                for &n in nums {
                    oracle.entry(n).or_default().insert((slot, col as u32));
                }
            }
        }
        oracle
    }

    /// What `ranked` must return under `bound(ov) = ov + base`, in slot
    /// order: `|Q ∩ T|` counted table by table over the oracle.
    fn naive_ranked(tables: &Tables, query: &[Vec<u32>], base: f64) -> Vec<(u32, f64)> {
        let oracle = naive_postings(tables);
        let query: HashSet<u32> = query.iter().flatten().copied().collect();
        let mut overlap: BTreeMap<u32, usize> = BTreeMap::new();
        for n in &query {
            let slots: HashSet<u32> = oracle.get(n).into_iter().flatten().map(|k| k.0).collect();
            for slot in slots {
                *overlap.entry(slot).or_default() += 1;
            }
        }
        tables
            .keys()
            .filter_map(|slot| match overlap.get(slot) {
                Some(&ov) => Some((*slot, ov as f64 + base)),
                None => (base > 0.0).then_some((*slot, base)),
            })
            .collect()
    }

    /// `store.ranked` counting table-level overlap only, as
    /// `(slot, bound)` in slot order.
    fn by_slot(
        store: &TokenPostings,
        query: &[QueryColumn],
        bound: impl Fn(usize) -> f64,
    ) -> Vec<(u32, f64)> {
        let ranked = store.ranked(query, 0.0, bound, &mut ());
        let mut got: Vec<(u32, f64)> = ranked.into_iter().map(|(slot, b, ())| (slot, b)).collect();
        got.sort_by_key(|&(slot, _)| slot);
        got
    }

    /// `store.ranked` under `bound(ov) = ov + base`, in slot order.
    fn ranked_by_slot(store: &TokenPostings, query: &[Vec<u32>], base: f64) -> Vec<(u32, f64)> {
        let resolved: Vec<QueryColumn> = query
            .iter()
            .map(|nums| store.resolve(&token_set(nums)))
            .collect();
        by_slot(store, &resolved, |ov| ov as f64 + base)
    }

    /// Insert `columns` under `slot` into both the store and its oracle.
    fn insert_both(
        store: &mut TokenPostings,
        tables: &mut Tables,
        slot: u32,
        columns: &[Vec<u32>],
    ) {
        let sets: Vec<HashSet<String>> = columns.iter().map(|nums| token_set(nums)).collect();
        store.insert(slot, &sets);
        let mut columns = columns.to_vec();
        for nums in &mut columns {
            nums.sort_unstable();
            nums.dedup();
        }
        tables.insert(slot, columns);
    }

    /// `store` over `tables` against the naive oracle, token number →
    /// domain set: every posting as a set, `posting_stats`, `ranked` with
    /// and without the zero-overlap base, the list layout, each live
    /// slot's packed runs column by column (resolved to token strings),
    /// `domains()`, and every slot without a table — never used, freed,
    /// or past the high-water mark — reading as empty.
    fn agrees_with_oracle(store: &TokenPostings, tables: &Tables, query: &[Vec<u32>]) {
        let oracle = naive_postings(tables);
        for n in 0..10 {
            let want = oracle.get(&n).cloned().unwrap_or_default();
            let id = store.pool.get(&format!("t{n}"));
            let got = id.and_then(|id| store.posting(id));
            assert!(got.is_none_or(|list| !list.is_empty()));
            let got: HashSet<DomainKey> = got.unwrap_or_default().iter().copied().collect();
            assert_eq!(got, want, "token t{}", n);
        }
        let entries: usize = oracle.values().map(HashSet::len).sum();
        assert_eq!(store.posting_stats(), (oracle.len(), entries));

        for base in [0.0, 1.0] {
            assert_eq!(
                ranked_by_slot(store, query, base),
                naive_ranked(tables, query, base)
            );
        }

        assert_eq!(store.postings.len(), store.pool_len());
        for list in &store.postings {
            match list {
                Posting::One(_) => {}
                Posting::Many(keys) => assert!(
                    keys.len() >= 2 || keys.capacity() == 0,
                    "a lone or empty list left on the heap: {:?}",
                    list
                ),
            }
        }

        let mut weight = 0;
        for (&slot, columns) in tables {
            let runs = store.runs(slot);
            assert_eq!(runs.len(), columns.len(), "slot {slot}");
            assert_eq!(runs.iter().count(), columns.len(), "slot {slot}");
            for (col, nums) in columns.iter().enumerate() {
                let run = runs.get(col).unwrap();
                assert!(run.windows(2).all(|w| w[0] < w[1]), "unsorted run");
                assert_eq!(runs.iter().nth(col), Some(run));
                let mut got: Vec<&str> = run.iter().map(|&id| store.token(id)).collect();
                got.sort_unstable();
                let mut want: Vec<String> = nums.iter().map(|n| format!("t{n}")).collect();
                want.sort_unstable();
                assert_eq!(got, want, "slot {slot} column {col}");
                let key = (slot, col as u32);
                assert_eq!(store.run(key), (!run.is_empty()).then_some(run));
                weight += run.len();
            }
            assert_eq!(runs.get(columns.len()), None);
        }
        assert_eq!(store.live_weight, weight);

        let domains: Vec<DomainKey> = store.domains().collect();
        let want: Vec<DomainKey> = oracle
            .values()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(domains, want);

        let high_water = tables.keys().max().map_or(0, |&slot| slot + 1);
        for slot in (0..high_water + 3).chain([u32::MAX]) {
            if tables.contains_key(&slot) {
                continue;
            }
            let runs = store.runs(slot);
            assert_eq!((runs.len(), runs.iter().count()), (0, 0), "slot {slot}");
            assert_eq!(runs.get(0), None);
            assert_eq!(store.run((slot, 0)), None);
            assert_eq!(store.domains_of(slot).count(), 0);
            assert!(store.runs.get(slot).is_none());
        }
        assert_eq!(store.runs.len(), tables.len());
    }

    fn k_of(n: usize, pick: usize) -> usize {
        if pick > n + 2 {
            usize::MAX
        } else {
            pick
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A finite cap covering every candidate equals brute force byte
        /// for byte, and so does the exhaustive `score_all`.
        #[test]
        fn covering_cap_equals_brute_force(
            cands in cands(),
            rot in 0usize..24,
            exclude in 0usize..26,
            min_score in 0u8..5,
            pick in 0usize..28,
            extra in 0usize..3,
        ) {
            let case = Case::new(&cands, rot, exclude, min_score);
            let k = k_of(cands.len(), pick);
            let truth = case.brute_force(k);
            let (hits, run, _) = case.bounded(k, cands.len() + extra);
            prop_assert_eq!(&hits, &truth);
            prop_assert!(!run.cap_hit, "{:?}", run);
            prop_assert_eq!(run.candidates_retrieved, cands.len());
            let (all, all_run) = score_all(case.tables.iter(), case.report(k), |_, c| c.score);
            prop_assert_eq!(&all, &truth);
            prop_assert_eq!(all_run.candidates_scored, case.eligible());
        }

        /// Any cap yields a sound subset at identical scores, never scores
        /// more than `cap` candidates, raises `cap_hit` only when the cap
        /// stopped the loop, never counts the excluded table, and equals
        /// brute force whenever the cap did not bind.
        #[test]
        fn any_cap_is_a_sound_subset(
            cands in cands(),
            rot in 0usize..24,
            exclude in 0usize..26,
            min_score in 0u8..5,
            pick in 0usize..28,
            cap in 0usize..26,
        ) {
            let case = Case::new(&cands, rot, exclude, min_score);
            let k = k_of(cands.len(), pick);
            let truth = case.brute_force(k.max(cands.len()));
            let (hits, run, seen) = case.bounded(k, cap);
            for hit in &hits {
                prop_assert!(truth.contains(hit), "{:?} not in {:?}", hit, truth);
            }
            prop_assert!(run.candidates_scored <= cap, "{:?}", run);
            prop_assert_eq!(run.candidates_scored, seen.len());
            prop_assert!(seen.iter().all(|name| *name != case.exclude));
            if run.cap_hit {
                prop_assert_eq!(run.candidates_scored, cap);
                prop_assert!(run.candidates_scored < run.candidates_retrieved, "{:?}", run);
                prop_assert_eq!(run.bound_pruned, 0);
            } else {
                prop_assert_eq!(&hits, &case.brute_force(k));
            }
        }

        /// The store under random insert, re-insert and remove sequences
        /// equals a naive `token → domains` oracle after every step, at
        /// both compaction floors, whole-lake and scoped to a stripe the
        /// churned slots leave (so the slot table widens). Whenever no
        /// entry is retired since the last compaction, the pool holds
        /// exactly the tokens a fresh store over the surviving slots
        /// interns.
        #[test]
        fn store_equals_a_naive_oracle_under_churn(
            ops in churn(),
            query in prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..3),
        ) {
            for scope in [ShardScope::all(), ShardScope::stripes(3).nth(1).unwrap()] {
                for compact_min in [0, POOL_COMPACT_MIN] {
                    let mut store = TokenPostings::new(compact_min, scope);
                    let mut tables = Tables::new();
                    for (slot, op, columns) in &ops {
                        if *op == 0 {
                            store.remove(*slot);
                            tables.remove(slot);
                        } else {
                            insert_both(&mut store, &mut tables, *slot, columns);
                        }
                        agrees_with_oracle(&store, &tables, &query);
                        if store.retired_weight == 0 {
                            let mut fresh = TokenPostings::new(compact_min, scope);
                            for (&slot, columns) in &tables {
                                insert_both(&mut fresh, &mut Tables::new(), slot, columns);
                            }
                            prop_assert_eq!(store.pool_len(), fresh.pool_len());
                        }
                    }
                }
            }
        }

        /// `ranked` calls interleaved on one thread over two stores of
        /// different slot counts, one whole-lake and one scoped, each
        /// equal the naive oracle — also across the counter's stamp
        /// wrap-around, which `wrap_at` places at a random call.
        #[test]
        fn interleaved_ranked_calls_share_one_counter(
            small in prop::collection::vec(prop::collection::vec(prop::collection::vec(0u32..10, 0..4), 0..3), 0..4),
            large in prop::collection::vec(prop::collection::vec(prop::collection::vec(0u32..10, 0..4), 0..3), 0..12),
            queries in prop::collection::vec(prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..3), 1..8),
            wrap_at in 0usize..8,
            headroom in 0u32..12,
        ) {
            let mut stores = Vec::new();
            for (tables, scope) in [(&small, ShardScope::all()), (&large, ShardScope::stripes(3).nth(2).unwrap())] {
                let mut store = TokenPostings::new(POOL_COMPACT_MIN, scope);
                let mut oracle = Tables::new();
                for (i, columns) in (0..).zip(tables) {
                    let slot = i * scope.of() + scope.shard();
                    insert_both(&mut store, &mut oracle, slot, columns);
                }
                stores.push((store, oracle));
            }
            for (i, query) in queries.iter().enumerate() {
                if i == wrap_at {
                    advance_overlap_stamp(u32::MAX - headroom);
                }
                for (store, tables) in &stores {
                    for base in [0.0, 1.0] {
                        prop_assert_eq!(
                            ranked_by_slot(store, query, base),
                            naive_ranked(tables, query, base)
                        );
                    }
                }
            }
        }
    }

    /// Every `(slot, bound)` a walk counting per-domain overlaps returns,
    /// with each `|Qj ∩ Cc|` it counted checked against a merge of `Qj`'s
    /// ids with column `c`'s run — zero-overlap candidates included — and
    /// the ranking checked against the table-level walk.
    fn domain_counts_agree(store: &TokenPostings, query: &[Vec<u32>], base: f64) {
        let query: Vec<QueryColumn> = query
            .iter()
            .map(|nums| store.resolve(&token_set(nums)))
            .collect();
        let bound = |ov: usize| ov as f64 + base;
        let mut overlaps = DomainOverlaps::new(query.len());
        let ranked = store.ranked(&query, 0.0, bound, &mut overlaps);
        let mut got: Vec<(u32, f64)> = ranked.iter().map(|&(slot, b, _)| (slot, b)).collect();
        got.sort_by_key(|&(slot, _)| slot);
        assert_eq!(got, by_slot(store, &query, bound));
        for &(slot, _, at) in &ranked {
            for (c, run) in store.runs(slot).iter().enumerate() {
                for (j, col) in query.iter().enumerate() {
                    let merged = crate::pool::intersect_count(&col.ids, run);
                    assert_eq!(
                        overlaps.get(at, c, j),
                        merged,
                        "slot {slot} column {c} query column {j}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The walk's per-domain counts equal run merges for every
        /// candidate and every `(query column, candidate column)` pair:
        /// multi-column queries whose columns share tokens, hold tokens the
        /// lake never saw (8 to 11) or none at all, over a store churned
        /// at both compaction floors — floor 0 compacts on most removals,
        /// so runs are remapped — whole-lake and scoped to one of three
        /// stripes, with and without the zero-overlap candidates.
        #[test]
        fn walk_counts_equal_run_merges(
            ops in churn(),
            query in prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 1..5),
        ) {
            for scope in [ShardScope::all(), ShardScope::stripes(3).nth(1).unwrap()] {
                for compact_min in [0, POOL_COMPACT_MIN] {
                    let mut store = TokenPostings::new(compact_min, scope);
                    for (slot, op, columns) in &ops {
                        if *op == 0 {
                            store.remove(*slot);
                        } else {
                            insert_both(&mut store, &mut Tables::new(), *slot, columns);
                        }
                        for base in [0.0, 1.0] {
                            domain_counts_agree(&store, &query, base);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_posting_list_goes_one_many_one_empty() {
        assert_eq!(std::mem::size_of::<Posting>(), 24);
        let mut store = TokenPostings::new(POOL_COMPACT_MIN, ShardScope::all());
        let lone = |store: &TokenPostings| match store.postings[..] {
            [Posting::One(key)] => Some(key),
            _ => None,
        };
        store.insert(1, &[token_set(&[7])]);
        assert_eq!(lone(&store), Some((1, 0)));
        store.insert(2, &[token_set(&[]), token_set(&[7])]);
        assert!(matches!(&store.postings[..], [Posting::Many(keys)] if keys.len() == 2));
        store.remove(1);
        assert_eq!(lone(&store), Some((2, 1)));
        assert_eq!(store.posting(0), Some(&[(2, 1)][..]));
        store.remove(2);
        assert!(matches!(&store.postings[..], [Posting::Many(keys)] if keys.capacity() == 0));
        assert_eq!(store.posting(0), None);
        assert_eq!(store.posting_stats(), (0, 0));
        // Still below the floor: the dead token stays interned until a
        // compaction, and a re-insert revives its id.
        assert_eq!(store.pool_len(), 1);
        store.insert(3, &[token_set(&[7])]);
        assert_eq!(lone(&store), Some((3, 0)));
    }

    #[test]
    fn ranked_counts_a_token_once_per_slot() {
        let set = |toks: &[&str]| toks.iter().map(|t| t.to_string()).collect::<HashSet<_>>();
        let mut store = TokenPostings::new(POOL_COMPACT_MIN, ShardScope::all());
        // Slot 3 holds "a" in both columns; slot 5 holds it once.
        store.insert(3, &[set(&["a", "b"]), set(&["a", "c"])]);
        store.insert(5, &[set(&["a"]), set(&[])]);
        assert_eq!(store.posting_stats(), (3, 5));
        let query = [store.resolve(&set(&["a", "b", "zz"]))];
        let ranked = by_slot(&store, &query, |ov| ov as f64);
        assert_eq!(ranked, vec![(3, 2.0), (5, 1.0)]);
    }

    #[test]
    fn inserting_a_slot_twice_equals_inserting_it_once() {
        let set = |toks: &[&str]| toks.iter().map(|t| t.to_string()).collect::<HashSet<_>>();
        let columns = [set(&["a", "b"]), set(&["a", "c"]), set(&[])];
        for compact_min in [0, POOL_COMPACT_MIN] {
            let (mut once, mut twice) = (
                TokenPostings::new(compact_min, ShardScope::all()),
                TokenPostings::new(compact_min, ShardScope::all()),
            );
            for store in [&mut once, &mut twice] {
                store.insert(1, &[set(&["b", "d"])]);
                store.insert(3, &columns);
            }
            twice.insert(3, &columns);
            assert_eq!(twice.posting_stats(), once.posting_stats());
            assert_eq!(twice.posting_stats(), (4, 6));
            let summed: usize = [1, 3].map(|slot| twice.runs(slot).ids.len()).iter().sum();
            assert_eq!(twice.live_weight, summed);
            assert_eq!(twice.live_weight, once.live_weight);
            // Resolved per store: at floor 0 the re-insert compacts, so the
            // two pools may number the same tokens differently.
            let ranked = |store: &TokenPostings| {
                let query = [store.resolve(&set(&["a", "b", "d"]))];
                by_slot(store, &query, |ov| ov as f64)
            };
            assert_eq!(ranked(&twice), ranked(&once));
            assert_eq!(ranked(&twice), vec![(1, 2.0), (3, 2.0)]);
        }
    }

    #[test]
    fn a_slot_table_stores_its_stripe_densely_and_widens_for_a_stranger() {
        let mut table: SlotTable<&str> = SlotTable::new(ShardScope::stripes(4).nth(3).unwrap());
        assert_eq!(table.insert(7, "seven"), None);
        assert_eq!(table.insert(3, "three"), None);
        assert_eq!(table.insert(7, "SEVEN"), Some("seven"));
        // Slots 3 and 7 sit at entries 0 and 1.
        assert_eq!(table.entries.len(), 2);
        assert_eq!(table.slot_bound(), 8);
        assert_eq!(
            (table.get(7), table.get(6), table.get(11)),
            (Some(&"SEVEN"), None, None)
        );
        assert_eq!(
            table.iter().collect::<Vec<_>>(),
            [(3, &"three"), (7, &"SEVEN")]
        );
        // A slot of another stripe lays the table out over every slot.
        assert_eq!(table.insert(5, "five"), None);
        assert_eq!(table.entries.len(), 8);
        assert_eq!(
            table.iter().collect::<Vec<_>>(),
            [(3, &"three"), (5, &"five"), (7, &"SEVEN")]
        );
        assert_eq!(table.len(), 3);
        // Freeing the highest slot drops the free entries below it too.
        assert_eq!(table.remove(7), Some("SEVEN"));
        assert_eq!(table.remove(7), None);
        assert_eq!(table.entries.len(), 6);
        assert_eq!(table.remove(3), Some("three"));
        assert_eq!(table.remove(5), Some("five"));
        assert!(table.is_empty() && table.entries.is_empty());
        assert_eq!(table.remove(u32::MAX), None);
    }

    #[test]
    fn the_overlap_stamps_wrap_by_clearing_the_counter() {
        let mut store = TokenPostings::new(POOL_COMPACT_MIN, ShardScope::all());
        let mut tables = Tables::new();
        insert_both(&mut store, &mut tables, 0, &[vec![1, 2], vec![2, 3]]);
        insert_both(&mut store, &mut tables, 2, &[vec![3]]);
        let query = [vec![1, 2, 3]];
        for headroom in [0, 1, 2, 3, 4] {
            advance_overlap_stamp(u32::MAX - headroom);
            for _ in 0..3 {
                for base in [0.0, 1.0] {
                    assert_eq!(
                        ranked_by_slot(&store, &query, base),
                        naive_ranked(&tables, &query, base),
                        "headroom {headroom}"
                    );
                }
            }
        }
        assert_eq!(naive_ranked(&tables, &query, 0.0), [(0, 3.0), (2, 1.0)]);
    }

    #[test]
    fn a_bound_tying_the_kth_score_is_still_scored() {
        // Slot 0 ("t01") ranks first on the slot tie-break; "t00" ties it
        // on both score and bound and wins on name, so pruning it at
        // `bound == kth` would report the wrong table.
        let case = Case::new(&[(2, 0), (2, 0)], 17, 99, 0);
        assert_eq!(case.ranked, vec![(17, 0.5), (0, 0.5)]);
        let (hits, run, seen) = case.bounded(1, 10);
        assert_eq!(seen, ["t01", "t00"]);
        assert_eq!(hits, case.brute_force(1));
        assert_eq!(hits[0].table, "t00");
        assert_eq!(run.bound_pruned, 0);
    }
}
