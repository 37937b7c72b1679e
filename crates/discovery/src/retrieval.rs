//! Bounded retrieval for the slot-keyed legs (SANTOS typed and typeless,
//! metadata), and the token store the discovery legs read.
//!
//! * **The kernel.** [`bounded_top_k`] takes `(slot, bound)` candidates
//!   whose bound is a sound ceiling on the exact score, scores them best
//!   bound first (slot breaks ties) and stops at the candidate cap, or as
//!   soon as the k-th kept score strictly beats every remaining bound.
//!   Tables it never scores can therefore never enter the top-k, and a
//!   bound that *ties* the k-th score is still scored, so name tie-breaks
//!   match the exhaustive output: any finite cap covering the candidates
//!   returns exactly what [`score_all`] — the exhaustive oracle path legs
//!   run at `cap == usize::MAX` — returns.
//! * **The token store.** [`TokenPostings`] owns an id space: it interns
//!   each column of a table into a sorted id run, keeps
//!   `token id → (slot, column)` postings over those runs, resolves query
//!   columns against its pool, and counts the table-level overlap
//!   `|Q ∩ T|` the slot-keyed legs turn into bounds. There is one value
//!   store per shard, read by SANTOS and the joinable leg; metadata keeps
//!   its header store. SANTOS reads the value runs by slot, the joinable
//!   leg per column domain for its exact verification and posting merge.
//!   The store alone rewrites ids on
//!   compaction; legs read runs by slot or domain and never see a remap.
//!   Its layout is compact: the pool keeps each token's bytes once, in
//!   one arena, and the postings are a `Vec` indexed by dense token id
//!   whose lone posting — most tokens sit in one column — is stored
//!   inline, with no heap list of its own. A token is live exactly when
//!   its list is non-empty, which is all compaction needs to know.
//!
//! A slot-keyed leg keeps only what is its own: annotation, the bound
//! formula and the score function, which compares runs with
//! [`QueryColumn::jaccard`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use dialite_table::Table;

use crate::pool::{QueryColumn, Run, StringPool, POOL_ID_DROPPED};
use crate::types::{score_cmp, top_k, Discovered};

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
    candidates: impl IntoIterator<Item = (&'t u32, &'t T)>,
    report: Report,
    mut score: impl FnMut(u32, &T) -> f64,
) -> (Vec<Discovered>, RetrievalStats) {
    let mut run = RetrievalStats::default();
    let mut hits = Vec::new();
    for (&slot, cand) in candidates {
        run.candidates_retrieved += 1;
        if cand.name() == report.exclude {
            continue;
        }
        run.candidates_scored += 1;
        let s = score(slot, cand);
        if report.keeps(s) {
            hits.push(Discovered {
                table: cand.name().to_string(),
                score: s,
            });
        }
    }
    (top_k(hits, report.k), run)
}

/// Bounded retrieval: score `ranked` best bound first over `tables`,
/// stopping after `cap` scored candidates or once the k-th kept score
/// strictly beats every remaining bound. Every `bound` must be at least
/// its table's `score`.
pub(crate) fn bounded_top_k<T: Named>(
    tables: &BTreeMap<u32, T>,
    mut ranked: Vec<(u32, f64)>,
    cap: usize,
    report: Report,
    mut score: impl FnMut(u32, &T) -> f64,
) -> (Vec<Discovered>, RetrievalStats) {
    // Slot breaks bound ties so the scored prefix is deterministic even
    // when the cap cuts inside a tie group.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut run = RetrievalStats {
        candidates_retrieved: ranked.len(),
        ..RetrievalStats::default()
    };
    let mut hits = Vec::new();
    // The best `k` kept scores, descending.
    let mut kept: Vec<f64> = Vec::new();
    for (pos, &(slot, bound)) in ranked.iter().enumerate() {
        let kth = report.k.checked_sub(1).and_then(|i| kept.get(i));
        if kth.is_some_and(|&kth| kth > bound) {
            run.bound_pruned = ranked.len() - pos;
            break;
        }
        if run.candidates_scored >= cap {
            run.cap_hit = true;
            break;
        }
        let Some(cand) = tables.get(&slot) else {
            continue;
        };
        if cand.name() == report.exclude {
            continue;
        }
        run.candidates_scored += 1;
        let s = score(slot, cand);
        if report.keeps(s) {
            let at = kept.partition_point(|&x| score_cmp(x, s) == Ordering::Greater);
            kept.insert(at, s);
            kept.truncate(report.k);
            hits.push(Discovered {
                table: cand.name().to_string(),
                score: s,
            });
        }
    }
    (top_k(hits, report.k), run)
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

/// Sorted, deduplicated union of runs: a query's distinct token ids.
fn union(runs: impl IntoIterator<Item = impl AsRef<[u32]>>) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::new();
    for run in runs {
        ids.extend_from_slice(run.as_ref());
    }
    ids.sort_unstable();
    ids.dedup();
    ids
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

/// A discovery token store: one [`StringPool`], each
/// indexed slot's per-column token runs, and `token id → column domains`
/// postings over them. Every indexed slot is known, even one with no
/// tokens, so zero-overlap candidates can still be ranked; a column
/// domain exists for every non-empty run. Removed tables' tokens are
/// reclaimed once the retired weight (posting entries) overtakes the live
/// weight and the store's compaction floor, so long-churn memory stays
/// bounded. `Default` is an empty placeholder that never compacts on its
/// own floor; builds swap the real store in.
#[derive(Clone, Default)]
pub(crate) struct TokenPostings {
    pool: StringPool,
    /// Indexed by token id, one per pool id: the column domains whose run
    /// contains it. A token is live exactly when its list is non-empty.
    postings: Vec<Posting>,
    /// Slot → one sorted id run per column, in column order.
    runs: HashMap<u32, Vec<Run>>,
    /// Σ run lengths over indexed slots: the live posting entries.
    live_weight: usize,
    /// Posting entries retired since the last compaction.
    retired_weight: usize,
    /// Retired weight a removal must exceed before it may compact.
    compact_min: usize,
}

impl TokenPostings {
    /// An empty store that compacts only once the retired weight exceeds
    /// `compact_min` as well as the live weight.
    pub(crate) fn new(compact_min: usize) -> TokenPostings {
        TokenPostings {
            pool: StringPool::new(),
            postings: Vec::new(),
            runs: HashMap::new(),
            live_weight: 0,
            retired_weight: 0,
            compact_min,
        }
    }

    /// Index `slot`'s columns, each a token set, as one run per column.
    /// Each column interns its tokens in sorted order, so pool ids — and
    /// anything ordered by them, like the joinable exact path's
    /// `(list length, token id)` schedule — depend on the lake alone, not
    /// on `HashSet` iteration order. An already indexed slot is
    /// [`remove`](Self::remove)d first, so its old runs leave the postings
    /// and the live weight.
    pub(crate) fn insert(&mut self, slot: u32, columns: &[HashSet<String>]) {
        self.remove(slot);
        let mut runs = Vec::with_capacity(columns.len());
        for (col, tokens) in columns.iter().enumerate() {
            let mut sorted: Vec<&str> = tokens.iter().map(String::as_str).collect();
            sorted.sort_unstable();
            let mut run: Vec<u32> = sorted.into_iter().map(|t| self.pool.intern(t)).collect();
            run.sort_unstable();
            self.postings.resize_with(self.pool.len(), Posting::default);
            for &id in &run {
                self.postings[id as usize].push((slot, col as u32));
            }
            self.live_weight += run.len();
            runs.push(run.into_boxed_slice());
        }
        self.runs.insert(slot, runs);
    }

    /// Retire `slot`'s runs and postings, compacting the pool once the
    /// retired weight overtakes the live weight and the floor; a no-op for
    /// an unindexed slot.
    pub(crate) fn remove(&mut self, slot: u32) {
        let Some(runs) = self.runs.remove(&slot) else {
            return;
        };
        for (col, run) in runs.iter().enumerate() {
            let key: DomainKey = (slot, col as u32);
            for &id in run.iter() {
                self.postings[id as usize].remove(key);
            }
            self.live_weight -= run.len();
            self.retired_weight += run.len();
        }
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
        for id in self.runs.values_mut().flatten().flatten() {
            *id = remap[*id as usize];
            debug_assert_ne!(*id, POOL_ID_DROPPED, "live id dropped");
        }
        self.postings.retain(|list| !list.is_empty());
        self.retired_weight = 0;
    }

    /// `slot`'s per-column runs, in column order; empty for an unindexed
    /// slot.
    pub(crate) fn runs(&self, slot: u32) -> &[Run] {
        self.runs.get(&slot).map_or(&[], Vec::as_slice)
    }

    /// The run of one column domain; `None` unless it is indexed and
    /// non-empty.
    pub(crate) fn run(&self, (slot, col): DomainKey) -> Option<&[u32]> {
        let run = self.runs(slot).get(col as usize)?;
        (!run.is_empty()).then_some(&**run)
    }

    /// `slot`'s column domains: its non-empty columns.
    pub(crate) fn domains_of(&self, slot: u32) -> impl Iterator<Item = DomainKey> + '_ {
        let runs = self.runs(slot).iter().enumerate();
        runs.filter(|(_, run)| !run.is_empty())
            .map(move |(col, _)| (slot, col as u32))
    }

    /// Every indexed column domain, in no particular order.
    pub(crate) fn domains(&self) -> impl Iterator<Item = DomainKey> + '_ {
        self.runs.keys().flat_map(|&slot| self.domains_of(slot))
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

    /// Candidates for a query: every slot sharing a token with it, at
    /// `bound(|Q ∩ T|)`, plus — when the zero-overlap bound could pass the
    /// reporting filter (`> 0` and `>= min_score`) — every other indexed
    /// slot at `bound(0)`. Below that filter a zero-overlap table's true
    /// score fails it too, so leaving it out loses nothing. `|Q ∩ T|` is
    /// table-level: a query token counts once for a slot however many of
    /// its columns hold it.
    pub(crate) fn ranked(
        &self,
        query: &[QueryColumn],
        min_score: f64,
        bound: impl Fn(usize) -> f64,
    ) -> Vec<(u32, f64)> {
        // Slot → (overlap, the last query token it counted).
        let mut overlap: HashMap<u32, (usize, u32)> = HashMap::new();
        for id in union(query.iter().map(|col| &col.ids)) {
            for &(slot, _) in self.posting(id).unwrap_or_default() {
                let (ov, last) = overlap.entry(slot).or_insert((0, POOL_ID_DROPPED));
                if *last != id {
                    *ov += 1;
                    *last = id;
                }
            }
        }
        let mut ranked: Vec<(u32, f64)> = overlap
            .iter()
            .map(|(&slot, &(ov, _))| (slot, bound(ov)))
            .collect();
        let base = bound(0);
        if base > 0.0 && base >= min_score {
            for &slot in self.runs.keys() {
                if !overlap.contains_key(&slot) {
                    ranked.push((slot, base));
                }
            }
        }
        ranked
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

#[cfg(test)]
mod tests {
    //! The kernel against brute force: the one place the strict-`>`
    //! termination and the slot tie-break are tested directly. Scores and
    //! bounds are multiples of 0.25 so score ties, bound ties and
    //! bound == k-th score all occur.

    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;

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
        tables: BTreeMap<u32, Cand>,
        ranked: Vec<(u32, f64)>,
        exclude: String,
        min_score: f64,
    }

    impl Case {
        fn new(cands: &[(u8, u8)], rot: usize, exclude: usize, min_score: u8) -> Case {
            let mut tables = BTreeMap::new();
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
                .values()
                .filter(|c| c.name != self.exclude)
                .count()
        }

        fn brute_force(&self, k: usize) -> Vec<Discovered> {
            let report = self.report(k);
            let passing = self
                .tables
                .values()
                .filter(|c| c.name != self.exclude && report.keeps(c.score))
                .map(|c| Discovered {
                    table: c.name.clone(),
                    score: c.score,
                })
                .collect();
            top_k(passing, k)
        }

        /// Run the kernel, recording every table it scores.
        fn bounded(&self, k: usize, cap: usize) -> (Vec<Discovered>, RetrievalStats, Vec<String>) {
            let seen = RefCell::new(Vec::new());
            let (hits, run) = bounded_top_k(
                &self.tables,
                self.ranked.clone(),
                cap,
                self.report(k),
                |_, c| {
                    seen.borrow_mut().push(c.name.clone());
                    c.score
                },
            );
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

    /// `store` over `tables` against the naive oracle, token number →
    /// domain set: every posting as a set, `posting_stats`, `ranked` with
    /// and without the zero-overlap base, and the list layout.
    fn agrees_with_oracle(
        store: &TokenPostings,
        tables: &BTreeMap<u32, Vec<Vec<u32>>>,
        query: &[Vec<u32>],
    ) {
        let mut oracle: HashMap<u32, HashSet<DomainKey>> = HashMap::new();
        for (&slot, columns) in tables {
            for (col, nums) in columns.iter().enumerate() {
                for &n in nums {
                    oracle.entry(n).or_default().insert((slot, col as u32));
                }
            }
        }
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

        let resolved: Vec<QueryColumn> = query
            .iter()
            .map(|nums| store.resolve(&token_set(nums)))
            .collect();
        let query: HashSet<u32> = query.iter().flatten().copied().collect();
        let mut overlap: BTreeMap<u32, usize> = BTreeMap::new();
        for n in &query {
            let slots: HashSet<u32> = oracle.get(n).into_iter().flatten().map(|k| k.0).collect();
            for slot in slots {
                *overlap.entry(slot).or_default() += 1;
            }
        }
        for base in [0.0, 1.0] {
            let mut got = store.ranked(&resolved, 0.0, |ov| ov as f64 + base);
            got.sort_by_key(|&(slot, _)| slot);
            let want: Vec<(u32, f64)> = tables
                .keys()
                .filter_map(|slot| match overlap.get(slot) {
                    Some(&ov) => Some((*slot, ov as f64 + base)),
                    None => (base > 0.0).then_some((*slot, base)),
                })
                .collect();
            assert_eq!(got, want);
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
        /// both compaction floors. Whenever no entry is retired since the
        /// last compaction, the pool holds exactly the tokens a fresh store
        /// over the surviving slots interns.
        #[test]
        fn store_equals_a_naive_oracle_under_churn(
            ops in churn(),
            query in prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..3),
        ) {
            for compact_min in [0, POOL_COMPACT_MIN] {
                let mut store = TokenPostings::new(compact_min);
                let mut tables: BTreeMap<u32, Vec<Vec<u32>>> = BTreeMap::new();
                for (slot, op, columns) in &ops {
                    if *op == 0 {
                        store.remove(*slot);
                        tables.remove(slot);
                    } else {
                        let sets: Vec<HashSet<String>> =
                            columns.iter().map(|nums| token_set(nums)).collect();
                        store.insert(*slot, &sets);
                        let mut columns = columns.clone();
                        for nums in &mut columns {
                            nums.sort_unstable();
                            nums.dedup();
                        }
                        tables.insert(*slot, columns);
                    }
                    agrees_with_oracle(&store, &tables, &query);
                    if store.retired_weight == 0 {
                        let mut fresh = TokenPostings::new(compact_min);
                        for (&slot, columns) in &tables {
                            let sets: Vec<HashSet<String>> =
                                columns.iter().map(|nums| token_set(nums)).collect();
                            fresh.insert(slot, &sets);
                        }
                        prop_assert_eq!(store.pool_len(), fresh.pool_len());
                    }
                }
            }
        }
    }

    #[test]
    fn a_posting_list_goes_one_many_one_empty() {
        assert_eq!(std::mem::size_of::<Posting>(), 24);
        let mut store = TokenPostings::new(POOL_COMPACT_MIN);
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
        let mut store = TokenPostings::new(POOL_COMPACT_MIN);
        // Slot 3 holds "a" in both columns; slot 5 holds it once.
        store.insert(3, &[set(&["a", "b"]), set(&["a", "c"])]);
        store.insert(5, &[set(&["a"]), set(&[])]);
        assert_eq!(store.posting_stats(), (3, 5));
        let query = [store.resolve(&set(&["a", "b", "zz"]))];
        let mut ranked = store.ranked(&query, 0.0, |ov| ov as f64);
        ranked.sort_by_key(|&(slot, _)| slot);
        assert_eq!(ranked, vec![(3, 2.0), (5, 1.0)]);
    }

    #[test]
    fn inserting_a_slot_twice_equals_inserting_it_once() {
        let set = |toks: &[&str]| toks.iter().map(|t| t.to_string()).collect::<HashSet<_>>();
        let columns = [set(&["a", "b"]), set(&["a", "c"]), set(&[])];
        for compact_min in [0, POOL_COMPACT_MIN] {
            let (mut once, mut twice) = (
                TokenPostings::new(compact_min),
                TokenPostings::new(compact_min),
            );
            for store in [&mut once, &mut twice] {
                store.insert(1, &[set(&["b", "d"])]);
                store.insert(3, &columns);
            }
            twice.insert(3, &columns);
            assert_eq!(twice.posting_stats(), once.posting_stats());
            assert_eq!(twice.posting_stats(), (4, 6));
            let summed: usize = twice.runs.values().flatten().map(|run| run.len()).sum();
            assert_eq!(twice.live_weight, summed);
            assert_eq!(twice.live_weight, once.live_weight);
            // Resolved per store: at floor 0 the re-insert compacts, so the
            // two pools may number the same tokens differently.
            let ranked = |store: &TokenPostings| {
                let query = [store.resolve(&set(&["a", "b", "d"]))];
                let mut ranked = store.ranked(&query, 0.0, |ov| ov as f64);
                ranked.sort_by_key(|&(slot, _)| slot);
                ranked
            };
            assert_eq!(ranked(&twice), ranked(&once));
            assert_eq!(ranked(&twice), vec![(1, 2.0), (3, 2.0)]);
        }
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
