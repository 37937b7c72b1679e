//! The string pool behind the discovery token store: dense `u32` ids for
//! overlap tokens, and the one routine that counts overlaps over them.
//!
//! Discovery engines compare *sets of tokens*. They keep column token
//! domains in a [`TokenPostings`](crate::retrieval::TokenPostings), the
//! pool's only user — one value store per shard, read by SANTOS and the
//! joinable leg; metadata keeps its header store — as **runs**: the sorted, deduplicated ids of a column's tokens in
//! the store's pool. Overlap is then a merge of two runs
//! ([`intersect_count`]), and Jaccard ([`QueryColumn::jaccard`]) and
//! containment follow from the same integer count — no string is hashed
//! per (query, candidate) pair. Query columns resolve through
//! [`StringPool::get`], never interning; a token the pool never saw is in
//! no run but still counts in the query's size.
//!
//! Under lake churn the pool would grow without bound: tokens of removed
//! tables stay interned (dead dictionary weight). [`StringPool::compact`]
//! supports the store's compaction — keep only the ids the store proves
//! live, reassign dense ids, and hand back the old→new remap so the store
//! can rewrite its runs and postings. The remap is monotone, so a
//! rewritten run stays sorted.

use std::collections::{HashMap, HashSet};

/// Interns strings to dense `u32` ids. Ids are assigned in first-seen order.
#[derive(Debug, Clone, Default)]
pub(crate) struct StringPool {
    ids: HashMap<String, u32>,
    /// Reverse map, `id as usize → string`; always the same length as
    /// `ids`. Needed so compaction can re-intern survivors without the
    /// caller retaining any strings.
    strings: Vec<String>,
}

/// Sentinel in the remap returned by [`StringPool::compact`]: the old id
/// was dropped (its token was dead).
pub(crate) const POOL_ID_DROPPED: u32 = u32::MAX;

impl StringPool {
    /// An empty pool.
    pub(crate) fn new() -> StringPool {
        StringPool::default()
    }

    /// Intern `s`, assigning a fresh id the first time it is seen.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        match self.ids.get(s) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.ids.len()).expect("pool id space");
                self.ids.insert(s.to_string(), id);
                self.strings.push(s.to_string());
                id
            }
        }
    }

    /// Id of an already-interned string, if any. A miss means the token
    /// occurs nowhere in the indexed corpus.
    pub(crate) fn get(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// The string behind an id, if the id was ever assigned.
    #[cfg(test)]
    pub(crate) fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Drop every id not in `live` and reassign the survivors dense ids
    /// (ascending old-id order, so relative order is stable). Returns the
    /// old→new remap, indexed by old id; dropped ids map to
    /// [`POOL_ID_DROPPED`]. Callers must rewrite every stored id through
    /// the remap — ids from before the compaction are otherwise dangling.
    pub(crate) fn compact(&mut self, live: &HashSet<u32>) -> Vec<u32> {
        let mut remap = vec![POOL_ID_DROPPED; self.strings.len()];
        let mut strings = Vec::with_capacity(live.len());
        let mut ids = HashMap::with_capacity(live.len());
        for (old, s) in std::mem::take(&mut self.strings).into_iter().enumerate() {
            if live.contains(&(old as u32)) {
                let new = strings.len() as u32;
                remap[old] = new;
                ids.insert(s.clone(), new);
                strings.push(s);
            }
        }
        self.ids = ids;
        self.strings = strings;
        remap
    }
}

/// A column token domain: the sorted, deduplicated pool ids of its tokens.
pub(crate) type Run = Box<[u32]>;

/// `|A ∩ B|` for two runs, by one merge. Both inputs must be runs —
/// sorted and deduplicated — or the count comes out short.
pub(crate) fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "unsorted run");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "unsorted run");
    let (mut i, mut j, mut hits) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        hits += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    hits
}

/// A query column resolved against a leg's pool, never interned.
pub(crate) struct QueryColumn {
    /// The run of the column's tokens the pool knows.
    pub ids: Vec<u32>,
    /// Distinct tokens in the column, unseen ones included.
    pub len: usize,
}

impl QueryColumn {
    /// Jaccard against a lake column's run, bit for bit
    /// `dialite_text::jaccard` over their token sets: a token the pool
    /// never saw is in no run but counts in `len`, and `∅` against `∅`
    /// is 1.
    pub(crate) fn jaccard(&self, run: &[u32]) -> f64 {
        if self.len == 0 && run.is_empty() {
            return 1.0;
        }
        let inter = intersect_count(&self.ids, run);
        let union = self.len + run.len() - inter;
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::{TokenPostings, POOL_COMPACT_MIN};
    use proptest::prelude::*;

    fn arb_token() -> impl Strategy<Value = String> {
        "[a-z]{1,6}"
    }

    fn strings(prefix: &str, ns: &HashSet<u16>) -> HashSet<String> {
        ns.iter().map(|n| format!("{prefix}{n}")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The run routines equal the set definitions bit for bit: a lake
        /// column `C` interned by `TokenPostings` beside another column,
        /// a query column `Q` that may carry tokens the pool never saw,
        /// either side possibly empty, sizes from equal to far apart —
        /// before and after a churned-out table forces the pool to
        /// compact.
        #[test]
        fn run_routines_equal_the_set_definitions(
            lake in prop::collection::hash_set(0u16..400, 0..320),
            other in prop::collection::hash_set(0u16..400, 0..40),
            query in prop::collection::hash_set(0u16..400, 0..40),
            unseen in prop::collection::hash_set(0u16..8, 0..3),
            swap in any::<bool>(),
        ) {
            let (lake, query) = if swap { (query, lake) } else { (lake, query) };
            let c = strings("t", &lake);
            let mut q = strings("t", &query);
            q.extend(strings("unseen", &unseen));
            let truth = q.intersection(&c).count();
            let jaccard_bits = dialite_text::jaccard(&q, &c).to_bits();

            let mut postings = TokenPostings::new(POOL_COMPACT_MIN);
            postings.insert(0, &[strings("t", &other), c.clone()]);
            let dead: HashSet<String> = (0..1100).map(|i| format!("dead{i}")).collect();
            postings.insert(1, &[dead]);
            let before = postings.pool_len();
            for compacted in [false, true] {
                if compacted {
                    postings.remove(1);
                    let after = postings.pool_len();
                    prop_assert!(after < before, "removing slot 1 must compact the pool");
                }
                let run = &postings.runs(0)[1];
                prop_assert!(run.windows(2).all(|w| w[0] < w[1]), "runs stay sorted");
                let col = &postings.resolve(&q);
                prop_assert_eq!(col.len, q.len());
                prop_assert_eq!(intersect_count(&col.ids, run), truth);
                prop_assert_eq!(intersect_count(run, &col.ids), truth);
                prop_assert_eq!(col.jaccard(run).to_bits(), jaccard_bits);
            }
        }

        /// Interleave several logical insert streams (as concurrent indexers
        /// would) round-robin: first-seen ids never change, re-interns are
        /// hits, ids stay dense, and growth equals the number of distinct
        /// tokens regardless of interleaving.
        #[test]
        fn interleaved_streams_agree_on_stable_dense_ids(
            streams in prop::collection::vec(prop::collection::vec(arb_token(), 0..30), 1..5)
        ) {
            let mut pool = StringPool::new();
            let mut oracle: HashMap<String, u32> = HashMap::new();
            let depth = streams.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..depth {
                for stream in &streams {
                    let Some(tok) = stream.get(round) else { continue };
                    let id = pool.intern(tok);
                    match oracle.get(tok) {
                        Some(&known) => prop_assert_eq!(id, known, "id drifted for {}", tok),
                        None => {
                            // Fresh tokens take the next dense id.
                            prop_assert_eq!(id as usize, oracle.len(), "ids must stay dense");
                            oracle.insert(tok.clone(), id);
                        }
                    }
                }
            }
            prop_assert_eq!(pool.len(), oracle.len());
            // Lookup without insertion agrees for every token ever seen…
            for (tok, &id) in &oracle {
                prop_assert_eq!(pool.get(tok), Some(id));
            }
            // …and ids are a bijection.
            let distinct: HashSet<u32> = oracle.values().copied().collect();
            prop_assert_eq!(distinct.len(), oracle.len());
        }

        /// The same token multiset interned in any stream order yields the
        /// same final pool size, and `get` never inserts.
        #[test]
        fn pool_growth_is_order_independent(tokens in prop::collection::vec(arb_token(), 0..60)) {
            let mut forward = StringPool::new();
            for t in &tokens {
                forward.intern(t);
            }
            let mut backward = StringPool::new();
            for t in tokens.iter().rev() {
                backward.intern(t);
            }
            let distinct: HashSet<&String> = tokens.iter().collect();
            prop_assert_eq!(forward.len(), distinct.len());
            prop_assert_eq!(backward.len(), distinct.len());
            // `get` on a fresh pool inserts nothing.
            let probe = StringPool::new();
            for t in &tokens {
                prop_assert_eq!(probe.get(t), None);
            }
            prop_assert_eq!(probe.len(), 0);
        }
    }

    #[test]
    fn intersection_counts_shared_ids_at_any_length_ratio() {
        let long: Vec<u32> = (0..64).map(|i| i * 2).collect();
        for short in [
            vec![0, 3, 64, 126, 200],
            vec![],
            vec![1, 2, 4, 6, 8, 9, 126, 127],
            long.clone(),
        ] {
            let truth = short.iter().filter(|id| long.contains(id)).count();
            assert_eq!(intersect_count(&short, &long), truth);
            assert_eq!(intersect_count(&long, &short), truth);
        }
        let empty = |len| QueryColumn { ids: vec![], len };
        assert_eq!(empty(0).jaccard(&[]), 1.0);
        assert_eq!(empty(2).jaccard(&[]), 0.0);
        assert_eq!(empty(0).jaccard(&[7]), 0.0);
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut p = StringPool::new();
        let a = p.intern("berlin");
        let b = p.intern("boston");
        assert_eq!(p.intern("berlin"), a);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn get_does_not_insert() {
        let mut p = StringPool::new();
        assert_eq!(p.get("x"), None);
        assert_eq!(p.len(), 0);
        let id = p.intern("x");
        assert_eq!(p.get("x"), Some(id));
    }

    #[test]
    fn resolve_round_trips() {
        let mut p = StringPool::new();
        let a = p.intern("alpha");
        let b = p.intern("beta");
        assert_eq!(p.resolve(a), Some("alpha"));
        assert_eq!(p.resolve(b), Some("beta"));
        assert_eq!(p.resolve(99), None);
    }

    #[test]
    fn compact_drops_dead_ids_and_remaps_survivors() {
        let mut p = StringPool::new();
        let a = p.intern("keep_a");
        let dead = p.intern("drop_me");
        let b = p.intern("keep_b");
        let live: HashSet<u32> = [a, b].into_iter().collect();
        let remap = p.compact(&live);
        assert_eq!(p.len(), 2);
        assert_eq!(remap[dead as usize], POOL_ID_DROPPED);
        let (na, nb) = (remap[a as usize], remap[b as usize]);
        assert_ne!(na, POOL_ID_DROPPED);
        assert_ne!(nb, POOL_ID_DROPPED);
        // Survivors keep their relative order, ids re-densify from 0.
        assert_eq!((na, nb), (0, 1));
        assert_eq!(p.resolve(na), Some("keep_a"));
        assert_eq!(p.resolve(nb), Some("keep_b"));
        assert_eq!(p.get("drop_me"), None);
        // Re-interning a dropped token assigns a fresh dense id.
        assert_eq!(p.intern("drop_me"), 2);
    }

    #[test]
    fn compact_with_everything_live_is_identity() {
        let mut p = StringPool::new();
        let ids: Vec<u32> = ["x", "y", "z"].iter().map(|s| p.intern(s)).collect();
        let live: HashSet<u32> = ids.iter().copied().collect();
        let remap = p.compact(&live);
        for id in ids {
            assert_eq!(remap[id as usize], id);
        }
        assert_eq!(p.len(), 3);
    }
}
