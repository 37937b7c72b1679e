//! The string pool behind the discovery token store: dense `u32` ids for
//! overlap tokens, and the one routine that counts overlaps over them.
//!
//! Discovery engines compare *sets of tokens*. They keep column token
//! domains in a [`TokenPostings`](crate::retrieval::TokenPostings), the
//! pool's only user — one value store per shard, read by SANTOS and the
//! joinable leg; metadata keeps its header store — as **runs**: the
//! sorted, deduplicated ids of a column's tokens in the store's pool,
//! packed with the rest of their table's runs into one block per slot
//! and read as borrowed `&[u32]` slices
//! ([`Runs`](crate::retrieval::Runs)). An overlap is an integer count
//! over ids — no string is hashed per (query, candidate) pair — taken
//! either from a merge of two runs ([`intersect_count`]) or, on the
//! typeless SANTOS bounded path, from the store's posting walk, which
//! counts every query column's overlap with every candidate column it
//! reaches ([`DomainOverlaps`](crate::retrieval::DomainOverlaps)).
//! Jaccard ([`QueryColumn::jaccard_of`]) and containment follow from the
//! count. Query columns resolve through [`StringPool::get`], never
//! interning; a token the pool never saw is in no run but still counts in
//! the query's size.
//!
//! The pool keeps each token once: its bytes sit back to back in one
//! arena `String`, found by id through an end offset, and by content
//! through an open-addressed table of ids hashed with the pool's own
//! randomized SipHash, so crafted input cannot force probe collisions.
//!
//! Under lake churn the pool would grow without bound: tokens of removed
//! tables stay interned (dead dictionary weight). [`StringPool::compact`]
//! supports the store's compaction — keep only the ids the store proves
//! live, reassign dense ids, and hand back the old→new remap so the store
//! can rewrite its runs and postings. The remap is monotone, so a
//! rewritten run stays sorted.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Interns strings to dense `u32` ids. Ids are assigned in first-seen order.
#[derive(Debug, Clone, Default)]
pub(crate) struct StringPool {
    /// Every token's bytes, back to back in id order.
    arena: String,
    /// `ends[id]`: where token `id` ends in `arena`; it starts where
    /// token `id - 1` ends (token 0 at 0).
    ends: Vec<u32>,
    /// Open-addressed lookup by linear probing: a slot holds `id + 1`, 0
    /// is empty. The length is 0 or a power of two, and the table is kept
    /// at most half full, so every probe ends at an empty slot.
    table: Vec<u32>,
    /// Randomized per pool.
    hasher: RandomState,
}

/// Sentinel in the remap returned by [`StringPool::compact`]: the old id
/// was dropped (its token was dead).
pub(crate) const POOL_ID_DROPPED: u32 = u32::MAX;

/// Smallest lookup table a pool allocates.
const MIN_TABLE: usize = 16;

impl StringPool {
    /// An empty pool.
    pub(crate) fn new() -> StringPool {
        StringPool::default()
    }

    /// Intern `s`, assigning a fresh id the first time it is seen.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if 2 * (self.len() + 1) > self.table.len() {
            self.rehash((2 * self.table.len()).max(MIN_TABLE));
        }
        let at = match self.probe(s) {
            Ok(id) => return id,
            Err(at) => at,
        };
        // `POOL_ID_DROPPED` stays a sentinel, so `id + 1` fits a slot.
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id < POOL_ID_DROPPED)
            .expect("pool id space");
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("pool arena offset");
        self.ends.push(end);
        self.table[at] = id + 1;
        id
    }

    /// Id of an already-interned string, if any. A miss means the token
    /// occurs nowhere in the indexed corpus.
    pub(crate) fn get(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(s).ok()
    }

    /// The string behind an id, if the id was ever assigned.
    pub(crate) fn resolve(&self, id: u32) -> Option<&str> {
        ((id as usize) < self.len()).then(|| self.token(id))
    }

    /// Number of distinct strings interned.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Drop every id `live` rejects and reassign the survivors dense ids
    /// (ascending old-id order, so relative order is stable). Returns the
    /// old→new remap, indexed by old id; dropped ids map to
    /// [`POOL_ID_DROPPED`]. Callers must rewrite every stored id through
    /// the remap — ids from before the compaction are otherwise dangling.
    pub(crate) fn compact(&mut self, live: impl Fn(u32) -> bool) -> Vec<u32> {
        let old = std::mem::take(self);
        let mut remap = vec![POOL_ID_DROPPED; old.len()];
        // The survivors and their bytes are a subset of what fit `u32`
        // before, so the casts below cannot truncate.
        for (id, new) in (0..).zip(remap.iter_mut()) {
            if live(id) {
                *new = self.len() as u32;
                self.arena.push_str(old.token(id));
                self.ends.push(self.arena.len() as u32);
            }
        }
        self.rehash((2 * self.len()).next_power_of_two().max(MIN_TABLE));
        remap
    }

    /// The bytes of an assigned id.
    fn token(&self, id: u32) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// Where `s` sits in the (non-empty) lookup table: `Ok(id)` when
    /// interned, else `Err` with the empty slot its probe ended at.
    fn probe(&self, s: &str) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut at = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.table[at] {
                0 => return Err(at),
                slot if self.token(slot - 1) == s => return Ok(slot - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Rebuild the lookup table at `len` slots, a power of two at least
    /// twice the ids. Ids are distinct strings, so placing one compares
    /// nothing.
    fn rehash(&mut self, len: usize) {
        self.table = vec![0; len];
        let mask = len - 1;
        for id in 0..self.len() as u32 {
            let mut at = self.hasher.hash_one(self.token(id)) as usize & mask;
            while self.table[at] != 0 {
                at = (at + 1) & mask;
            }
            self.table[at] = id + 1;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Runs merged by [`intersect_count`] on this thread, so tests can pin
    /// which paths merge and which read the posting walk's counts.
    pub(crate) static MERGES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `|A ∩ B|` for two runs, by one merge. Both inputs must be runs —
/// sorted and deduplicated — or the count comes out short.
pub(crate) fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "unsorted run");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "unsorted run");
    #[cfg(test)]
    MERGES.with(|n| n.set(n.get() + 1));
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
        self.jaccard_of(intersect_count(&self.ids, run), run.len())
    }

    /// Jaccard against a run of `run_len` ids sharing `inter` with this
    /// column, however `inter` was counted.
    pub(crate) fn jaccard_of(&self, inter: usize, run_len: usize) -> f64 {
        if self.len == 0 && run_len == 0 {
            return 1.0;
        }
        let union = self.len + run_len - inter;
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::{TokenPostings, POOL_COMPACT_MIN};
    use crate::shard::ShardScope;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

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

            let mut postings = TokenPostings::new(POOL_COMPACT_MIN, ShardScope::all());
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
                let run = postings.runs(0).get(1).unwrap();
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
        /// tokens regardless of interleaving. One compaction at a random
        /// round keeps a random subset: its remap is monotone and dense,
        /// dropped tokens miss until re-interned, and every `get` agrees
        /// with the oracle before and after it.
        #[test]
        fn interleaved_streams_agree_on_stable_dense_ids(
            streams in prop::collection::vec(prop::collection::vec(arb_token(), 0..30), 1..5),
            compact_round in 0usize..32,
            keep in any::<u64>(),
        ) {
            let mut pool = StringPool::new();
            let mut oracle: HashMap<&str, u32> = HashMap::new();
            let mut dropped: HashSet<&str> = HashSet::new();
            let depth = streams.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..depth {
                if round == compact_round {
                    let before = pool.len();
                    let live = |id: u32| keep >> (id % 64) & 1 == 1;
                    let remap = pool.compact(live);
                    prop_assert_eq!(remap.len(), before);
                    // Survivors take 0, 1, 2, … in ascending old-id order.
                    let survivors: Vec<u32> =
                        (0..before as u32).filter(|&id| live(id)).collect();
                    for (new, &old) in survivors.iter().enumerate() {
                        prop_assert_eq!(remap[old as usize], new as u32);
                    }
                    prop_assert_eq!(pool.len(), survivors.len());
                    for (tok, id) in std::mem::take(&mut oracle) {
                        match remap[id as usize] {
                            POOL_ID_DROPPED => {
                                prop_assert!(!live(id));
                                dropped.insert(tok);
                            }
                            new => {
                                oracle.insert(tok, new);
                            }
                        }
                    }
                    for (&tok, &id) in &oracle {
                        prop_assert_eq!(pool.get(tok), Some(id));
                    }
                    for &tok in &dropped {
                        prop_assert_eq!(pool.get(tok), None);
                    }
                }
                for stream in &streams {
                    let Some(tok) = stream.get(round) else { continue };
                    let id = pool.intern(tok);
                    match oracle.get(tok.as_str()) {
                        Some(&known) => prop_assert_eq!(id, known, "id drifted for {}", tok),
                        None => {
                            // Fresh tokens take the next dense id.
                            prop_assert_eq!(id as usize, oracle.len(), "ids must stay dense");
                            oracle.insert(tok, id);
                            dropped.remove(tok.as_str());
                        }
                    }
                }
            }
            prop_assert_eq!(pool.len(), oracle.len());
            // Lookup without insertion agrees for every token ever seen…
            for (&tok, &id) in &oracle {
                prop_assert_eq!(pool.get(tok), Some(id));
                prop_assert_eq!(pool.resolve(id), Some(tok));
            }
            for &tok in &dropped {
                prop_assert_eq!(pool.get(tok), None);
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
        let remap = p.compact(|id| id == a || id == b);
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
        assert_eq!(p.get("drop_me"), Some(2));
        assert_eq!(p.resolve(2), Some("drop_me"));
        // A second compaction drops the first survivor; the rest shift down.
        let remap = p.compact(|id| id != 0);
        assert_eq!(remap, [POOL_ID_DROPPED, 0, 1]);
        assert_eq!(p.get("keep_a"), None);
        assert_eq!((p.get("keep_b"), p.get("drop_me")), (Some(0), Some(1)));
    }

    #[test]
    fn compact_with_everything_live_is_identity() {
        let mut p = StringPool::new();
        let ids: Vec<u32> = ["x", "y", "z"].iter().map(|s| p.intern(s)).collect();
        let remap = p.compact(|_| true);
        for id in ids {
            assert_eq!(remap[id as usize], id);
        }
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn the_empty_string_is_a_token() {
        let mut p = StringPool::new();
        let a = p.intern("a");
        let empty = p.intern("");
        assert_eq!((a, empty), (0, 1));
        assert_eq!(p.intern(""), empty);
        assert_eq!(p.get(""), Some(empty));
        assert_eq!(p.resolve(empty), Some(""));
        assert_eq!(p.resolve(a), Some("a"));
        // An empty first token ends where it starts.
        let mut q = StringPool::new();
        assert_eq!(q.intern(""), 0);
        assert_eq!(q.intern("b"), 1);
        assert_eq!(q.resolve(0), Some(""));
        assert_eq!(q.get("b"), Some(1));
    }

    #[test]
    fn prefix_sharing_neighbours_keep_their_own_bytes() {
        let mut p = StringPool::new();
        let ids: Vec<u32> = ["a", "ab", "abc", "b", "bc"]
            .iter()
            .map(|s| p.intern(s))
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        for (tok, id) in ["a", "ab", "abc", "b", "bc"].iter().zip(ids) {
            assert_eq!(p.get(tok), Some(id));
            assert_eq!(p.resolve(id), Some(*tok));
        }
        // Substrings of the arena that were never interned are misses.
        for miss in ["aba", "abcb", "c", "bca", "abab"] {
            assert_eq!(p.get(miss), None, "{miss}");
        }
        // Dropping the middle neighbour re-packs the arena around it.
        let remap = p.compact(|id| id != 1);
        assert_eq!(remap, [0, POOL_ID_DROPPED, 1, 2, 3]);
        assert_eq!(p.get("ab"), None);
        for (tok, id) in [("a", 0), ("abc", 1), ("b", 2), ("bc", 3)] {
            assert_eq!(p.get(tok), Some(id));
            assert_eq!(p.resolve(id), Some(tok));
        }
    }

    #[test]
    fn the_lookup_table_grows_and_stays_at_most_half_full() {
        let mut p = StringPool::new();
        let mut sizes = HashSet::new();
        for i in 0..10_000u32 {
            assert_eq!(p.intern(&format!("tok{i}")), i);
            assert!(2 * p.len() <= p.table.len());
            assert!(p.table.len().is_power_of_two());
            sizes.insert(p.table.len());
        }
        assert!(sizes.len() >= 8, "grew only {} times", sizes.len() - 1);
        assert_eq!(p.len(), 10_000);
        for i in 0..10_000u32 {
            let tok = format!("tok{i}");
            assert_eq!(p.get(&tok), Some(i));
            assert_eq!(p.intern(&tok), i);
            assert_eq!(p.resolve(i), Some(tok.as_str()));
        }
        assert_eq!(p.get("tok10000"), None);
        assert_eq!(p.len(), 10_000);
        // Keeping every third token shrinks the table with the ids.
        let remap = p.compact(|id| id % 3 == 0);
        assert_eq!(p.len(), 3_334);
        assert!(2 * p.len() <= p.table.len() && p.table.len() <= 4 * p.len());
        for i in 0..10_000u32 {
            let want = (i % 3 == 0).then_some(i / 3);
            assert_eq!(remap[i as usize], want.unwrap_or(POOL_ID_DROPPED));
            assert_eq!(p.get(&format!("tok{i}")), want);
        }
    }

    #[test]
    fn a_pool_that_never_interned_answers_every_get_with_none() {
        let p = StringPool::new();
        for tok in ["", "a", "tok0"] {
            assert_eq!(p.get(tok), None);
        }
        assert_eq!(p.resolve(0), None);
        assert_eq!(p.len(), 0);
        assert!(p.table.is_empty(), "a fresh pool allocates no table");
        let mut q = StringPool::new();
        assert!(q.compact(|_| true).is_empty());
        assert_eq!(q.get("a"), None);
        assert_eq!(q.intern("a"), 0);
    }
}
