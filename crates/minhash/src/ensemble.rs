//! The LSH Ensemble containment-search index (Zhu et al., VLDB 2016): an
//! immutable layout, with signatures computed on demand.
//!
//! Domains (column value sets) are partitioned by set size (equi-depth),
//! which needs only each domain's size: [`LshEnsembleBuilder::build`] lays
//! the index out from `(key, size)` entries sorted by `(size, key)`, so the
//! layout is a function of the entries alone, whatever order they were
//! inserted in. Each member holds a **signature cell**, filled at most
//! once: either up front ([`LshEnsembleBuilder::insert_signed`], the eager
//! reference the tests compare against) or by the **first probe of its
//! partition**: the caller passes a *signer* with every probe, and a
//! partition's first probe signs each member whose cell is empty. An index
//! that is never probed hashes nothing.
//!
//! Each partition bands its domains for every power-of-two row count
//! `r ≤ num_perm`, one `(band hash, domain)` array per band, sorted by
//! hash and probed by binary search. A band table is **built on first
//! probe** from the partition's signed cells and kept for the life of the
//! index: queries read one `(b, r)` per probed partition, and most top-k
//! queries take the exact path and probe none. Nothing here is persisted:
//! an index is rebuilt from its domains' sizes, so the band hash can
//! change freely. A containment query converts its threshold into a
//! per-partition Jaccard threshold using the partition's upper size bound,
//! picks the (near-)optimal `(b, r)` for that threshold among the
//! power-of-two `r` values — searched once per distinct threshold and
//! memoised — and probes `b` bands.
//!
//! **No mutation.** A built index is never changed: a caller whose domains
//! change lays out a new index over them (the discovery layer drops its
//! layout on every write and builds the next one on its first sketch
//! probe). An index therefore always answers exactly like a fresh build
//! over the same domains.
//!
//! The index is generic over the domain **key type** `K` (default
//! `String`): callers that identify domains structurally — e.g. the
//! discovery layer's `(table_idx, col)` pairs — index copyable ids instead
//! of formatted strings.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::hasher::Signature;
use crate::params::{containment_to_jaccard, optimal_params_restricted};

/// One domain handed to the builder: its key, its size and its signature
/// when the caller computed it up front.
type Entry<K> = (K, usize, Option<Signature>);

/// Hash of a band from the hashes of its two halves: an odd-multiplier xor,
/// then the SplitMix64 finaliser.
fn combine(left: u64, right: u64) -> u64 {
    let mut z = left.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ right;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tree hash of a band (a run of signature slots): a one-row band hashes
/// to its slot, a longer one to the [`combine`] of its halves split at
/// `len / 2`. Equal runs hash equal; unequal runs of one length collide
/// with probability ≈ 2⁻⁶⁴. The row count and band index are not hashed:
/// every band has its own table.
fn band_hash(slots: &[u64]) -> u64 {
    match slots {
        [] => 0,
        [slot] => *slot,
        _ => {
            let (left, right) = slots.split_at(slots.len() / 2);
            combine(band_hash(left), band_hash(right))
        }
    }
}

/// One band table of a partition: every signed member's band hash, sorted
/// ascending, with `ids` the parallel indices into the partition's keys.
struct Band {
    hashes: Box<[u64]>,
    ids: Box<[u32]>,
}

/// One size partition: its members, their signature cells and their band
/// tables, each built on first probe. Band `g` of the flattened bands (row
/// counts ascending, bands in order within a row count) is `bands[g]`.
struct Partition<K> {
    /// Maximum domain size in this partition (the `u` of the containment →
    /// Jaccard conversion).
    upper: usize,
    lower: usize,
    keys: Vec<K>,
    /// `cells[id]`: the signature of `keys[id]`, filled by the builder or
    /// by the partition's first probe.
    cells: Vec<OnceLock<Signature>>,
    /// Set by the first probe, once every member is signed. Bands are
    /// built only after it.
    signed: OnceLock<()>,
    bands: Box<[OnceLock<Band>]>,
}

impl<K> Partition<K> {
    /// A partition over a non-empty `(size, key)`-sorted chunk, with
    /// `bands` band tables left to build on first probe.
    fn build(chunk: Vec<Entry<K>>, bands: usize) -> Partition<K> {
        let lower = chunk.first().map_or(0, |e| e.1);
        let upper = chunk.last().map_or(0, |e| e.1);
        let (keys, cells) = chunk
            .into_iter()
            .map(|(key, _, sig)| (key, sig.map_or_else(OnceLock::new, OnceLock::from)))
            .unzip();
        Partition {
            lower,
            upper,
            keys,
            cells,
            signed: OnceLock::new(),
            bands: (0..bands).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Fill every empty cell through `sign`, on the first call only.
    /// Concurrent first probes block on one signing pass. A member `sign`
    /// has no signature for stays unsigned and is banded nowhere.
    fn sign(&self, sign: &dyn Fn(&K) -> Option<Signature>) {
        self.signed.get_or_init(|| {
            for (key, cell) in self.keys.iter().zip(&self.cells) {
                if cell.get().is_none() {
                    if let Some(sig) = sign(key) {
                        // Cells are filled only here, under `signed`, or
                        // by the builder.
                        let _ = cell.set(sig);
                    }
                }
            }
        });
    }

    /// Flattened band `g`, which covers slots `lo..lo + r`: built on the
    /// first call — one [`band_hash`] per signed member, then one sort —
    /// and shared by every later one. Concurrent first probes block on
    /// one build.
    fn band(&self, g: usize, lo: usize, r: usize) -> &Band {
        self.bands[g].get_or_init(|| {
            let mut entries: Vec<(u64, u32)> = self
                .cells
                .iter()
                .zip(0u32..)
                .filter_map(|(cell, id)| Some((band_hash(&cell.get()?.0[lo..lo + r]), id)))
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            Band {
                hashes: entries.iter().map(|&(h, _)| h).collect(),
                ids: entries.iter().map(|&(_, id)| id).collect(),
            }
        })
    }

    /// Probe `b` bands of row count `r`, whose first band is flattened band
    /// `first_band`: per band, a binary search plus an equal-range scan.
    fn query(&self, sig: &Signature, b: usize, r: usize, first_band: usize, hits: &mut HashSet<K>)
    where
        K: Clone + Eq + Hash,
    {
        for band in 0..b {
            let lo = band * r;
            let h = band_hash(&sig.0[lo..lo + r]);
            let table = self.band(first_band + band, lo, r);
            let from = table.hashes.partition_point(|&x| x < h);
            let to = from + table.hashes[from..].partition_point(|&x| x == h);
            hits.extend(
                table.ids[from..to]
                    .iter()
                    .map(|&id| self.keys[id as usize].clone()),
            );
        }
    }
}

/// Equi-depth partitioning of the entries, sorted here by `(size, key)`:
/// the layout depends on the entries alone, not on their order.
fn partition_entries<K: Ord>(
    mut entries: Vec<Entry<K>>,
    num_partitions: usize,
    bands: usize,
) -> Vec<Partition<K>> {
    entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let per = entries.len().div_ceil(num_partitions.max(1)).max(1);
    let mut entries = entries.into_iter();
    std::iter::from_fn(|| {
        let chunk: Vec<Entry<K>> = entries.by_ref().take(per).collect();
        (!chunk.is_empty()).then(|| Partition::build(chunk, bands))
    })
    .collect()
}

/// Accumulates domains before partitioning. `K` is the domain key type;
/// keys are expected to be distinct.
pub struct LshEnsembleBuilder<K = String> {
    num_perm: usize,
    entries: Vec<Entry<K>>,
}

impl<K: Clone + Eq + Hash + Ord> LshEnsembleBuilder<K> {
    /// Builder for signatures of `num_perm` slots.
    pub fn new(num_perm: usize) -> LshEnsembleBuilder<K> {
        LshEnsembleBuilder {
            num_perm,
            entries: Vec::new(),
        }
    }

    /// Stage a domain of `size` distinct tokens under `key`, unsigned: the
    /// first probe of its partition signs it.
    pub fn insert(&mut self, key: K, size: usize) {
        self.entries.push((key, size, None));
    }

    /// Stage a domain with its signature already computed — the eager
    /// build the lazy one is tested against: probes never sign it again.
    pub fn insert_signed(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        self.entries.push((key, size, Some(sig)));
    }

    /// Partition (equi-depth by size); signatures and bands come on first
    /// probe.
    pub fn build(self, num_partitions: usize) -> LshEnsemble<K> {
        let rs: Vec<usize> = std::iter::successors(Some(1usize), |r| Some(r * 2))
            .take_while(|&r| r <= self.num_perm)
            .collect();
        let bands = band_count(self.num_perm, &rs);
        LshEnsemble {
            num_perm: self.num_perm,
            allowed_r: rs,
            partitions: partition_entries(self.entries, num_partitions, bands),
            banding: Mutex::new(HashMap::new()),
            #[cfg(test)]
            banding_searches: AtomicUsize::new(0),
        }
    }
}

/// Bands per partition: `num_perm / r` for each row count `r` in `rs`.
fn band_count(num_perm: usize, rs: &[usize]) -> usize {
    rs.iter().map(|&r| num_perm / r).sum()
}

/// The built containment index. Query with a signature from the hash
/// family the signer uses, the query set's cardinality, a containment
/// threshold and the signer that fills unsigned cells on first probe.
/// Immutable — see the module docs.
pub struct LshEnsemble<K = String> {
    num_perm: usize,
    allowed_r: Vec<usize>,
    partitions: Vec<Partition<K>>,
    /// The chosen `(b, r)` per converted Jaccard threshold, keyed on its
    /// bits. `num_perm` and `allowed_r` are fixed per ensemble, so the
    /// threshold alone decides `(b, r)` and a memoised answer is exact.
    /// Bounded by the distinct (query size, partition bound) pairs probed.
    banding: Mutex<HashMap<u64, (usize, usize)>>,
    /// Parameter searches run (memo misses), for tests.
    #[cfg(test)]
    banding_searches: AtomicUsize,
}

/// One partition's entry in a query's probe schedule: which partition to
/// probe and the best containment score any of its domains could possibly
/// achieve against a query of the planning size.
///
/// Produced by [`LshEnsemble::probe_plan`]; consumed by budget-aware
/// schedulers (the discovery layer's budgeted top-k search) that probe partitions
/// best-bound-first and stop early once the running top-k verified score
/// provably beats every unprobed partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionProbe {
    /// Index of the partition, for [`LshEnsemble::query_partition`].
    pub partition: usize,
    /// The partition's upper domain-size bound (its `u`).
    pub upper: usize,
    /// Upper bound on the containment `|Q ∩ X| / |Q|` of any domain `X`
    /// stored in this partition: `min(1, upper / query_size)`. Exact-
    /// verification scores can never exceed it, which is what makes
    /// early termination sound.
    pub max_containment: f64,
}

impl<K: Clone + Eq + Hash + Ord> LshEnsemble<K> {
    /// Candidate keys whose domains likely contain at least `threshold` of
    /// the query set, sorted. Candidates are *probabilistic* — callers
    /// verify exact containment against the real token sets (the discovery
    /// layer does). `sign` computes the signature of a member a
    /// partition's first probe finds unsigned; `None` leaves that member
    /// out of every band.
    pub fn query(
        &self,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
        sign: &dyn Fn(&K) -> Option<Signature>,
    ) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        for idx in 0..self.partitions.len() {
            self.probe_partition_into(idx, sig, query_size, threshold, sign, &mut hits);
        }
        sorted(hits)
    }

    /// The query-time probe schedule for a query of `query_size` distinct
    /// tokens: every partition with its containment upper bound, ordered
    /// best-bound-first (ties broken by partition index, so the schedule is
    /// deterministic).
    ///
    /// Probing in this order lets a top-k scheduler stop as soon as its
    /// k-th best *verified* score is provably unbeatable by any unprobed
    /// partition — the candidate-cap lever that turns a probe-all scan into
    /// a budgeted search. The candidates of all scheduled partitions
    /// ([`LshEnsemble::query_partition`]) are exactly
    /// [`LshEnsemble::query`]'s.
    pub fn probe_plan(&self, query_size: usize) -> Vec<PartitionProbe> {
        let q = query_size.max(1) as f64;
        let mut plan: Vec<PartitionProbe> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(partition, p)| PartitionProbe {
                partition,
                upper: p.upper,
                max_containment: (p.upper as f64 / q).min(1.0),
            })
            .collect();
        plan.sort_by(|a, b| {
            b.max_containment
                .total_cmp(&a.max_containment)
                .then(a.partition.cmp(&b.partition))
        });
        plan
    }

    /// Probe a single partition (by [`PartitionProbe::partition`] index)
    /// and return its banded candidate keys, sorted for determinism. The
    /// `(b, r)` banding parameters and the signing are exactly
    /// [`LshEnsemble::query`]'s for this partition, and partitions are
    /// disjoint, so the union of all partitions' candidates equals the
    /// probe-all result.
    pub fn query_partition(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
        sign: &dyn Fn(&K) -> Option<Signature>,
    ) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        self.probe_partition_into(partition, sig, query_size, threshold, sign, &mut hits);
        sorted(hits)
    }

    /// Shared per-partition probe: sign the partition on its first probe,
    /// then threshold → per-partition Jaccard via the partition's upper
    /// bound, then the optimal materialized `(b, r)`.
    fn probe_partition_into(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
        sign: &dyn Fn(&K) -> Option<Signature>,
        hits: &mut HashSet<K>,
    ) {
        let Some(p) = self.partitions.get(partition) else {
            return;
        };
        let j = containment_to_jaccard(threshold, query_size, p.upper);
        let (b, r) = self.banding_for(j);
        // Bands are flattened by ascending `r`: skip the smaller row counts'.
        let Some(pos) = self.allowed_r.iter().position(|&x| x == r) else {
            return;
        };
        let first_band = band_count(self.num_perm, &self.allowed_r[..pos]);
        p.sign(sign);
        p.query(sig, b.min(self.num_perm / r), r, first_band, hits);
    }

    /// The `(b, r)` for converted Jaccard threshold `j`: searched on the
    /// first probe at `j`, memoised after. The memo only ever holds
    /// finished answers, so a poisoned lock still guards valid data.
    fn banding_for(&self, j: f64) -> (usize, usize) {
        let memo = || self.banding.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&br) = memo().get(&j.to_bits()) {
            return br;
        }
        #[cfg(test)]
        self.banding_searches.fetch_add(1, Ordering::Relaxed);
        // Searched outside the lock: concurrent probes must not queue
        // behind it.
        let br = optimal_params_restricted(j, self.num_perm, &self.allowed_r);
        memo().insert(j.to_bits(), br);
        br
    }

    /// Number of partitions actually built.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The `(lower, upper)` size bounds of each partition, in order.
    pub fn partition_bounds(&self) -> Vec<(usize, usize)> {
        self.partitions.iter().map(|p| (p.lower, p.upper)).collect()
    }

    /// Total number of indexed domains.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.keys.len()).sum()
    }

    /// `true` when the index holds no domains.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

/// Band hits in key order, for deterministic output.
fn sorted<K: Ord>(hits: HashSet<K>) -> Vec<K> {
    let mut out: Vec<K> = hits.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::MinHasher;
    use proptest::prelude::*;

    fn toks(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    /// The signer of an index whose every cell is pre-filled: it is never
    /// asked.
    fn presigned<K>(_: &K) -> Option<Signature> {
        panic!("a pre-signed index asked for a signature")
    }

    fn demo_hasher() -> MinHasher {
        MinHasher::new(256, 17)
    }

    /// The demo domains: a superset of the query universe, half of it, and
    /// disjoint noise of assorted sizes.
    fn demo_domains() -> HashMap<String, Vec<String>> {
        let mut domains = HashMap::new();
        let big = toks("q", 0..50).into_iter().chain(toks("extra", 0..150));
        domains.insert("big_superset".to_string(), big.collect());
        domains.insert("half".to_string(), toks("q", 0..25));
        for i in 0..20 {
            domains.insert(
                format!("noise{i}"),
                toks(&format!("n{i}_"), 0..(10 + i * 17)),
            );
        }
        domains
    }

    fn sig_of(hasher: &MinHasher, tokens: &[String]) -> Signature {
        hasher.signature(tokens.iter().map(String::as_str))
    }

    /// The demo index with every cell pre-filled, as an eager build
    /// lays it out.
    fn build_demo() -> (LshEnsemble<String>, MinHasher) {
        let hasher = demo_hasher();
        let mut b = LshEnsembleBuilder::new(256);
        for (key, tokens) in demo_domains() {
            b.insert_signed(key, tokens.len(), sig_of(&hasher, &tokens));
        }
        (b.build(4), hasher)
    }

    /// The demo index with every cell empty, and its domains for a signer.
    fn build_lazy() -> (LshEnsemble<String>, HashMap<String, Vec<String>>) {
        let domains = demo_domains();
        let mut b = LshEnsembleBuilder::new(256);
        for (key, tokens) in &domains {
            b.insert(key.clone(), tokens.len());
        }
        (b.build(4), domains)
    }

    /// Pairs decisively above the converted Jaccard threshold must be
    /// recalled. (Pairs *at* the threshold collide with ~50% probability by
    /// construction — the S-curve is centred there — so the test avoids the
    /// borderline regime; exact verification downstream handles it.)
    #[test]
    fn finds_superset_above_threshold() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        let hits = index.query(&sig, q.len(), 0.5, &presigned);
        assert!(
            hits.iter().any(|h| h == "big_superset"),
            "containment-1.0 domain must be found: {hits:?}"
        );
        assert!(
            !hits.iter().any(|h| h.starts_with("noise")),
            "disjoint noise should not surface: {hits:?}"
        );
    }

    #[test]
    fn lower_threshold_also_finds_partial_container() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        let hits = index.query(&sig, q.len(), 0.3, &presigned);
        assert!(hits.iter().any(|h| h == "big_superset"));
        assert!(
            hits.iter().any(|h| h == "half"),
            "0.5-containment domain should pass a 0.3 threshold: {hits:?}"
        );
    }

    #[test]
    fn partitions_are_size_ordered() {
        let (index, _) = build_demo();
        let bounds = index.partition_bounds();
        assert_eq!(bounds.len(), index.partition_count());
        for w in bounds.windows(2) {
            assert!(w[0].1 <= w[1].0 || w[0].1 <= w[1].1, "bounds: {bounds:?}");
        }
        for (lo, hi) in bounds {
            assert!(lo <= hi);
        }
    }

    #[test]
    fn empty_index_queries_cleanly() {
        let b = LshEnsembleBuilder::<String>::new(64);
        let index = b.build(4);
        assert!(index.is_empty());
        assert_eq!(index.partition_count(), 0);
        let sig = MinHasher::new(64, 1).signature(["x"]);
        assert!(index.query(&sig, 1, 0.5, &presigned).is_empty());
    }

    /// The index holds both kinds of insert, and a probe asks the signer
    /// only for the domain staged unsigned.
    #[test]
    fn builder_len_tracks_inserts() {
        let hasher = MinHasher::new(64, 1);
        let (a, b) = (["x", "y"], ["x", "y", "z"]);
        let mut builder = LshEnsembleBuilder::new(64);
        builder.insert("a", a.len());
        builder.insert_signed("b", b.len(), hasher.signature(b));
        let index = builder.build(8);
        assert_eq!(index.len(), 2);
        let sign = |key: &&str| {
            assert_eq!(*key, "a", "the pre-signed domain was signed again");
            Some(hasher.signature(a))
        };
        let hits = index.query(&hasher.signature(b), b.len(), 0.9, &sign);
        assert!(hits.contains(&"b"), "{hits:?}");
    }

    /// The layout is a function of the entries: whatever order they are
    /// inserted in, and whether they come pre-signed or are signed on
    /// first probe, two builds lay out the same partitions and answer
    /// every query alike.
    #[test]
    fn results_are_deterministic() {
        let (eager, hasher) = build_demo();
        let (lazy, domains) = build_lazy();
        let mut reversed: Vec<(&String, &Vec<String>)> = domains.iter().collect();
        reversed.sort_by(|a, b| (b.1.len(), b.0).cmp(&(a.1.len(), a.0)));
        let mut builder = LshEnsembleBuilder::new(256);
        for (key, tokens) in reversed {
            builder.insert_signed(key.clone(), tokens.len(), sig_of(&hasher, tokens));
        }
        let backwards = builder.build(4);
        assert_eq!(lazy.partition_bounds(), eager.partition_bounds());
        assert_eq!(backwards.partition_bounds(), eager.partition_bounds());
        let sign = |key: &String| domains.get(key).map(|tokens| sig_of(&hasher, tokens));
        for n in [10, 50, 500] {
            let q = toks("q", 0..n);
            let sig = sig_of(&hasher, &q);
            for t in [0.3, 0.5, 0.8] {
                let want = eager.query(&sig, n, t, &presigned);
                assert_eq!(lazy.query(&sig, n, t, &sign), want);
                assert_eq!(backwards.query(&sig, n, t, &presigned), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_query_signature_panics() {
        let (index, _) = build_demo();
        index.query(&Signature(vec![0; 32]), 10, 0.5, &presigned);
    }

    #[test]
    fn probe_plan_covers_every_partition_best_bound_first() {
        let (index, _) = build_demo();
        let plan = index.probe_plan(50);
        assert_eq!(plan.len(), index.partition_count());
        // Every partition appears exactly once.
        let mut seen: Vec<usize> = plan.iter().map(|p| p.partition).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..index.partition_count()).collect::<Vec<_>>());
        // Bounds are descending and consistent with min(1, upper/q).
        for w in plan.windows(2) {
            assert!(w[0].max_containment >= w[1].max_containment, "{plan:?}");
        }
        for p in &plan {
            let expect = (p.upper as f64 / 50.0).min(1.0);
            assert!((p.max_containment - expect).abs() < 1e-12, "{p:?}");
        }
    }

    #[test]
    fn partitionwise_probing_equals_probe_all_query() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        for threshold in [0.3, 0.5, 0.8] {
            let mut union: Vec<String> = index
                .probe_plan(q.len())
                .iter()
                .flat_map(|p| {
                    index.query_partition(p.partition, &sig, q.len(), threshold, &presigned)
                })
                .collect();
            union.sort();
            assert_eq!(
                union,
                index.query(&sig, q.len(), threshold, &presigned),
                "partitionwise union diverged at threshold {threshold}"
            );
        }
    }

    #[test]
    fn query_partition_out_of_range_is_empty() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..10);
        let sig = sig_of(&hasher, &q);
        assert!(index
            .query_partition(999, &sig, q.len(), 0.5, &presigned)
            .is_empty());
    }

    /// One domain inserted into an empty builder lays out one partition,
    /// which finds it.
    #[test]
    fn insert_into_empty_index_bootstraps_a_partition() {
        let hasher = MinHasher::new(64, 5);
        let mut builder = LshEnsembleBuilder::<String>::new(64);
        let d = toks("x", 0..20);
        builder.insert("only".to_string(), d.len());
        let index = builder.build(4);
        assert_eq!(index.len(), 1);
        assert_eq!(index.partition_count(), 1);
        let sign = |_: &String| Some(sig_of(&hasher, &d));
        let qsig = sig_of(&hasher, &d);
        assert_eq!(
            index.query(&qsig, d.len(), 0.5, &sign),
            vec!["only".to_string()]
        );
    }

    /// Band tables built so far, per partition.
    fn built_bands<K>(index: &LshEnsemble<K>) -> Vec<usize> {
        index
            .partitions
            .iter()
            .map(|p| p.bands.iter().filter(|b| b.get().is_some()).count())
            .collect()
    }

    /// Sign and build every band table of every partition, as an index
    /// that signed and banded eagerly would hold them.
    fn force_bands<K>(index: &LshEnsemble<K>, sign: &dyn Fn(&K) -> Option<Signature>) {
        for p in &index.partitions {
            p.sign(sign);
            let mut g = 0;
            for &r in &index.allowed_r {
                for band in 0..index.num_perm / r {
                    p.band(g, band * r, r);
                    g += 1;
                }
            }
            assert_eq!(g, p.bands.len());
        }
    }

    #[test]
    fn forced_band_tables_equal_the_recursive_band_hash() {
        for num_perm in [64usize, 48] {
            let hasher = MinHasher::new(num_perm, 9);
            let sigs: Vec<Signature> = (0..5)
                .map(|i| sig_of(&hasher, &toks("v", i..i * 7 + 3)))
                .collect();
            let chunk: Vec<Entry<usize>> = sigs
                .iter()
                .enumerate()
                .map(|(key, sig)| (key, 1, Some(sig.clone())))
                .collect();
            let rs: Vec<usize> = [1, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .filter(|&r| r <= num_perm)
                .collect();
            let p = Partition::build(chunk, band_count(num_perm, &rs));
            let n = sigs.len();
            let mut g = 0;
            for &r in &rs {
                for band in 0..num_perm / r {
                    let table = p.band(g, band * r, r);
                    assert_eq!(table.hashes.len(), n);
                    assert!(
                        table.hashes.windows(2).all(|w| w[0] <= w[1]),
                        "unsorted band"
                    );
                    let mut seen: Vec<u32> = table.ids.to_vec();
                    for (&h, &id) in table.hashes.iter().zip(table.ids.iter()) {
                        let slots = &sigs[id as usize].0[band * r..(band + 1) * r];
                        assert_eq!(
                            h,
                            band_hash(slots),
                            "num_perm {num_perm}, r {r}, band {band}"
                        );
                    }
                    seen.sort_unstable();
                    assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
                    g += 1;
                }
            }
            assert_eq!(g, p.bands.len());
        }
        let slots = [3u64, 5, 7, 11];
        assert_eq!(band_hash(&slots[..1]), 3);
        assert_eq!(
            band_hash(&slots),
            combine(combine(3, 5), combine(7, 11)),
            "a band combines its halves"
        );
    }

    /// A lazy index signs a partition's members on its first probe only,
    /// each exactly once; a member the signer does not know stays
    /// unsigned and is never a candidate.
    #[test]
    fn signatures_are_computed_on_first_probe_only() {
        let (mut domains, hasher) = (demo_domains(), demo_hasher());
        let mut builder = LshEnsembleBuilder::new(256);
        for (key, tokens) in &domains {
            builder.insert(key.clone(), tokens.len());
        }
        // The signer does not know `big_superset`.
        domains.remove("big_superset");
        let index = builder.build(4);
        let asked = Mutex::new(Vec::new());
        let sign = |key: &String| {
            asked.lock().unwrap().push(key.clone());
            domains.get(key).map(|tokens| sig_of(&hasher, tokens))
        };
        let calls = || asked.lock().unwrap().len();
        let q = toks("q", 0..50);
        let qsig = sig_of(&hasher, &q);
        index.query_partition(0, &qsig, q.len(), 0.5, &sign);
        let members = index.partitions[0].keys.len();
        assert_eq!(calls(), members, "signs the partition's members");
        index.query_partition(0, &qsig, q.len(), 0.9, &sign);
        assert_eq!(calls(), members, "a second probe signed again");

        // Every partition once, every member once.
        let hits = index.query(&qsig, q.len(), 0.5, &sign);
        assert_eq!(calls(), index.len());
        let signed: HashSet<String> = asked.lock().unwrap().iter().cloned().collect();
        assert_eq!(signed.len(), index.len(), "a member was signed twice");
        assert!(signed.contains("big_superset"));
        assert!(!hits.contains(&"big_superset".to_string()), "{hits:?}");
        assert!(hits.contains(&"half".to_string()), "{hits:?}");
    }

    /// Domains over a small token universe, so bands genuinely collide.
    fn small_domains() -> impl Strategy<Value = Vec<HashSet<u32>>> {
        prop::collection::vec(prop::collection::hash_set(0u32..24, 1..16), 1..14)
    }

    fn small_sig(hasher: &MinHasher, d: &HashSet<u32>) -> Signature {
        let tokens: Vec<String> = d.iter().map(|i| format!("t{i}")).collect();
        sig_of(hasher, &tokens)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every partition's candidates are exactly its keys whose
        /// `r`-slot run equals the query's in one of the first `b` bands —
        /// the band hash is exact on equality. The index is signed lazily.
        #[test]
        fn candidates_are_exactly_the_slot_run_matches(
            num_perm in prop_oneof![Just(48usize), Just(64usize)],
            domains in small_domains(),
            query in prop::collection::hash_set(0u32..24, 1..16),
            parts in 1usize..5,
            t in 0.0f64..1.0,
        ) {
            let hasher = MinHasher::new(num_perm, 7);
            let sign = |key: &usize| Some(small_sig(&hasher, &domains[*key]));
            let mut b = LshEnsembleBuilder::<usize>::new(num_perm);
            for (key, d) in domains.iter().enumerate() {
                b.insert(key, d.len());
            }
            let index = b.build(parts);
            let qsig = small_sig(&hasher, &query);
            let q = query.len();
            for (idx, p) in index.partitions.iter().enumerate() {
                let j = containment_to_jaccard(t, q, p.upper);
                let (b, r) = optimal_params_restricted(j, num_perm, &index.allowed_r);
                let runs_match = |sig: &Signature| {
                    (0..b).any(|band| sig.0[band * r..(band + 1) * r] == qsig.0[band * r..(band + 1) * r])
                };
                let mut expect: Vec<usize> = p
                    .keys
                    .iter()
                    .filter(|k| runs_match(&small_sig(&hasher, &domains[**k])))
                    .copied()
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(index.query_partition(idx, &qsig, q, t, &sign), expect);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A lazily signed index answers every `query` and
        /// `query_partition` exactly like a pre-signed one whose band
        /// tables are all built up front, over the domain sets an insert /
        /// replace / remove sequence passes through: each step lays both
        /// out afresh over the live domains. Answers are compared only
        /// after some steps, and then partition by partition in the plan's
        /// order, so the lazy index signs and bands its partitions in
        /// varying orders.
        #[test]
        fn cold_bands_answer_like_forced_bands_under_churn(
            num_perm in prop_oneof![Just(48usize), Just(64usize)],
            domains in small_domains(),
            ops in prop::collection::vec(
                (0u8..3, 0usize..20, prop::collection::hash_set(0u32..24, 1..16), 0u8..3),
                0..24,
            ),
            queries in prop::collection::vec(prop::collection::hash_set(0u32..24, 1..16), 1..3),
            parts in 1usize..5,
        ) {
            let hasher = MinHasher::new(num_perm, 7);
            let mut live: HashMap<usize, HashSet<u32>> = domains.iter().cloned().enumerate().collect();
            let qsigs: Vec<(Signature, usize)> =
                queries.iter().map(|q| (small_sig(&hasher, q), q.len())).collect();
            // The initial domains are compared too, then every step the
            // draw or the end of the sequence picks.
            let last = ops.len();
            let steps = std::iter::once(None).chain(ops.into_iter().map(Some));
            for (step, op) in steps.enumerate() {
                if let Some((kind, key, d, check)) = op {
                    if kind == 2 {
                        live.remove(&key);
                    } else {
                        live.insert(key, d);
                    }
                    if check != 0 && step != last {
                        continue;
                    }
                }
                let (mut cold, mut forced) = (
                    LshEnsembleBuilder::<usize>::new(num_perm),
                    LshEnsembleBuilder::<usize>::new(num_perm),
                );
                for (&key, d) in &live {
                    cold.insert(key, d.len());
                    forced.insert_signed(key, d.len(), small_sig(&hasher, d));
                }
                let (cold, forced) = (cold.build(parts), forced.build(parts));
                force_bands(&forced, &presigned);
                prop_assert_eq!(cold.partition_bounds(), forced.partition_bounds());
                let sign = |key: &usize| live.get(key).map(|d| small_sig(&hasher, d));
                for (qsig, q) in &qsigs {
                    for t in [0.2, 0.5, 0.9] {
                        for probe in cold.probe_plan(*q) {
                            prop_assert_eq!(
                                cold.query_partition(probe.partition, qsig, *q, t, &sign),
                                forced.query_partition(probe.partition, qsig, *q, t, &presigned)
                            );
                        }
                        prop_assert_eq!(
                            cold.query(qsig, *q, t, &sign),
                            forced.query(qsig, *q, t, &presigned)
                        );
                    }
                }
            }
        }
    }

    /// Every `(threshold, query size, partition bound)` the grid converts.
    fn jaccard_grid() -> Vec<f64> {
        let mut grid = Vec::new();
        for t in [0.0, 0.3, 0.5, 0.8, 1.0] {
            for q in [1usize, 7, 50, 300] {
                for u in [1usize, 10, 50, 199, 5000] {
                    grid.push(containment_to_jaccard(t, q, u));
                }
            }
        }
        grid
    }

    /// Probed twice: the memo answers the second pass.
    #[test]
    fn memoised_banding_equals_a_fresh_search() {
        let (index, _) = build_demo();
        for _ in 0..2 {
            for j in jaccard_grid() {
                assert_eq!(
                    index.banding_for(j),
                    optimal_params_restricted(j, 256, &index.allowed_r),
                    "j = {j}"
                );
            }
        }
    }

    #[test]
    fn repeated_probes_run_no_new_parameter_search() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        let searches = || index.banding_searches.load(Ordering::Relaxed);
        let probe_all = || {
            for p in index.probe_plan(q.len()) {
                index.query_partition(p.partition, &sig, q.len(), 0.5, &presigned);
            }
        };
        probe_all();
        let first = searches();
        assert!(first >= 1 && first <= index.partition_count());
        probe_all();
        index.query(&sig, q.len(), 0.5, &presigned);
        assert_eq!(searches(), first, "a repeated probe searched again");
    }

    #[test]
    fn band_tables_are_built_on_first_probe_only() {
        let (index, domains) = build_lazy();
        let hasher = demo_hasher();
        let sign = |key: &String| domains.get(key).map(|d| sig_of(&hasher, d));
        let total = || built_bands(&index).iter().sum::<usize>();
        assert_eq!(total(), 0, "the build banded a table");
        // One probe builds exactly the `b` bands it reads, and a repeat
        // reuses them.
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        let idx = index.probe_plan(q.len())[0].partition;
        let j = containment_to_jaccard(0.5, q.len(), index.partitions[idx].upper);
        let (b, r) = optimal_params_restricted(j, 256, &index.allowed_r);
        let mut expect = vec![0; index.partition_count()];
        expect[idx] = b.min(256 / r);
        for _ in 0..2 {
            index.query_partition(idx, &sig, q.len(), 0.5, &sign);
            assert_eq!(built_bands(&index), expect);
        }
        // 256 permutations allow 256 + 128 + … + 1 = 511 bands.
        force_bands(&index, &sign);
        let entries: usize = index
            .partitions
            .iter()
            .flat_map(|p| p.bands.iter())
            .map(|band| band.get().map_or(0, |t| t.hashes.len()))
            .sum();
        assert_eq!(entries, 511 * index.len());
    }

    #[test]
    fn concurrent_probes_agree_with_single_threaded() {
        // Cold and unsigned: no signature or band table exists when the
        // threads start, so they race on every partition's signing and
        // every band's first-probe build.
        let (index, domains) = build_lazy();
        assert_eq!(built_bands(&index).iter().sum::<usize>(), 0);
        let hasher = demo_hasher();
        let signed = AtomicUsize::new(0);
        let sign = |key: &String| {
            signed.fetch_add(1, Ordering::Relaxed);
            domains.get(key).map(|tokens| sig_of(&hasher, tokens))
        };
        let queries: Vec<(Signature, usize)> = [(0, 50), (0, 25), (10, 90), (0, 200)]
            .iter()
            .map(|&(lo, hi)| {
                let q = toks("q", lo..hi);
                (sig_of(&hasher, &q), q.len())
            })
            .collect();
        let answers = |index: &LshEnsemble<String>,
                       sign: &dyn Fn(&String) -> Option<Signature>|
         -> Vec<Vec<String>> {
            let mut out = Vec::new();
            for (sig, q) in &queries {
                for t in [0.3, 0.5, 0.8] {
                    out.push(index.query(sig, *q, t, sign));
                    for p in index.probe_plan(*q) {
                        out.push(index.query_partition(p.partition, sig, *q, t, sign));
                    }
                }
            }
            out
        };
        let expected = answers(&build_demo().0, &presigned);
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        answers(&index, &sign)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("probe thread panicked"), expected);
            }
        });
        assert_eq!(
            signed.load(Ordering::Relaxed),
            domains.len(),
            "signed twice"
        );
    }
}
