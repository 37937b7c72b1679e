//! The LSH Ensemble containment-search index (Zhu et al., VLDB 2016),
//! incrementally maintainable.
//!
//! Domains (column value sets) are partitioned by set size (equi-depth).
//! Each partition bands its domains for every power-of-two row count
//! `r ≤ num_perm`, one `(band hash, domain)` array per band, sorted by
//! hash and probed by binary search. A band table is **built on first
//! probe** from the signatures the partition shares with the index, and
//! kept until the next rebalance: queries read one `(b, r)` per probed
//! partition, and most top-k queries take the exact path and probe none.
//! On the discover-hetero benchmark lake (12 980 domains) the bands ever
//! probed hold 3.9 MB of the 75.9 MB an eager build laid out. Band tables
//! are never persisted, so the band hash can change without touching a
//! snapshot. A containment query converts its threshold into a
//! per-partition Jaccard threshold using the partition's upper size
//! bound, picks the (near-)optimal `(b, r)` for that threshold among the
//! power-of-two `r` values — searched once per distinct threshold and
//! memoised — and probes `b` bands.
//!
//! **Mutation.** The built index supports churn without O(lake) rebuilds:
//! [`LshEnsemble::insert`] stages a new domain without banding it: the
//! best-fitting existing partition stretches its bound, and the domain is
//! verified via [`LshEnsemble::staged_keys`] (and returned by every
//! [`LshEnsemble::query`]) until the next rebalance partitions it.
//! [`LshEnsemble::remove`] tombstones a key — dead postings stay in the
//! banding tables but are filtered out of query results. Both operations
//! are `O(changed domain)`; a band first built after either still holds
//! the postings of the rebalance. Because staged inserts and stretched
//! bounds slowly degrade the equi-depth layout, the index tracks a
//! *dirtiness* count and re-partitions from its retained `(key, size,
//! signature)` entries once dirtiness exceeds a configurable fraction of
//! the live domain count ([`LshEnsemble::set_rebalance_threshold`]). A
//! rebalance bands nothing and produces exactly the layout a fresh build
//! over the live entries would — the canonical form the
//! incremental-oracle tests pin.
//!
//! The index is generic over the domain **key type** `K` (default
//! `String`): callers that identify domains structurally — e.g. the
//! discovery layer's `(table_idx, col)` pairs — index copyable ids instead
//! of formatted strings.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::hasher::{MinHasher, Signature};
use crate::params::{containment_to_jaccard, optimal_params_restricted};

/// Default fraction of live domains that may be dirty (staged or
/// tombstoned) before a mutation triggers re-partitioning.
pub const DEFAULT_REBALANCE_THRESHOLD: f64 = 0.25;

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

/// One band table of a partition: every member's band hash, sorted
/// ascending, with `ids` the parallel indices into the partition's keys —
/// each member has exactly one entry.
struct Band {
    hashes: Box<[u64]>,
    ids: Box<[u32]>,
}

/// One size partition: its members and their band tables, each built on
/// first probe. Band `g` of the flattened bands (row counts ascending,
/// bands in order within a row count) is `bands[g]`.
struct Partition<K> {
    /// Maximum domain size in this partition (the `u` of the containment →
    /// Jaccard conversion).
    upper: usize,
    lower: usize,
    keys: Vec<K>,
    /// `sigs[id]`: the signature `keys[id]` had when the partition was
    /// built. Bands hash these, never the live entries, so a key removed
    /// or re-inserted since is banded as it was at the rebalance.
    sigs: Vec<Arc<Signature>>,
    bands: Box<[OnceLock<Band>]>,
}

impl<K: Clone + Eq + Hash> Partition<K> {
    /// A partition over a non-empty `(size, key)`-sorted chunk, with
    /// `bands` band tables left to build on first probe.
    fn build(chunk: &[(&K, usize, &Arc<Signature>)], bands: usize) -> Partition<K> {
        Partition {
            lower: chunk.first().map_or(0, |e| e.1),
            upper: chunk.last().map_or(0, |e| e.1),
            keys: chunk.iter().map(|e| e.0.clone()).collect(),
            sigs: chunk.iter().map(|e| Arc::clone(e.2)).collect(),
            bands: (0..bands).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Flattened band `g`, which covers slots `lo..lo + r`: built on the
    /// first call — one [`band_hash`] per member, then one sort — and
    /// shared by every later one. Concurrent first probes block on one
    /// build.
    fn band(&self, g: usize, lo: usize, r: usize) -> &Band {
        self.bands[g].get_or_init(|| {
            let mut entries: Vec<(u64, u32)> = self
                .sigs
                .iter()
                .map(|sig| band_hash(&sig.0[lo..lo + r]))
                .zip(0u32..)
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
    fn query(&self, sig: &Signature, b: usize, r: usize, first_band: usize, hits: &mut HashSet<K>) {
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

/// Equi-depth partitioning over `(key, size, signature)` entries, sorted
/// here by `(size, key)` — shared by the builder and by incremental
/// rebalances so both produce the identical canonical layout.
fn partition_entries<'a, K: Clone + Eq + Hash + Ord + 'a>(
    entries: impl Iterator<Item = (&'a K, usize, &'a Arc<Signature>)>,
    num_partitions: usize,
    bands: usize,
) -> Vec<Partition<K>> {
    let mut sorted: Vec<(&K, usize, &Arc<Signature>)> = entries.collect();
    sorted.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(b.0)));
    if sorted.is_empty() {
        return Vec::new();
    }
    let per = sorted.len().div_ceil(num_partitions.max(1));
    sorted
        .chunks(per)
        .map(|chunk| Partition::build(chunk, bands))
        .collect()
}

/// Accumulates domains before partitioning. `K` is the domain key type.
pub struct LshEnsembleBuilder<K = String> {
    hasher: MinHasher,
    num_perm: usize,
    entries: Vec<(K, usize, Arc<Signature>)>,
}

impl<K: Clone + Eq + Hash + Ord> LshEnsembleBuilder<K> {
    /// Builder with `num_perm` hash functions and a deterministic seed.
    pub fn new(num_perm: usize, seed: u64) -> LshEnsembleBuilder<K> {
        LshEnsembleBuilder {
            hasher: MinHasher::new(num_perm, seed),
            num_perm,
            entries: Vec::new(),
        }
    }

    /// The hasher queries must use to be comparable with this index.
    pub fn hasher(&self) -> &MinHasher {
        &self.hasher
    }

    /// Hash and stage a domain under `key`; its size is the number of
    /// distinct tokens, the cardinality the signature is taken over.
    pub fn insert_tokens<'a, I: IntoIterator<Item = &'a str>>(&mut self, key: K, tokens: I) {
        let toks: HashSet<&str> = tokens.into_iter().collect();
        let size = toks.len();
        let sig = self.hasher.signature(toks);
        self.entries.push((key, size, Arc::new(sig)));
    }

    /// Stage a pre-computed signature (size = domain cardinality).
    pub fn insert_signature(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        self.entries.push((key, size, Arc::new(sig)));
    }

    /// Number of staged domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no domain has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Partition (equi-depth by size); bands are built on first probe.
    pub fn build(self, num_partitions: usize) -> LshEnsemble<K> {
        let num_partitions = num_partitions.max(1);
        let rs: Vec<usize> = std::iter::successors(Some(1usize), |r| Some(r * 2))
            .take_while(|&r| r <= self.num_perm)
            .collect();
        let partitions = partition_entries(
            self.entries.iter().map(|(k, size, sig)| (k, *size, sig)),
            num_partitions,
            band_count(self.num_perm, &rs),
        );
        LshEnsemble {
            num_perm: self.num_perm,
            allowed_r: rs,
            num_partitions,
            partitions,
            entries: self
                .entries
                .into_iter()
                .map(|(k, size, sig)| (k, (size, sig)))
                .collect(),
            staged: HashSet::new(),
            tombstones: HashSet::new(),
            rebalance_threshold: DEFAULT_REBALANCE_THRESHOLD,
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

/// The built containment index. Query with a signature from the builder's
/// [`MinHasher`], the query set's cardinality, and a containment threshold.
/// Supports incremental [`insert`](LshEnsemble::insert) /
/// [`remove`](LshEnsemble::remove) — see the module docs.
pub struct LshEnsemble<K = String> {
    num_perm: usize,
    allowed_r: Vec<usize>,
    num_partitions: usize,
    partitions: Vec<Partition<K>>,
    /// Live domains: `key → (size, signature)`. Retained so a rebalance can
    /// re-partition without the caller replaying anything.
    entries: HashMap<K, (usize, Arc<Signature>)>,
    /// Keys inserted since the last (re)build. They are not banded: every
    /// [`LshEnsemble::query`] returns them, and recall-critical callers
    /// verify them exactly — [`LshEnsemble::staged_keys`] exposes the set.
    staged: HashSet<K>,
    /// Keys removed since the last (re)build whose postings still sit in
    /// the banding tables; filtered out of every query result.
    tombstones: HashSet<K>,
    /// Dirtiness fraction that triggers re-partitioning.
    rebalance_threshold: f64,
    /// The chosen `(b, r)` per converted Jaccard threshold, keyed on its
    /// bits. `num_perm` and `allowed_r` are fixed per ensemble, so the
    /// threshold alone decides `(b, r)` and a memoised answer is exact.
    /// Cleared by [`LshEnsemble::rebalance`], which bounds it by the
    /// distinct (query size, partition bound) pairs probed since.
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
/// schedulers (the discovery layer's `TopKPlanner`) that probe partitions
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
    /// the query set. Candidates are *probabilistic* — callers verify exact
    /// containment against the real token sets (the discovery layer does).
    /// Every staged key is a candidate.
    pub fn query(&self, sig: &Signature, query_size: usize, threshold: f64) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        for idx in 0..self.partitions.len() {
            self.probe_partition_into(idx, sig, query_size, threshold, &mut hits);
        }
        hits.extend(self.staged.iter().cloned());
        self.live_sorted(hits)
    }

    /// Drop tombstoned keys and sort, for deterministic output.
    fn live_sorted(&self, mut hits: HashSet<K>) -> Vec<K> {
        if !self.tombstones.is_empty() {
            hits.retain(|k| !self.tombstones.contains(k));
        }
        let mut out: Vec<K> = hits.into_iter().collect();
        out.sort();
        out
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
    /// ([`LshEnsemble::query_partition`]) together with
    /// [`LshEnsemble::staged_keys`] are exactly [`LshEnsemble::query`]'s.
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
    /// and return its banded candidate keys, tombstone-filtered and sorted
    /// for determinism. The `(b, r)` banding parameters are chosen exactly
    /// as [`LshEnsemble::query`] chooses them for this partition. Staged
    /// keys are not banded, so the union of all partitions' candidates and
    /// [`LshEnsemble::staged_keys`] equals the probe-all result.
    pub fn query_partition(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
    ) -> Vec<K> {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        let mut hits = HashSet::new();
        self.probe_partition_into(partition, sig, query_size, threshold, &mut hits);
        self.live_sorted(hits)
    }

    /// Shared per-partition probe: threshold → per-partition Jaccard via
    /// the partition's upper bound, then the optimal materialized `(b, r)`.
    fn probe_partition_into(
        &self,
        partition: usize,
        sig: &Signature,
        query_size: usize,
        threshold: f64,
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

    /// Insert (or replace) a domain in the live index. The domain is marked
    /// *staged* and is not banded until the next rebalance; the
    /// best-fitting existing partition stretches its size bounds when the
    /// size falls outside every bound. `O(1)` partitions touched.
    pub fn insert(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        if self.entries.contains_key(&key) {
            self.remove(&key);
        }
        self.entries.insert(key.clone(), (size, Arc::new(sig)));
        // A re-inserted key must not stay suppressed by its own tombstone.
        // Postings of the *old* version may resurface as candidates until
        // the next rebalance — recall-safe, callers verify exactly.
        self.tombstones.remove(&key);
        self.staged.insert(key);
        if self.partitions.is_empty() {
            self.rebalance();
            return;
        }
        // First partition whose upper bound admits the size, else the last
        // partition stretched upward. Stretching `upper` only lowers that
        // partition's converted Jaccard threshold — recall-safe.
        let idx = self
            .partitions
            .iter()
            .position(|p| size <= p.upper)
            .unwrap_or(self.partitions.len() - 1);
        let p = &mut self.partitions[idx];
        p.upper = p.upper.max(size);
        p.lower = p.lower.min(size);
        self.maybe_rebalance();
    }

    /// Tombstone a domain: it disappears from query results immediately;
    /// its banding postings are reclaimed at the next rebalance. Returns
    /// `false` when the key was not live.
    pub fn remove(&mut self, key: &K) -> bool {
        if self.entries.remove(key).is_none() {
            return false;
        }
        // Staged keys flip straight to tombstones too: their postings
        // linger in the banding tables until the next rebalance.
        self.staged.remove(key);
        self.tombstones.insert(key.clone());
        self.maybe_rebalance();
        true
    }

    /// Keys inserted since the last rebalance. They are not banded;
    /// exact-verification layers scan them explicitly so a freshly added
    /// domain can never be an LSH false negative.
    pub fn staged_keys(&self) -> impl Iterator<Item = &K> {
        self.staged.iter()
    }

    /// Staged inserts + tombstones since the last rebalance.
    pub fn dirtiness(&self) -> usize {
        self.staged.len() + self.tombstones.len()
    }

    /// Set the dirtiness fraction (of live domains) above which a mutation
    /// triggers re-partitioning. `0.0` rebalances on every mutation;
    /// `f64::INFINITY` never rebalances automatically.
    pub fn set_rebalance_threshold(&mut self, fraction: f64) {
        assert!(fraction >= 0.0, "rebalance threshold must be non-negative");
        self.rebalance_threshold = fraction;
    }

    fn maybe_rebalance(&mut self) {
        let budget = (self.entries.len() as f64 * self.rebalance_threshold).ceil();
        if self.dirtiness() as f64 > budget {
            self.rebalance();
        }
    }

    /// Re-partition the live entries into the canonical equi-depth layout
    /// (identical to a fresh build over the same entries), clearing all
    /// staged/tombstone state and the `(b, r)` memo. `O(live domains)`.
    pub fn rebalance(&mut self) {
        self.partitions = partition_entries(
            self.entries.iter().map(|(k, (size, sig))| (k, *size, sig)),
            self.num_partitions,
            band_count(self.num_perm, &self.allowed_r),
        );
        self.staged.clear();
        self.tombstones.clear();
        self.banding
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Number of partitions actually built.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The `(lower, upper)` size bounds of each partition, in order.
    pub fn partition_bounds(&self) -> Vec<(usize, usize)> {
        self.partitions.iter().map(|p| (p.lower, p.upper)).collect()
    }

    /// Total number of live (indexed, not tombstoned) domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the index holds no live domains.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live `(key, size, signature)` entries in canonical `(size, key)`
    /// order — the durable sketch export. Feeding these back through
    /// [`LshEnsembleBuilder::insert_signature`] and building reproduces
    /// this index's canonical layout without recomputing a single MinHash
    /// signature, which is what lets a snapshot warm-start skip the
    /// per-token hashing pass entirely.
    pub fn export_entries(&self) -> Vec<(K, usize, Signature)> {
        let mut entries: Vec<(K, usize, Signature)> = self
            .entries
            .iter()
            .map(|(k, (size, sig))| (k.clone(), *size, Signature::clone(sig)))
            .collect();
        entries.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    fn build_demo() -> (LshEnsemble<String>, MinHasher) {
        let mut b = LshEnsembleBuilder::new(256, 17);
        // A larger domain fully containing the query universe.
        let big = toks("q", 0..50)
            .into_iter()
            .chain(toks("extra", 0..150))
            .collect::<Vec<_>>();
        b.insert_tokens("big_superset".to_string(), big.iter().map(String::as_str));
        // A small domain equal to half the query.
        let half = toks("q", 0..25);
        b.insert_tokens("half".to_string(), half.iter().map(String::as_str));
        // Disjoint noise domains of assorted sizes.
        for i in 0..20 {
            let noise = toks(&format!("n{i}_"), 0..(10 + i * 17));
            b.insert_tokens(format!("noise{i}"), noise.iter().map(String::as_str));
        }
        let hasher = b.hasher().clone();
        (b.build(4), hasher)
    }

    /// Pairs decisively above the converted Jaccard threshold must be
    /// recalled. (Pairs *at* the threshold collide with ~50% probability by
    /// construction — the S-curve is centred there — so the test avoids the
    /// borderline regime; exact verification downstream handles it.)
    #[test]
    fn finds_superset_above_threshold() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&sig, q.len(), 0.5);
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
    fn exported_sketches_rebuild_the_index_without_hashing() {
        let (index, hasher) = build_demo();
        let exported = index.export_entries();
        assert_eq!(exported.len(), index.len());
        // Canonical (size, key) order, the same order build() sorts into.
        for w in exported.windows(2) {
            assert!((w[0].1, &w[0].0) < (w[1].1, &w[1].0), "unsorted export");
        }
        // Rebuild purely from signatures: zero signature computations…
        let mut b: LshEnsembleBuilder<String> = LshEnsembleBuilder::new(256, 17);
        let warm_hasher = b.hasher().clone();
        for (key, size, sig) in exported {
            b.insert_signature(key, size, sig);
        }
        let rebuilt = b.build(index.partition_count());
        assert_eq!(warm_hasher.signatures_computed(), 0);
        // …and identical layout and query behavior.
        assert_eq!(rebuilt.partition_bounds(), index.partition_bounds());
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let mut a = index.query(&sig, q.len(), 0.5);
        let mut b = rebuilt.query(&sig, q.len(), 0.5);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn lower_threshold_also_finds_partial_container() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&sig, q.len(), 0.3);
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
        let b = LshEnsembleBuilder::<String>::new(64, 1);
        let hasher = b.hasher().clone();
        let index = b.build(4);
        assert!(index.is_empty());
        let sig = hasher.signature(["x"]);
        assert!(index.query(&sig, 1, 0.5).is_empty());
    }

    #[test]
    fn builder_len_tracks_inserts() {
        let mut b = LshEnsembleBuilder::new(64, 1);
        assert!(b.is_empty());
        b.insert_tokens("a", ["1", "2"]);
        b.insert_signature("b", 3, MinHasher::new(64, 1).signature(["x", "y", "z"]));
        assert_eq!(b.len(), 2);
        let index = b.build(8);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn token_domain_size_counts_distinct_tokens() {
        let mut b = LshEnsembleBuilder::new(64, 1);
        b.insert_tokens("dup", ["a", "a", "b"]);
        let exported = b.build(1).export_entries();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].1, 2, "size of {{a, b}}");
        assert_eq!(exported[0].2, MinHasher::new(64, 1).signature(["a", "b"]));
    }

    #[test]
    fn results_are_deterministic() {
        let (i1, h1) = build_demo();
        let (i2, _) = build_demo();
        let q = toks("q", 0..50);
        let sig = h1.signature(q.iter().map(String::as_str));
        assert_eq!(i1.query(&sig, 50, 0.5), i2.query(&sig, 50, 0.5));
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_query_signature_panics() {
        let (index, _) = build_demo();
        index.query(&Signature(vec![0; 32]), 10, 0.5);
    }

    #[test]
    fn removed_key_disappears_from_queries_immediately() {
        let (mut index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        assert!(index
            .query(&sig, q.len(), 0.5)
            .iter()
            .any(|h| h == "big_superset"));
        let n = index.len();
        assert!(index.remove(&"big_superset".to_string()));
        assert!(!index.remove(&"big_superset".to_string()), "already gone");
        assert_eq!(index.len(), n - 1);
        assert!(
            !index
                .query(&sig, q.len(), 0.5)
                .iter()
                .any(|h| h == "big_superset"),
            "tombstoned key must not surface"
        );
    }

    #[test]
    fn inserted_key_is_queryable_without_rebuild() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY); // isolate the staged path
        let fresh = toks("q", 0..50)
            .into_iter()
            .chain(toks("new", 0..80))
            .collect::<Vec<_>>();
        let sig = hasher.signature(fresh.iter().map(String::as_str));
        index.insert("fresh_superset".to_string(), fresh.len(), sig);
        assert!(index.staged_keys().any(|k| k == "fresh_superset"));
        assert_eq!(index.dirtiness(), 1);

        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&qsig, q.len(), 0.5);
        assert!(
            hits.iter().any(|h| h == "fresh_superset"),
            "staged superset must be found: {hits:?}"
        );
    }

    #[test]
    fn rebalance_restores_canonical_layout_and_clears_dirtiness() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        // Churn: drop two noise domains, add one new one.
        index.remove(&"noise0".to_string());
        index.remove(&"noise1".to_string());
        let newd = toks("nd", 0..40);
        index.insert(
            "newdom".to_string(),
            newd.len(),
            hasher.signature(newd.iter().map(String::as_str)),
        );
        assert_eq!(index.dirtiness(), 3);
        index.rebalance();
        assert_eq!(index.dirtiness(), 0);

        // Canonical form: identical to a fresh build over the same domains.
        let mut b = LshEnsembleBuilder::new(256, 17);
        let big = toks("q", 0..50)
            .into_iter()
            .chain(toks("extra", 0..150))
            .collect::<Vec<_>>();
        b.insert_tokens("big_superset".to_string(), big.iter().map(String::as_str));
        let half = toks("q", 0..25);
        b.insert_tokens("half".to_string(), half.iter().map(String::as_str));
        for i in 2..20 {
            let noise = toks(&format!("n{i}_"), 0..(10 + i * 17));
            b.insert_tokens(format!("noise{i}"), noise.iter().map(String::as_str));
        }
        b.insert_tokens("newdom".to_string(), newd.iter().map(String::as_str));
        let fresh = b.build(4);
        assert_eq!(index.partition_bounds(), fresh.partition_bounds());
        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        assert_eq!(
            index.query(&qsig, q.len(), 0.4),
            fresh.query(&qsig, q.len(), 0.4),
            "rebalanced index must answer like a fresh build"
        );
    }

    #[test]
    fn dirtiness_threshold_triggers_automatic_rebalance() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(0.1); // 22 domains → budget ⌈2.2⌉ = 3
        for i in 0..3 {
            let d = toks(&format!("auto{i}_"), 0..30);
            index.insert(
                format!("auto{i}"),
                d.len(),
                hasher.signature(d.iter().map(String::as_str)),
            );
        }
        assert!(
            index.dirtiness() <= 3,
            "4th dirty op must have rebalanced, dirtiness {}",
            index.dirtiness()
        );
    }

    #[test]
    fn replacing_a_key_keeps_one_live_copy() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        let n = index.len();
        let d = toks("q", 0..50);
        index.insert(
            "half".to_string(),
            d.len(),
            hasher.signature(d.iter().map(String::as_str)),
        );
        assert_eq!(index.len(), n, "replace keeps the live count");
        let q = toks("q", 0..50);
        let qsig = hasher.signature(q.iter().map(String::as_str));
        let hits = index.query(&qsig, q.len(), 0.9);
        assert!(
            hits.iter().filter(|h| *h == "half").count() <= 1,
            "stale copy must not resurface: {hits:?}"
        );
        assert!(
            hits.iter().any(|h| h == "half"),
            "the replacement (now a full superset) should be found: {hits:?}"
        );
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
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        // Add churn so tombstone filtering is exercised on both paths.
        index.remove(&"noise3".to_string());
        let fresh = toks("q", 0..50)
            .into_iter()
            .chain(toks("fp", 0..90))
            .collect::<Vec<_>>();
        index.insert(
            "churned".to_string(),
            fresh.len(),
            hasher.signature(fresh.iter().map(String::as_str)),
        );
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        for threshold in [0.3, 0.5, 0.8] {
            let mut union: Vec<String> = index
                .probe_plan(q.len())
                .iter()
                .flat_map(|p| index.query_partition(p.partition, &sig, q.len(), threshold))
                .chain(index.staged_keys().cloned())
                .collect();
            union.sort();
            union.dedup();
            assert_eq!(
                union,
                index.query(&sig, q.len(), threshold),
                "partitionwise union diverged at threshold {threshold}"
            );
        }
    }

    #[test]
    fn query_partition_out_of_range_is_empty() {
        let (index, hasher) = build_demo();
        let q = toks("q", 0..10);
        let sig = hasher.signature(q.iter().map(String::as_str));
        assert!(index.query_partition(999, &sig, q.len(), 0.5).is_empty());
    }

    #[test]
    fn insert_into_empty_index_bootstraps_a_partition() {
        let b = LshEnsembleBuilder::<String>::new(64, 5);
        let hasher = b.hasher().clone();
        let mut index = b.build(4);
        let d = toks("x", 0..20);
        index.insert(
            "only".to_string(),
            d.len(),
            hasher.signature(d.iter().map(String::as_str)),
        );
        assert_eq!(index.len(), 1);
        let qsig = hasher.signature(d.iter().map(String::as_str));
        assert_eq!(index.query(&qsig, d.len(), 0.5), vec!["only".to_string()]);
    }

    /// Band tables built so far, per partition.
    fn built_bands<K>(index: &LshEnsemble<K>) -> Vec<usize> {
        index
            .partitions
            .iter()
            .map(|p| p.bands.iter().filter(|b| b.get().is_some()).count())
            .collect()
    }

    /// Build every band table of every partition, as an index that banded
    /// eagerly would hold them.
    fn force_bands<K: Clone + Eq + Hash>(index: &LshEnsemble<K>) {
        for p in &index.partitions {
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
            let sigs: Vec<Arc<Signature>> = (0..5)
                .map(|i| {
                    Arc::new(hasher.signature(toks("v", i..i * 7 + 3).iter().map(String::as_str)))
                })
                .collect();
            let keys: Vec<usize> = (0..sigs.len()).collect();
            let chunk: Vec<(&usize, usize, &Arc<Signature>)> =
                keys.iter().zip(&sigs).map(|(k, sig)| (k, 1, sig)).collect();
            let rs: Vec<usize> = [1, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .filter(|&r| r <= num_perm)
                .collect();
            let p = Partition::build(&chunk, band_count(num_perm, &rs));
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

    /// A key re-inserted before the next rebalance keeps the postings of
    /// its old signature in every band of its partition, including bands
    /// first built after the re-insert: a cold index answers exactly like
    /// one whose bands were all built at the rebalance.
    #[test]
    fn reinsert_before_rebalance_bands_the_rebalance_time_signature() {
        let (mut cold, hasher) = build_demo();
        let (mut forced, _) = build_demo();
        force_bands(&forced);
        let key = "big_superset".to_string();
        let disjoint = toks("gone", 0..200);
        for index in [&mut cold, &mut forced] {
            index.set_rebalance_threshold(f64::INFINITY);
            let sig = hasher.signature(disjoint.iter().map(String::as_str));
            index.insert(key.clone(), disjoint.len(), sig);
        }
        let idx = cold
            .partitions
            .iter()
            .position(|p| p.keys.contains(&key))
            .expect("key banded at the build");
        assert_eq!(built_bands(&cold)[idx], 0, "probed before the re-insert");
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let hits = cold.query_partition(idx, &sig, q.len(), 0.5);
        assert!(
            hits.contains(&key),
            "old postings of the re-inserted key: {hits:?}"
        );
        assert_eq!(hits, forced.query_partition(idx, &sig, q.len(), 0.5));
    }

    /// Domains over a small token universe, so bands genuinely collide.
    fn small_domains() -> impl Strategy<Value = Vec<HashSet<u32>>> {
        prop::collection::vec(prop::collection::hash_set(0u32..24, 1..16), 1..14)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every partition's candidates are exactly its live keys whose
        /// `r`-slot run equals the query's in one of the first `b` bands —
        /// the band hash is exact on equality — after a fresh build and
        /// after staged inserts plus removes followed by a rebalance.
        #[test]
        fn candidates_are_exactly_the_slot_run_matches(
            num_perm in prop_oneof![Just(48usize), Just(64usize)],
            domains in small_domains(),
            staged in small_domains(),
            removes in prop::collection::vec(0usize..28, 0..6),
            query in prop::collection::hash_set(0u32..24, 1..16),
            parts in 1usize..5,
            t in 0.0f64..1.0,
        ) {
            let hasher = MinHasher::new(num_perm, 7);
            let sig_of = |d: &HashSet<u32>| {
                let tokens: Vec<String> = d.iter().map(|i| format!("t{i}")).collect();
                hasher.signature(tokens.iter().map(String::as_str))
            };
            let build = || {
                let mut b = LshEnsembleBuilder::<usize>::new(num_perm, 7);
                for (key, d) in domains.iter().enumerate() {
                    b.insert_signature(key, d.len(), sig_of(d));
                }
                b.build(parts)
            };
            let fresh = build();
            let mut churned = build();
            churned.set_rebalance_threshold(f64::INFINITY);
            for (key, d) in staged.iter().enumerate() {
                churned.insert(domains.len() + key, d.len(), sig_of(d));
            }
            for key in &removes {
                churned.remove(key);
            }
            churned.rebalance();
            let qsig = sig_of(&query);
            let q = query.len();
            for index in [&fresh, &churned] {
                for (idx, p) in index.partitions.iter().enumerate() {
                    let j = containment_to_jaccard(t, q, p.upper);
                    let (b, r) = optimal_params_restricted(j, num_perm, &index.allowed_r);
                    let runs_match = |sig: &Signature| {
                        (0..b).any(|band| sig.0[band * r..(band + 1) * r] == qsig.0[band * r..(band + 1) * r])
                    };
                    let mut expect: Vec<usize> = p
                        .keys
                        .iter()
                        .filter(|k| index.entries.get(k).is_some_and(|(_, sig)| runs_match(sig)))
                        .copied()
                        .collect();
                    expect.sort_unstable();
                    prop_assert_eq!(index.query_partition(idx, &qsig, q, t), expect);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A cold index answers every `query` and `query_partition` exactly
        /// like one whose band tables are all built after every operation
        /// (so at every rebalance), across insert / re-insert / remove /
        /// rebalance sequences. Answers are compared only after some
        /// operations, so many of the cold index's bands are first built
        /// several mutations after the rebalance that laid them out.
        #[test]
        fn cold_bands_answer_like_forced_bands_under_churn(
            num_perm in prop_oneof![Just(48usize), Just(64usize)],
            domains in small_domains(),
            ops in prop::collection::vec(
                (0u8..4, 0usize..20, prop::collection::hash_set(0u32..24, 1..16), 0u8..3),
                0..24,
            ),
            queries in prop::collection::vec(prop::collection::hash_set(0u32..24, 1..16), 1..3),
            parts in 1usize..5,
            threshold in prop_oneof![Just(0.0f64), Just(0.3f64), Just(f64::INFINITY)],
        ) {
            let hasher = MinHasher::new(num_perm, 7);
            let sig_of = |d: &HashSet<u32>| {
                let tokens: Vec<String> = d.iter().map(|i| format!("t{i}")).collect();
                hasher.signature(tokens.iter().map(String::as_str))
            };
            let build = || {
                let mut b = LshEnsembleBuilder::<usize>::new(num_perm, 7);
                for (key, d) in domains.iter().enumerate() {
                    b.insert_signature(key, d.len(), sig_of(d));
                }
                let mut index = b.build(parts);
                index.set_rebalance_threshold(threshold);
                index
            };
            let mut cold = build();
            let mut forced = build();
            force_bands(&forced);
            let qsigs: Vec<(Signature, usize)> = queries.iter().map(|q| (sig_of(q), q.len())).collect();
            let last = ops.len();
            for (step, (kind, key, d, check)) in ops.into_iter().enumerate() {
                for index in [&mut cold, &mut forced] {
                    match kind {
                        0 | 1 => index.insert(key, d.len(), sig_of(&d)),
                        2 => {
                            index.remove(&key);
                        }
                        _ => index.rebalance(),
                    }
                }
                force_bands(&forced);
                prop_assert_eq!(cold.partition_bounds(), forced.partition_bounds());
                if check != 0 && step + 1 != last {
                    continue;
                }
                for (qsig, q) in &qsigs {
                    for t in [0.2, 0.5, 0.9] {
                        prop_assert_eq!(cold.query(qsig, *q, t), forced.query(qsig, *q, t));
                        for idx in 0..cold.partition_count() {
                            prop_assert_eq!(
                                cold.query_partition(idx, qsig, *q, t),
                                forced.query_partition(idx, qsig, *q, t)
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every `(threshold, query size, partition bound)` the grid converts,
    /// probed twice and again after a rebalance.
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

    #[test]
    fn memoised_banding_equals_a_fresh_search() {
        let (mut index, _) = build_demo();
        let check = |index: &LshEnsemble<String>| {
            for j in jaccard_grid() {
                assert_eq!(
                    index.banding_for(j),
                    optimal_params_restricted(j, 256, &index.allowed_r),
                    "j = {j}"
                );
            }
        };
        check(&index);
        check(&index);
        index.rebalance();
        check(&index);
    }

    #[test]
    fn repeated_probes_run_no_new_parameter_search() {
        let (mut index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let searches = |index: &LshEnsemble<String>| index.banding_searches.load(Ordering::Relaxed);
        let probe_all = |index: &LshEnsemble<String>| {
            for p in index.probe_plan(q.len()) {
                index.query_partition(p.partition, &sig, q.len(), 0.5);
            }
        };
        probe_all(&index);
        let first = searches(&index);
        assert!(first >= 1 && first <= index.partition_count());
        probe_all(&index);
        index.query(&sig, q.len(), 0.5);
        assert_eq!(searches(&index), first, "a repeated probe searched again");
        // A rebalance forgets the memo: the next probe searches afresh.
        index.rebalance();
        probe_all(&index);
        assert_eq!(searches(&index), 2 * first);
    }

    #[test]
    fn band_tables_are_built_on_first_probe_only() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        let total = |index: &LshEnsemble<String>| built_bands(index).iter().sum::<usize>();
        assert_eq!(total(&index), 0, "the build banded a table");
        for i in 0..3 {
            let d = toks(&format!("ins{i}_"), 0..(20 + 200 * i));
            let sig = hasher.signature(d.iter().map(String::as_str));
            index.insert(format!("ins{i}"), d.len(), sig);
        }
        assert_eq!(index.dirtiness(), 3);
        assert_eq!(total(&index), 0, "a staged insert built a band table");
        index.rebalance();
        assert_eq!(total(&index), 0, "a rebalance built a band table");
        // One probe builds exactly the `b` bands it reads, and a repeat
        // reuses them.
        let q = toks("q", 0..50);
        let sig = hasher.signature(q.iter().map(String::as_str));
        let idx = index.probe_plan(q.len())[0].partition;
        let j = containment_to_jaccard(0.5, q.len(), index.partitions[idx].upper);
        let (b, r) = optimal_params_restricted(j, 256, &index.allowed_r);
        let mut expect = vec![0; index.partition_count()];
        expect[idx] = b.min(256 / r);
        for _ in 0..2 {
            index.query_partition(idx, &sig, q.len(), 0.5);
            assert_eq!(built_bands(&index), expect);
        }
        // 256 permutations allow 256 + 128 + … + 1 = 511 bands.
        force_bands(&index);
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
        // Cold: no band table exists when the threads start, so they race
        // on every band's first-probe build.
        let (index, hasher) = build_demo();
        assert_eq!(built_bands(&index).iter().sum::<usize>(), 0);
        let queries: Vec<(Signature, usize)> = [(0, 50), (0, 25), (10, 90), (0, 200)]
            .iter()
            .map(|&(lo, hi)| {
                let q = toks("q", lo..hi);
                (hasher.signature(q.iter().map(String::as_str)), q.len())
            })
            .collect();
        let answers = |index: &LshEnsemble<String>| -> Vec<Vec<String>> {
            let mut out = Vec::new();
            for (sig, q) in &queries {
                for t in [0.3, 0.5, 0.8] {
                    out.push(index.query(sig, *q, t));
                    for p in index.probe_plan(*q) {
                        out.push(index.query_partition(p.partition, sig, *q, t));
                    }
                }
            }
            out
        };
        let fresh = build_demo().0;
        let expected = answers(&fresh);
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        answers(&index)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("probe thread panicked"), expected);
            }
        });
    }
}
