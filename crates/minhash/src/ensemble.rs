//! The LSH Ensemble containment-search index (Zhu et al., VLDB 2016),
//! incrementally maintainable, with signatures computed on demand.
//!
//! Domains (column value sets) are partitioned by set size (equi-depth),
//! which needs only each domain's size: the index is built, grown and
//! rebalanced from `(key, size)` entries. Each entry holds a **signature
//! cell**, filled at most once and shared with the partition that holds
//! the entry, so a computed signature survives every rebalance. A cell is
//! filled either up front ([`LshEnsembleBuilder::insert_signed`], the
//! eager reference the tests compare against) or by the **first probe of
//! its partition**: the
//! caller passes a *signer* with every probe, and a partition's first
//! probe signs each member that is still current (neither removed nor
//! re-inserted since the rebalance) whose cell is empty. An index that is
//! never probed hashes nothing.
//!
//! Each partition bands its domains for every power-of-two row count
//! `r ≤ num_perm`, one `(band hash, domain)` array per band, sorted by
//! hash and probed by binary search. A band table is **built on first
//! probe** from the partition's signed cells, and kept until the next
//! rebalance: queries read one `(b, r)` per probed partition, and most
//! top-k queries take the exact path and probe none. Nothing here is
//! persisted: an index is rebuilt from its domains' sizes, so the band
//! hash can change freely. A containment query converts its threshold into a
//! per-partition Jaccard threshold using the partition's upper size
//! bound, picks the (near-)optimal `(b, r)` for that threshold among the
//! power-of-two `r` values — searched once per distinct threshold and
//! memoised — and probes `b` bands.
//!
//! **Mutation.** The built index supports churn without O(lake) rebuilds:
//! [`LshEnsemble::insert`] stages a new domain without partitioning or
//! signing it; the domain is verified via [`LshEnsemble::staged_keys`]
//! (and returned by every [`LshEnsemble::query`]) until the next
//! rebalance partitions it. [`LshEnsemble::remove`] tombstones a key.
//! Partition candidates are only the members still current, so a removed
//! or re-inserted key never surfaces from a band, however early or late
//! the band was built. Both operations are `O(changed domain)`. Because
//! staged inserts and tombstones slowly degrade the equi-depth layout, the
//! index tracks a *dirtiness* count and re-partitions its retained `(key,
//! size, cell)` entries once dirtiness exceeds a configurable fraction of
//! the live domain count ([`LshEnsemble::set_rebalance_threshold`]). A
//! rebalance bands and signs nothing and produces exactly the layout a
//! fresh build over the live entries would — the canonical form the
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

use crate::hasher::Signature;
use crate::params::{containment_to_jaccard, optimal_params_restricted};

/// Default fraction of live domains that may be dirty (staged or
/// tombstoned) before a mutation triggers re-partitioning.
pub const DEFAULT_REBALANCE_THRESHOLD: f64 = 0.25;

/// A domain's signature, filled at most once and shared by the live entry
/// and the partition holding it.
type SigCell = Arc<OnceLock<Signature>>;

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
    /// `cells[id]`: the cell `keys[id]` had when the partition was built.
    /// A key re-inserted since has a new cell in the live entries; its old
    /// one stays here, unsigned if it was never probed.
    cells: Vec<SigCell>,
    /// Set by the first probe, once every member current at that probe is
    /// signed. Bands are built only after it.
    signed: OnceLock<()>,
    bands: Box<[OnceLock<Band>]>,
}

impl<K: Clone + Eq + Hash> Partition<K> {
    /// A partition over a non-empty `(size, key)`-sorted chunk, with
    /// `bands` band tables left to build on first probe.
    fn build(chunk: &[(&K, usize, &SigCell)], bands: usize) -> Partition<K> {
        Partition {
            lower: chunk.first().map_or(0, |e| e.1),
            upper: chunk.last().map_or(0, |e| e.1),
            keys: chunk.iter().map(|e| e.0.clone()).collect(),
            cells: chunk.iter().map(|e| Arc::clone(e.2)).collect(),
            signed: OnceLock::new(),
            bands: (0..bands).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Fill the empty cell of every member `current` admits through
    /// `sign`, on the first call only. Concurrent first probes block on
    /// one signing pass. A member `sign` has no signature for stays
    /// unsigned and is banded nowhere.
    fn sign(&self, current: impl Fn(&K) -> bool, sign: &dyn Fn(&K) -> Option<Signature>) {
        self.signed.get_or_init(|| {
            for (key, cell) in self.keys.iter().zip(&self.cells) {
                if cell.get().is_none() && current(key) {
                    if let Some(sig) = sign(key) {
                        // Cells are filled only here, under `signed`, or
                        // before the partition existed.
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

/// Equi-depth partitioning over `(key, size, cell)` entries, sorted here by
/// `(size, key)` — shared by the builder and by incremental rebalances so
/// both produce the identical canonical layout.
fn partition_entries<'a, K: Clone + Eq + Hash + Ord + 'a>(
    entries: impl Iterator<Item = (&'a K, usize, &'a SigCell)>,
    num_partitions: usize,
    bands: usize,
) -> Vec<Partition<K>> {
    let mut sorted: Vec<(&K, usize, &SigCell)> = entries.collect();
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

/// A cell, filled when `sig` is given.
fn cell(sig: Option<Signature>) -> SigCell {
    Arc::new(sig.map_or_else(OnceLock::new, OnceLock::from))
}

/// Accumulates domains before partitioning. `K` is the domain key type.
pub struct LshEnsembleBuilder<K = String> {
    num_perm: usize,
    entries: Vec<(K, usize, SigCell)>,
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
        self.entries.push((key, size, cell(None)));
    }

    /// Stage a domain with its signature already computed — the eager
    /// build the lazy one is tested against: probes never sign it again.
    pub fn insert_signed(&mut self, key: K, size: usize, sig: Signature) {
        assert_eq!(sig.len(), self.num_perm, "signature length mismatch");
        self.entries.push((key, size, cell(Some(sig))));
    }

    /// Number of staged domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no domain has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Partition (equi-depth by size); signatures and bands come on first
    /// probe.
    pub fn build(self, num_partitions: usize) -> LshEnsemble<K> {
        let num_partitions = num_partitions.max(1);
        let rs: Vec<usize> = std::iter::successors(Some(1usize), |r| Some(r * 2))
            .take_while(|&r| r <= self.num_perm)
            .collect();
        let partitions = partition_entries(
            self.entries.iter().map(|(k, size, cell)| (k, *size, cell)),
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
                .map(|(k, size, cell)| (k, (size, cell)))
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

/// The built containment index. Query with a signature from the hash
/// family the signer uses, the query set's cardinality, a containment
/// threshold and the signer that fills unsigned cells on first probe.
/// Supports incremental [`insert`](LshEnsemble::insert) /
/// [`remove`](LshEnsemble::remove) — see the module docs.
pub struct LshEnsemble<K = String> {
    num_perm: usize,
    allowed_r: Vec<usize>,
    num_partitions: usize,
    partitions: Vec<Partition<K>>,
    /// Live domains: `key → (size, signature cell)`. Retained so a
    /// rebalance can re-partition without the caller replaying anything.
    entries: HashMap<K, (usize, SigCell)>,
    /// Keys inserted since the last (re)build. They are not banded: every
    /// [`LshEnsemble::query`] returns them, and recall-critical callers
    /// verify them exactly — [`LshEnsemble::staged_keys`] exposes the set.
    staged: HashSet<K>,
    /// Keys removed since the last (re)build; partitions may still hold
    /// them, but never return them.
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
    /// the query set. Candidates are *probabilistic* — callers verify exact
    /// containment against the real token sets (the discovery layer does).
    /// Every staged key is a candidate. `sign` computes the signature of a
    /// member a partition's first probe finds unsigned; `None` leaves that
    /// member out of every band.
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
        let mut hits = self.current_sorted(hits);
        hits.extend(self.staged.iter().cloned());
        hits.sort();
        hits
    }

    /// Drop keys removed or re-inserted since the rebalance, and sort for
    /// deterministic output.
    fn current_sorted(&self, mut hits: HashSet<K>) -> Vec<K> {
        if !self.staged.is_empty() || !self.tombstones.is_empty() {
            hits.retain(|k| self.is_current(k));
        }
        let mut out: Vec<K> = hits.into_iter().collect();
        out.sort();
        out
    }

    /// Whether a partition member is still the live domain its partition
    /// was built over: neither removed nor re-inserted since.
    fn is_current(&self, key: &K) -> bool {
        !self.staged.contains(key) && !self.tombstones.contains(key)
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
    /// and return its banded candidate keys that are still current, sorted
    /// for determinism. The `(b, r)` banding parameters and the signing
    /// are exactly [`LshEnsemble::query`]'s for this partition. Staged
    /// keys are never partition candidates, so the union of all
    /// partitions' candidates and [`LshEnsemble::staged_keys`] equals the
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
        self.current_sorted(hits)
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
        p.sign(|key| self.is_current(key), sign);
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

    /// Insert (or replace) an unsigned domain of `size` distinct tokens in
    /// the live index. The domain is marked *staged*: it is neither
    /// partitioned nor signed until the next rebalance, and no partition
    /// bound changes. `O(1)` partitions touched.
    pub fn insert(&mut self, key: K, size: usize) {
        if self.entries.contains_key(&key) {
            self.remove(&key);
        }
        self.entries.insert(key.clone(), (size, cell(None)));
        // A re-inserted key must not stay suppressed by its own tombstone;
        // staged, it is no longer current in its old partition.
        self.tombstones.remove(&key);
        self.staged.insert(key);
        if self.partitions.is_empty() {
            self.rebalance();
            return;
        }
        self.maybe_rebalance();
    }

    /// Tombstone a domain: it disappears from query results immediately;
    /// its partition forgets it at the next rebalance. Returns `false` when
    /// the key was not live.
    pub fn remove(&mut self, key: &K) -> bool {
        if self.entries.remove(key).is_none() {
            return false;
        }
        // Staged keys flip straight to tombstones too: a partition may
        // still hold the key from before its re-insert.
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
    /// staged/tombstone state and the `(b, r)` memo. The entries keep
    /// their cells, signed or not. `O(live domains)`.
    pub fn rebalance(&mut self) {
        self.partitions = partition_entries(
            self.entries
                .iter()
                .map(|(k, (size, cell))| (k, *size, cell)),
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

    /// The live, **signed** `(key, size, signature)` entries in canonical
    /// `(size, key)` order — what probes have signed so far. Feeding these back
    /// through [`LshEnsembleBuilder::insert_signed`] (and the rest through
    /// [`LshEnsembleBuilder::insert`]) reproduces this index's canonical
    /// layout, and a probe then signs only what this index had not signed
    /// either.
    pub fn export_entries(&self) -> Vec<(K, usize, Signature)> {
        let mut entries: Vec<(K, usize, Signature)> = self
            .entries
            .iter()
            .filter_map(|(k, (size, cell))| Some((k.clone(), *size, cell.get()?.clone())))
            .collect();
        entries.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        entries
    }
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
    fn exported_sketches_rebuild_the_index_without_hashing() {
        let (index, hasher) = build_demo();
        let exported = index.export_entries();
        assert_eq!(exported.len(), index.len());
        // Canonical (size, key) order, the same order build() sorts into.
        for w in exported.windows(2) {
            assert!((w[0].1, &w[0].0) < (w[1].1, &w[1].0), "unsorted export");
        }
        // Rebuild purely from signatures: a probe that asked for one
        // would panic…
        let mut b: LshEnsembleBuilder<String> = LshEnsembleBuilder::new(256);
        for (key, size, sig) in exported {
            b.insert_signed(key, size, sig);
        }
        let rebuilt = b.build(index.partition_count());
        // …and identical layout and query behavior.
        assert_eq!(rebuilt.partition_bounds(), index.partition_bounds());
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        assert_eq!(
            index.query(&sig, q.len(), 0.5, &presigned),
            rebuilt.query(&sig, q.len(), 0.5, &presigned)
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
        let sig = MinHasher::new(64, 1).signature(["x"]);
        assert!(index.query(&sig, 1, 0.5, &presigned).is_empty());
    }

    #[test]
    fn builder_len_tracks_inserts() {
        let mut b = LshEnsembleBuilder::new(64);
        assert!(b.is_empty());
        b.insert("a", 2);
        b.insert_signed("b", 3, MinHasher::new(64, 1).signature(["x", "y", "z"]));
        assert_eq!(b.len(), 2);
        let index = b.build(8);
        assert_eq!(index.len(), 2);
        // Only the signed domain has a signature to export.
        let exported = index.export_entries();
        assert_eq!(exported.len(), 1);
        assert_eq!((exported[0].0, exported[0].1), ("b", 3));
    }

    #[test]
    fn results_are_deterministic() {
        let (i1, h1) = build_demo();
        let (i2, _) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&h1, &q);
        assert_eq!(
            i1.query(&sig, 50, 0.5, &presigned),
            i2.query(&sig, 50, 0.5, &presigned)
        );
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_query_signature_panics() {
        let (index, _) = build_demo();
        index.query(&Signature(vec![0; 32]), 10, 0.5, &presigned);
    }

    #[test]
    fn removed_key_disappears_from_queries_immediately() {
        let (mut index, hasher) = build_demo();
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        assert!(index
            .query(&sig, q.len(), 0.5, &presigned)
            .iter()
            .any(|h| h == "big_superset"));
        let n = index.len();
        assert!(index.remove(&"big_superset".to_string()));
        assert!(!index.remove(&"big_superset".to_string()), "already gone");
        assert_eq!(index.len(), n - 1);
        assert!(
            !index
                .query(&sig, q.len(), 0.5, &presigned)
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
        index.insert("fresh_superset".to_string(), fresh.len());
        assert!(index.staged_keys().any(|k| k == "fresh_superset"));
        assert_eq!(index.dirtiness(), 1);

        let q = toks("q", 0..50);
        let qsig = sig_of(&hasher, &q);
        let hits = index.query(&qsig, q.len(), 0.5, &presigned);
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
        index.insert("newdom".to_string(), newd.len());
        assert_eq!(index.dirtiness(), 3);
        index.rebalance();
        assert_eq!(index.dirtiness(), 0);

        // Canonical form: identical to a fresh build over the same domains.
        let mut b = LshEnsembleBuilder::new(256);
        let mut domains = demo_domains();
        domains.remove("noise0");
        domains.remove("noise1");
        domains.insert("newdom".to_string(), newd.clone());
        for (key, tokens) in domains {
            b.insert_signed(key, tokens.len(), sig_of(&hasher, &tokens));
        }
        let fresh = b.build(4);
        assert_eq!(index.partition_bounds(), fresh.partition_bounds());
        let q = toks("q", 0..50);
        let qsig = sig_of(&hasher, &q);
        // Only the staged domain, now partitioned, is unsigned.
        let sign = |key: &String| (key == "newdom").then(|| sig_of(&hasher, &newd));
        assert_eq!(
            index.query(&qsig, q.len(), 0.4, &sign),
            fresh.query(&qsig, q.len(), 0.4, &presigned),
            "rebalanced index must answer like a fresh build"
        );
    }

    /// An insert moves no partition bound, whatever its size, and a
    /// rebalance then equals a fresh build over the live domains.
    #[test]
    fn insert_keeps_partition_bounds_and_rebalance_equals_a_fresh_build() {
        let (mut index, hasher) = build_demo();
        index.set_rebalance_threshold(f64::INFINITY);
        let bounds = index.partition_bounds();
        let mut domains = demo_domains();
        for (key, n) in [("tiny", 1), ("huge", 5000), ("mid", 60)] {
            index.insert(key.to_string(), n);
            domains.insert(key.to_string(), toks(key, 0..n));
            assert_eq!(index.partition_bounds(), bounds, "{key} moved a bound");
        }
        index.rebalance();
        let mut b = LshEnsembleBuilder::new(256);
        for (key, tokens) in &domains {
            b.insert_signed(key.clone(), tokens.len(), sig_of(&hasher, tokens));
        }
        let fresh = b.build(4);
        assert_eq!(index.partition_bounds(), fresh.partition_bounds());
        assert_ne!(index.partition_bounds(), bounds);
        let sign = |key: &String| domains.get(key).map(|tokens| sig_of(&hasher, tokens));
        for n in [1, 50, 500] {
            let q = toks("q", 0..n);
            let qsig = sig_of(&hasher, &q);
            for t in [0.3, 0.8] {
                assert_eq!(
                    index.query(&qsig, q.len(), t, &sign),
                    fresh.query(&qsig, q.len(), t, &presigned)
                );
            }
        }
    }

    #[test]
    fn dirtiness_threshold_triggers_automatic_rebalance() {
        let (mut index, _) = build_demo();
        index.set_rebalance_threshold(0.1); // 22 domains → budget ⌈2.2⌉ = 3
        for i in 0..3 {
            index.insert(format!("auto{i}"), 30);
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
        index.insert("half".to_string(), 50);
        assert_eq!(index.len(), n, "replace keeps the live count");
        let q = toks("q", 0..50);
        let qsig = sig_of(&hasher, &q);
        let hits = index.query(&qsig, q.len(), 0.9, &presigned);
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
        index.insert("churned".to_string(), fresh.len());
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        for threshold in [0.3, 0.5, 0.8] {
            let mut union: Vec<String> = index
                .probe_plan(q.len())
                .iter()
                .flat_map(|p| {
                    index.query_partition(p.partition, &sig, q.len(), threshold, &presigned)
                })
                .chain(index.staged_keys().cloned())
                .collect();
            union.sort();
            union.dedup();
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

    #[test]
    fn insert_into_empty_index_bootstraps_a_partition() {
        let hasher = MinHasher::new(64, 5);
        let mut index = LshEnsembleBuilder::<String>::new(64).build(4);
        let d = toks("x", 0..20);
        index.insert("only".to_string(), d.len());
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
    fn force_bands<K: Clone + Eq + Hash + Ord>(
        index: &LshEnsemble<K>,
        sign: &dyn Fn(&K) -> Option<Signature>,
    ) {
        for p in &index.partitions {
            p.sign(|key| index.is_current(key), sign);
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
            let cells: Vec<SigCell> = sigs.iter().map(|sig| cell(Some(sig.clone()))).collect();
            let keys: Vec<usize> = (0..sigs.len()).collect();
            let chunk: Vec<(&usize, usize, &SigCell)> =
                keys.iter().zip(&cells).map(|(k, c)| (k, 1, c)).collect();
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

    /// A key re-inserted before the next rebalance is no partition's
    /// candidate any more, whether its partition's bands were built
    /// before the re-insert or after it: it is staged, and every query
    /// returns it as such.
    #[test]
    fn reinserted_key_is_staged_not_a_partition_candidate() {
        let (mut cold, hasher) = build_demo();
        let (mut forced, _) = build_demo();
        force_bands(&forced, &presigned);
        let key = "big_superset".to_string();
        let disjoint = toks("gone", 0..200);
        for index in [&mut cold, &mut forced] {
            index.set_rebalance_threshold(f64::INFINITY);
            index.insert(key.clone(), disjoint.len());
        }
        let idx = cold
            .partitions
            .iter()
            .position(|p| p.keys.contains(&key))
            .expect("key partitioned at the build");
        assert_eq!(built_bands(&cold)[idx], 0, "probed before the re-insert");
        let q = toks("q", 0..50);
        let sig = sig_of(&hasher, &q);
        for index in [&cold, &forced] {
            let hits = index.query_partition(idx, &sig, q.len(), 0.5, &presigned);
            assert!(!hits.contains(&key), "the old domain surfaced: {hits:?}");
            assert!(index.query(&sig, q.len(), 0.5, &presigned).contains(&key));
        }
        assert_eq!(
            cold.query_partition(idx, &sig, q.len(), 0.5, &presigned),
            forced.query_partition(idx, &sig, q.len(), 0.5, &presigned)
        );
    }

    /// A lazy index signs a partition's current members on its first probe
    /// only — never a staged or removed key — and keeps those signatures
    /// across a rebalance; the export holds exactly the signed domains.
    #[test]
    fn signatures_are_computed_on_first_probe_and_survive_rebalance() {
        let (mut index, domains) = build_lazy();
        index.set_rebalance_threshold(f64::INFINITY);
        let hasher = demo_hasher();
        let asked = Mutex::new(Vec::new());
        let sign = |key: &String| {
            asked.lock().unwrap().push(key.clone());
            domains.get(key).map(|tokens| sig_of(&hasher, tokens))
        };
        let calls = || asked.lock().unwrap().len();
        assert!(index.export_entries().is_empty(), "the build signed");
        let removed = index.partitions[0].keys[0].clone();
        index.remove(&removed);
        index.insert("staged".to_string(), 7);
        let q = toks("q", 0..50);
        let qsig = sig_of(&hasher, &q);
        index.query_partition(0, &qsig, q.len(), 0.5, &sign);
        let members = index.partitions[0].keys.len();
        assert_eq!(calls(), members - 1, "signs the current members only");
        assert!(!asked.lock().unwrap().contains(&removed));
        index.query_partition(0, &qsig, q.len(), 0.9, &sign);
        assert_eq!(calls(), members - 1, "a second probe signed again");
        assert_eq!(index.export_entries().len(), members - 1);

        // Every partition once: the staged key is not partitioned.
        index.query(&qsig, q.len(), 0.5, &sign);
        assert_eq!(calls(), domains.len() - 1);
        let signed: HashSet<String> = asked.lock().unwrap().iter().cloned().collect();
        assert_eq!(signed.len(), domains.len() - 1, "a member was signed twice");

        // A rebalance keeps every signature; only the staged key, now
        // partitioned, is asked for by the next probe. The signer does not
        // know it, so it stays unsigned and unbanded.
        index.rebalance();
        let hits = index.query(&qsig, q.len(), 0.5, &sign);
        assert_eq!(calls(), domains.len());
        assert_eq!(asked.lock().unwrap().last(), Some(&"staged".to_string()));
        assert!(hits.contains(&"big_superset".to_string()), "{hits:?}");
        assert!(!hits.contains(&"staged".to_string()), "{hits:?}");
        let exported: Vec<String> = index.export_entries().into_iter().map(|e| e.0).collect();
        assert_eq!(exported.len(), domains.len() - 1);
        assert!(!exported.contains(&"staged".to_string()));
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

        /// Every partition's candidates are exactly its live keys whose
        /// `r`-slot run equals the query's in one of the first `b` bands —
        /// the band hash is exact on equality — after a fresh build and
        /// after staged inserts plus removes followed by a rebalance. The
        /// index is signed lazily.
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
            let all: Vec<&HashSet<u32>> = domains.iter().chain(&staged).collect();
            let sign = |key: &usize| Some(small_sig(&hasher, all[*key]));
            let build = || {
                let mut b = LshEnsembleBuilder::<usize>::new(num_perm);
                for (key, d) in domains.iter().enumerate() {
                    b.insert(key, d.len());
                }
                b.build(parts)
            };
            let fresh = build();
            let mut churned = build();
            churned.set_rebalance_threshold(f64::INFINITY);
            for (key, d) in staged.iter().enumerate() {
                churned.insert(domains.len() + key, d.len());
            }
            for key in &removes {
                churned.remove(key);
            }
            churned.rebalance();
            let qsig = small_sig(&hasher, &query);
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
                        .filter(|k| index.entries.contains_key(k))
                        .filter(|k| runs_match(&small_sig(&hasher, all[**k])))
                        .copied()
                        .collect();
                    expect.sort_unstable();
                    prop_assert_eq!(index.query_partition(idx, &qsig, q, t, &sign), expect);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A lazily signed index answers every `query` and
        /// `query_partition` exactly like a pre-signed one whose band
        /// tables are all built after every operation (so at every
        /// rebalance), across insert / re-insert / remove / rebalance
        /// sequences. Answers are compared only after some operations, so
        /// many of the lazy index's partitions are first signed and banded
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
            let mut live: HashMap<usize, HashSet<u32>> = domains.iter().cloned().enumerate().collect();
            let mut cold = LshEnsembleBuilder::<usize>::new(num_perm);
            let mut forced = LshEnsembleBuilder::<usize>::new(num_perm);
            for (key, d) in domains.iter().enumerate() {
                cold.insert(key, d.len());
                forced.insert_signed(key, d.len(), small_sig(&hasher, d));
            }
            let (mut cold, mut forced) = (cold.build(parts), forced.build(parts));
            cold.set_rebalance_threshold(threshold);
            forced.set_rebalance_threshold(threshold);
            force_bands(&forced, &presigned);
            let qsigs: Vec<(Signature, usize)> =
                queries.iter().map(|q| (small_sig(&hasher, q), q.len())).collect();
            let last = ops.len();
            for (step, (kind, key, d, check)) in ops.into_iter().enumerate() {
                match kind {
                    0 | 1 => {
                        cold.insert(key, d.len());
                        forced.insert(key, d.len());
                        live.insert(key, d);
                    }
                    2 => {
                        cold.remove(&key);
                        forced.remove(&key);
                        live.remove(&key);
                    }
                    _ => {
                        cold.rebalance();
                        forced.rebalance();
                    }
                }
                let sign = |key: &usize| live.get(key).map(|d| small_sig(&hasher, d));
                force_bands(&forced, &sign);
                prop_assert_eq!(cold.partition_bounds(), forced.partition_bounds());
                if check != 0 && step + 1 != last {
                    continue;
                }
                for (qsig, q) in &qsigs {
                    for t in [0.2, 0.5, 0.9] {
                        prop_assert_eq!(
                            cold.query(qsig, *q, t, &sign),
                            forced.query(qsig, *q, t, &presigned)
                        );
                        for idx in 0..cold.partition_count() {
                            prop_assert_eq!(
                                cold.query_partition(idx, qsig, *q, t, &sign),
                                forced.query_partition(idx, qsig, *q, t, &presigned)
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
        let sig = sig_of(&hasher, &q);
        let searches = |index: &LshEnsemble<String>| index.banding_searches.load(Ordering::Relaxed);
        let probe_all = |index: &LshEnsemble<String>| {
            for p in index.probe_plan(q.len()) {
                index.query_partition(p.partition, &sig, q.len(), 0.5, &presigned);
            }
        };
        probe_all(&index);
        let first = searches(&index);
        assert!(first >= 1 && first <= index.partition_count());
        probe_all(&index);
        index.query(&sig, q.len(), 0.5, &presigned);
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
        let inserted: HashMap<String, Vec<String>> = (0..3)
            .map(|i| {
                (
                    format!("ins{i}"),
                    toks(&format!("ins{i}_"), 0..(20 + 200 * i)),
                )
            })
            .collect();
        for (key, d) in &inserted {
            index.insert(key.clone(), d.len());
        }
        let sign = |key: &String| inserted.get(key).map(|d| sig_of(&hasher, d));
        assert_eq!(index.dirtiness(), 3);
        assert_eq!(total(&index), 0, "a staged insert built a band table");
        index.rebalance();
        assert_eq!(total(&index), 0, "a rebalance built a band table");
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
