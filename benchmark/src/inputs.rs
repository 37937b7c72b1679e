//! Workload inputs: the fixed corpus, the seed-driven client side (query
//! pool, draw order, churn trace), their fingerprint, and the scratch
//! space runs write to.
//!
//! The corpus of a workload and the queries cut from it are part of its
//! definition — like a benchmark's scale factor and query templates they
//! are the same on every run — while `--seed` decides what the clients do
//! with them: in which order queries are asked, which are popular
//! together, which tables churn, in which order files are ingested.
//! Regenerating the corpus per seed moved every latency quantile by ±10 %
//! between seeds on 5 k-table lakes, and redrawing the pool per seed did
//! the same to the medians, which no bound the contract allows could
//! absorb.

use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

use dialite_datagen::workloads::HeterogeneousLakeWorkload;
use dialite_discovery::{LakeIndexConfig, MetadataConfig, TableQuery};
use dialite_table::{table_to_csv, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The seed `run.sh` uses when none is given; its fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of every workload's corpus (the generator's own default).
pub const CORPUS_SEED: u64 = 83;

/// Default-seed input fingerprints, one `workload fingerprint` per line.
const PINS: &str = include_str!("../pins.txt");

/// SplitMix64 finalizer: neighbouring `--seed`s must give unrelated
/// client streams (the generator derives table `i` from `seed + i`, so
/// raw neighbouring seeds would give shifted copies of one another).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The index configuration of every workload: all three discovery legs,
/// as the CLI builds with `--metadata`.
pub fn three_leg_config() -> LakeIndexConfig {
    LakeIndexConfig {
        metadata: Some(MetadataConfig::default()),
        ..LakeIndexConfig::default()
    }
}

/// A corpus spec: generator defaults except size, row cap and seed.
pub fn corpus(tables: usize, max_rows: usize) -> HeterogeneousLakeWorkload {
    HeterogeneousLakeWorkload {
        tables,
        max_rows,
        seed: CORPUS_SEED,
        ..HeterogeneousLakeWorkload::default()
    }
}

/// One value-mode query and the lake table it was cut from.
pub struct PoolQuery {
    pub query: TableQuery,
    /// Name of the source table (`None` for header-mode queries, which
    /// probe a cluster's schema rather than one table).
    pub source: Option<String>,
}

/// `n` value-mode queries over distinct corpus tables, each keeping a
/// random `query_rows`-subset of its source's anchor column (the shape of
/// `HeterogeneousLakeWorkload::queries`), in an order `seed` decides. Which
/// tables become queries and which rows they keep belongs to the workload,
/// like its corpus: a pool is a sample of a few hundred tables, and a new
/// sample per seed moved a run's median latency by up to ±15 % — a
/// quarter of `ingest-restart`'s runs fell outside its bound for that
/// alone. The seed's order decides what is asked when: which queries are
/// hot together under `drifting`, what a cache holds when a query arrives.
pub fn value_pool(corpus: &HeterogeneousLakeWorkload, seed: u64, n: usize) -> Vec<PoolQuery> {
    let mut fixed = StdRng::seed_from_u64(mix(CORPUS_SEED, 1));
    let mut sources: Vec<usize> = (0..corpus.tables).collect();
    sources.shuffle(&mut fixed);
    sources.truncate(n);
    let mut pool: Vec<PoolQuery> = sources
        .iter()
        .map(|&i| {
            let source = corpus.table(i);
            let mut rows: Vec<Vec<Value>> = source.rows().map(|r| vec![r[0].clone()]).collect();
            rows.shuffle(&mut fixed);
            rows.truncate(corpus.query_rows.max(1));
            let header = source.schema().column(0).name.clone();
            let table = Table::from_rows(&format!("pool_q{i}"), &[header], rows)
                .expect("one column, one cell per row");
            PoolQuery {
                query: TableQuery::with_column(table, 0),
                source: Some(source.name().to_string()),
            }
        })
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(mix(seed, 1)));
    pool
}

/// `count` zipf(`s`)-distributed ranks in `0..n` (weight of rank `r` is
/// `1 / (r + 1)^s`), by inverse-CDF lookup like the generator's own
/// private sampler.
pub fn zipf_draws(n: usize, s: f64, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(n.max(1));
    let mut total = 0.0f64;
    for r in 0..n.max(1) {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            cumulative
                .partition_point(|&c| c <= u)
                .min(cumulative.len() - 1)
        })
        .collect()
}

/// Ops per popularity epoch of [`drifting`].
const DRIFT_EPOCH: usize = 64;

/// Pool index of the `i`-th op's zipf `rank`: popularity drifts — every
/// `DRIFT_EPOCH` ops the ranking moves on by 37 pool entries (coprime with
/// the pool sizes) — so over a window every query takes its turn among
/// the hot few. With one fixed ranking a run's median latency was that of
/// whichever dozen queries a seed happened to rank first (0.37 ms on one
/// seed, 0.65 ms on the next); reuse within an epoch still lets caches hit.
pub fn drifting(rank: usize, i: usize, pool: usize) -> usize {
    (rank + (i / DRIFT_EPOCH) * 37) % pool.max(1)
}

/// Streaming FNV-1a: stable across processes, platforms and toolchains,
/// which `DefaultHasher` does not promise.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a workload's generated inputs.
#[derive(Default)]
pub struct Fingerprint(Fnv64);

impl Fingerprint {
    pub fn text(&mut self, s: &str) {
        self.0.write(s.as_bytes());
        self.0.write_u8(0);
    }

    pub fn table(&mut self, t: &Table) {
        self.text(t.name());
        self.text(&table_to_csv(t));
    }

    pub fn query(&mut self, q: &TableQuery) {
        self.table(&q.table);
        self.0.write_u64(q.column.map_or(u64::MAX, |c| c as u64));
    }

    pub fn number(&mut self, n: u64) {
        self.0.write_u64(n);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Compare a full-size default-seed fingerprint with its pin. Other seeds
/// and `--smoke` sizes run unpinned.
pub fn check_pin(workload: &str, seed: u64, smoke: bool, fingerprint: u64) -> Result<(), String> {
    if seed != DEFAULT_SEED || smoke {
        return Ok(());
    }
    let pinned = PINS
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .map(|(_, hex)| hex.trim());
    let actual = format!("{fingerprint:016x}");
    match pinned {
        Some(hex) if hex == actual => Ok(()),
        Some(hex) => Err(format!(
            "{workload}: generated inputs changed (fingerprint {actual}, pinned {hex}); \
             a generator change must re-pin benchmark/pins.txt in a PR of its own"
        )),
        None => Err(format!("{workload}: no pinned fingerprint (got {actual})")),
    }
}

/// Where results and traces go: `benchmark/out/` of the checkout this
/// binary was built in (runs may read and write only inside it).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch space of one run under [`out_dir`], removed on drop — that is
/// on success, on an error return and on a panic that unwinds.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> io::Result<Scratch> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// The directory `label`, emptied. Every set-up and cycle that writes
    /// a data directory clears out its predecessor's itself, inside its
    /// own timing, so each pays for the delete the same way (on the
    /// sandbox's ext4, mounted `discard`, file creations after a delete
    /// are up to 25 times slower than others).
    pub fn clean_dir(&self, label: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(label);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Write each table as `<name>.csv` into `dir`; returns the bytes written.
pub fn write_csv_dir<'a>(
    tables: impl IntoIterator<Item = &'a Table>,
    dir: &Path,
) -> io::Result<u64> {
    let mut bytes = 0u64;
    for t in tables {
        let csv = table_to_csv(t);
        bytes += csv.len() as u64;
        std::fs::write(dir.join(format!("{}.csv", t.name())), csv)?;
    }
    Ok(bytes)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
        }
    }
    Ok(bytes)
}

/// Size of one file, 0 when it does not exist.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_reorder_one_pool() {
        let c = corpus(200, 16);
        let names = |seed| -> Vec<String> {
            value_pool(&c, seed, 32)
                .into_iter()
                .map(|p| p.query.table.name().to_string())
                .collect()
        };
        assert_eq!(names(1), names(1), "same seed, same pool");
        let (a, mut b) = (names(1), names(2));
        let in_place = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(in_place < 16, "seeds 1 and 2 agree on {in_place}/32 places");
        let mut a = a;
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed asks the same queries");
    }

    #[test]
    fn pool_queries_are_cut_from_their_source() {
        let c = corpus(50, 16);
        for p in value_pool(&c, 9, 10) {
            let source = p.source.unwrap();
            let i: usize = source.strip_prefix("hetero_t").unwrap().parse().unwrap();
            let tokens = c.table(i).column_token_set(0);
            assert!(p.query.table.column_token_set(0).is_subset(&tokens));
            assert!(p.query.table.row_count() >= 1);
        }
    }

    #[test]
    fn zipf_draws_favour_low_ranks_and_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let draws = zipf_draws(100, 1.1, 20_000, &mut rng);
        assert!(draws.iter().all(|&r| r < 100));
        let count = |rank| draws.iter().filter(|&&r| r == rank).count();
        assert!(
            count(0) > 2 * count(3) && count(3) > count(50),
            "not skewed"
        );
        assert_eq!(zipf_draws(1, 1.1, 5, &mut rng), vec![0; 5]);
    }

    #[test]
    fn drifting_popularity_holds_within_an_epoch_and_moves_between() {
        assert_eq!(drifting(3, 0, 256), drifting(3, DRIFT_EPOCH - 1, 256));
        assert_ne!(drifting(3, 0, 256), drifting(3, DRIFT_EPOCH, 256));
        let firsts: std::collections::BTreeSet<usize> = (0..256)
            .map(|e| drifting(0, e * DRIFT_EPOCH, 256))
            .collect();
        assert_eq!(firsts.len(), 256, "every query gets to be the hottest");
        assert!((0..10_000).all(|i| drifting(i % 16, i, 16) < 16));
    }

    #[test]
    fn fingerprint_sees_content_and_order() {
        let c = corpus(4, 8);
        let fp = |order: &[usize]| {
            let mut f = Fingerprint::default();
            for &i in order {
                f.table(&c.table(i));
            }
            f.finish()
        };
        assert_eq!(fp(&[0, 1]), fp(&[0, 1]));
        assert_ne!(fp(&[0, 1]), fp(&[1, 0]));
        assert_ne!(fp(&[0, 1]), fp(&[0, 2]));
    }

    #[test]
    fn pins_gate_only_the_full_size_default_seed() {
        assert!(check_pin("pipeline-hetero", DEFAULT_SEED + 1, false, 0).is_ok());
        assert!(check_pin("pipeline-hetero", DEFAULT_SEED, true, 0).is_ok());
        assert!(check_pin("pipeline-hetero", DEFAULT_SEED, false, 0).is_err());
        assert!(check_pin("no-such-workload", DEFAULT_SEED, false, 0).is_err());
    }

    #[test]
    fn scratch_is_removed_on_success_and_on_panic() {
        let scratch = Scratch::new().unwrap();
        let dir = scratch.clean_dir("a").unwrap();
        std::fs::write(dir.join("f"), b"x").unwrap();
        assert_eq!(scratch.clean_dir("a").unwrap(), dir);
        assert!(!dir.join("f").exists(), "emptied every time");
        drop(scratch);
        assert!(!dir.exists());

        let mut kept = PathBuf::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let scratch = Scratch::new().unwrap();
            kept = scratch.clean_dir("b").unwrap();
            panic!("a workload failed");
        }));
        assert!(panicked.is_err() && !kept.as_os_str().is_empty() && !kept.exists());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
