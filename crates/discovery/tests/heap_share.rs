//! Heap-share gates, three bounds on one measurement:
//!
//! * **One store per shard.** A `LakeIndex` shard keeps one value token
//!   store, read by SANTOS and the joinable leg (metadata keeps its header
//!   store), so the three-leg index holds little more than the joinable
//!   and metadata legs built alone. A second value store would add about
//!   as much as a standalone SANTOS engine, whose store is most of its
//!   heap.
//! * **A compact store.** A standalone `SantosDiscovery` — its value store
//!   plus annotations — holds at most 1.5× the lake it indexes. The store
//!   keeps each token's bytes once in an arena and a lone posting inline;
//!   two `String`s per token and a heap list per posting put the engine
//!   near 3× the lake.
//! * **Signatures on demand.** A standalone `LshEnsembleDiscovery` — the
//!   same value store and no ensemble layout, which the first sketch-route
//!   query lays out — holds at most 1.5× the lake too, and neither it nor
//!   the `LakeIndex` has computed a MinHash signature by the end of its
//!   build: a domain is signed by the first sketch probe of its partition.
//!   Signing every domain at build time (2 KiB per domain at 256
//!   permutations) put the leg near 2.8× the lake.
//!
//! A counting global allocator measures each structure's live heap on a
//! heterogeneous open-data lake and the test prints the table, with a
//! 2-shard `ShardedLakeIndex` beside the single index as a report line
//! (no bound): each shard's slot tables index its own stripe densely, so
//! the two shards should hold about what one index does. It is a
//! test binary of its own with a single test, so nothing else allocates
//! while it measures:
//!
//! ```sh
//! cargo test -q -p dialite-discovery --test heap_share -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use dialite_datagen::workloads::HeterogeneousLakeWorkload;
use dialite_discovery::{
    LakeIndex, LakeIndexConfig, LshEnsembleDiscovery, MetadataConfig, MetadataDiscovery,
    SantosDiscovery, ShardedLakeIndex,
};
use dialite_kb::curated::covid_kb;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

/// Live heap bytes (wrapping: only differences are read). A statistic
/// that publishes no other data, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly those `System` needs,
// and returns `System`'s pointer unchanged; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = System.realloc(ptr, layout, new_size);
        if !grown.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        grown
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Build a value and return it with the live heap it holds once built
/// (temporaries freed during the build do not count).
fn held<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let value = build();
    (value, LIVE.load(Relaxed).wrapping_sub(before))
}

#[test]
fn three_leg_index_holds_one_value_store() {
    let kb = Arc::new(covid_kb());
    let config = LakeIndexConfig {
        metadata: Some(MetadataConfig::default()),
        ..LakeIndexConfig::default()
    };
    let spec = HeterogeneousLakeWorkload {
        tables: 400,
        ..HeterogeneousLakeWorkload::default()
    };
    let (lake, lake_b) = held(|| spec.lake());

    let (santos, santos_b) =
        held(|| SantosDiscovery::build(&lake, kb.clone(), config.santos.clone()));
    drop(santos);
    let (lshe, lshe_b) = held(|| LshEnsembleDiscovery::build(&lake, config.lshe.clone()));
    drop(lshe);
    let metadata_config = config.metadata.clone().unwrap();
    let (metadata, metadata_b) = held(|| MetadataDiscovery::build(&lake, metadata_config));
    drop(metadata);
    let (index, index_b) = held(|| LakeIndex::build(&lake, kb.clone(), config.clone()));
    assert_eq!(index.sketch_work(), 0, "the build computed signatures");
    drop(index);
    let (sharded, sharded_b) =
        held(|| ShardedLakeIndex::build(&lake, kb.clone(), config.clone(), 2));
    drop(sharded);

    let bound = lshe_b + metadata_b + santos_b / 4;
    let santos_bound = lake_b + lake_b / 2;
    let lshe_bound = santos_bound;
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    println!("live heap, {} tables:", lake.len());
    for (name, bytes) in [
        ("lake", lake_b),
        ("SantosDiscovery", santos_b),
        ("LshEnsembleDiscovery", lshe_b),
        ("MetadataDiscovery", metadata_b),
        ("LakeIndex (3 legs)", index_b),
        ("ShardedLakeIndex (2 shards)", sharded_b),
        ("bound: lshe + metadata + santos/4", bound),
        ("bound on santos: 1.5 × lake", santos_bound),
        ("bound on lshe: 1.5 × lake", lshe_bound),
    ] {
        println!("  {name:<34} {:>8.2} MiB", mib(bytes));
    }
    assert!(
        index_b <= bound,
        "the index holds {:.2} MiB, over the one-store bound of {:.2} MiB",
        mib(index_b),
        mib(bound)
    );
    assert!(
        santos_b <= santos_bound,
        "SANTOS holds {:.2} MiB, over 1.5 × the lake's {:.2} MiB",
        mib(santos_b),
        mib(lake_b)
    );
    assert!(
        lshe_b <= lshe_bound,
        "the joinable leg holds {:.2} MiB, over 1.5 × the lake's {:.2} MiB",
        mib(lshe_b),
        mib(lake_b)
    );
}
