//! Discovery and alignment quality on a synthetic benchmark lake with
//! ground truth — a miniature of experiments E7/E8.
//!
//! ```text
//! cargo run --release --example lake_exploration
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use dialite::align::{Alignment, HolisticMatcher, KbAnnotator};
use dialite::datagen::{
    lake::{LakeSpec, SyntheticLake},
    metrics::{alignment_pair_f1, precision_recall_at_k},
};
use dialite::discovery::{
    Discovery, LshEnsembleConfig, LshEnsembleDiscovery, SantosConfig, SantosDiscovery, TableQuery,
};
use dialite::table::Table;

fn main() {
    let spec = LakeSpec {
        universes: 5,
        fragments_per_universe: 5,
        rows_per_universe: 80,
        categorical_cols: 3,
        numeric_cols: 1,
        null_rate: 0.05,
        value_dirt_rate: 0.0,
        scramble_headers: true,
        seed: 42,
    };
    let synth = SyntheticLake::generate(&spec);
    println!(
        "Synthetic lake: {} fragments from {} universes (headers scrambled)\n",
        synth.lake.len(),
        spec.universes
    );

    // --- Discovery quality (E7 miniature) ---
    let kb = Arc::new(synth.truth.kb.clone());
    let santos = SantosDiscovery::build(&synth.lake, kb.clone(), SantosConfig::default());
    let lshe = LshEnsembleDiscovery::build(&synth.lake, LshEnsembleConfig::default());
    // Exact top-k overlap: a vanishing threshold admits any shared token,
    // and routing every query to the exact posting path skips the sketch.
    let overlap = LshEnsembleDiscovery::build(
        &synth.lake,
        LshEnsembleConfig {
            threshold: f64::MIN_POSITIVE,
            exact_mass_per_token: usize::MAX,
            ..LshEnsembleConfig::default()
        },
    );

    let k = 6;
    let engines: Vec<(&str, &dyn Discovery)> = vec![
        ("santos", &santos),
        ("lsh-ensemble", &lshe),
        ("exact-overlap", &overlap),
    ];
    println!("{:<14} {:>10} {:>10}", "engine", "P@6", "R@6");
    for (name, engine) in engines {
        let (mut psum, mut rsum, mut n) = (0.0, 0.0, 0usize);
        for table in synth.lake.tables() {
            let truth: HashSet<String> = synth.truth.related(table.name());
            if truth.is_empty() {
                continue;
            }
            let query = TableQuery::new(table.as_ref().clone());
            let hits = engine.discover(&query, k);
            let ranked: Vec<String> = hits.into_iter().map(|d| d.table).collect();
            let (p, r) = precision_recall_at_k(&ranked, &truth, k);
            psum += p;
            rsum += r;
            n += 1;
        }
        println!(
            "{:<14} {:>10.3} {:>10.3}",
            name,
            psum / n as f64,
            rsum / n as f64
        );
    }

    // --- Alignment quality (E8 miniature) ---
    let tables_owned: Vec<Table> = synth.lake.tables().map(|t| t.as_ref().clone()).collect();
    // Align per universe (an integration set, as the pipeline would form).
    println!("\n{:<22} {:>8} {:>8} {:>8}", "matcher", "P", "R", "F1");
    for (name, matcher) in [
        ("header-equality", None),
        ("holistic", Some(HolisticMatcher::default())),
        (
            "holistic+kb",
            Some(HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(kb)))),
        ),
    ] {
        let (mut p, mut r, mut f, mut n) = (0.0, 0.0, 0.0, 0usize);
        for u in 0..spec.universes {
            let set: Vec<&Table> = tables_owned
                .iter()
                .filter(|t| synth.truth.universe_of[t.name()] == u)
                .collect();
            let alignment = match &matcher {
                None => Alignment::by_headers(&set),
                Some(m) => m.align(&set),
            };
            let (pp, rr, ff) = alignment_pair_f1(&set, &alignment, &synth.truth);
            p += pp;
            r += rr;
            f += ff;
            n += 1;
        }
        let n = n as f64;
        println!("{:<22} {:>8.3} {:>8.3} {:>8.3}", name, p / n, r / n, f / n);
    }
}
