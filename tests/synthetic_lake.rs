//! Integration tests on the synthetic benchmark lake: discovery finds the
//! ground-truth relatives, the KB-assisted matcher beats the header
//! baseline under scrambled headers, and the pipeline survives dirty data.

use std::collections::HashSet;
use std::sync::Arc;

use dialite::align::{Alignment, HolisticMatcher, KbAnnotator};
use dialite::datagen::lake::{LakeSpec, SyntheticLake};
use dialite::datagen::metrics::{alignment_pair_f1, precision_recall_at_k};
use dialite::discovery::{Discovery, LshEnsembleConfig, LshEnsembleDiscovery, TableQuery};
use dialite::table::Table;
use dialite_integrate::{AliteFd, Integrator};

fn spec(scramble: bool) -> LakeSpec {
    LakeSpec {
        universes: 4,
        fragments_per_universe: 4,
        rows_per_universe: 60,
        categorical_cols: 2,
        numeric_cols: 1,
        null_rate: 0.05,
        value_dirt_rate: 0.0,
        scramble_headers: scramble,
        seed: 1234,
    }
}

#[test]
fn exact_overlap_discovery_finds_relatives() {
    let synth = SyntheticLake::generate(&spec(false));
    // The joinable engine as an exact top-k overlap search: any shared
    // token passes the threshold, and every query takes the exact path.
    let engine = LshEnsembleDiscovery::build(
        &synth.lake,
        LshEnsembleConfig {
            threshold: f64::MIN_POSITIVE,
            exact_fallback_below: usize::MAX,
            ..LshEnsembleConfig::default()
        },
    );
    let mut recall_sum = 0.0;
    let mut n = 0usize;
    for table in synth.lake.tables() {
        let truth: HashSet<String> = synth.truth.related(table.name());
        if truth.is_empty() {
            continue;
        }
        let hits = engine.discover(&TableQuery::new(table.as_ref().clone()), 8);
        let ranked: Vec<String> = hits.into_iter().map(|d| d.table).collect();
        let (_, r) = precision_recall_at_k(&ranked, &truth, 8);
        recall_sum += r;
        n += 1;
    }
    let recall = recall_sum / n as f64;
    assert!(
        recall > 0.9,
        "exact overlap should find nearly all relatives: {recall}"
    );
}

#[test]
fn lsh_ensemble_discovery_has_high_recall_on_key_joins() {
    let synth = SyntheticLake::generate(&spec(false));
    let engine = LshEnsembleDiscovery::build(
        &synth.lake,
        LshEnsembleConfig {
            threshold: 0.3,
            ..LshEnsembleConfig::default()
        },
    );
    let mut recall_sum = 0.0;
    let mut n = 0usize;
    for table in synth.lake.tables() {
        // Query on the fragment's key column (original column 0).
        let key_col = (0..table.column_count())
            .find(|&c| synth.truth.column_class[&(table.name().to_string(), c)].1 == 0);
        let Some(key_col) = key_col else { continue };
        let truth: HashSet<String> = synth.truth.related(table.name());
        if truth.is_empty() {
            continue;
        }
        let q = TableQuery::with_column(table.as_ref().clone(), key_col);
        let hits = engine.discover(&q, 8);
        let ranked: Vec<String> = hits.into_iter().map(|d| d.table).collect();
        let (_, r) = precision_recall_at_k(&ranked, &truth, 8);
        recall_sum += r;
        n += 1;
    }
    let recall = recall_sum / n as f64;
    assert!(recall > 0.7, "key-column joins should be found: {recall}");
}

#[test]
fn kb_matcher_beats_header_baseline_under_scrambling() {
    let synth = SyntheticLake::generate(&spec(true));
    let kb = Arc::new(synth.truth.kb.clone());
    let tables_owned: Vec<Table> = synth.lake.tables().map(|t| t.as_ref().clone()).collect();

    let mut holistic_f1 = 0.0;
    let mut header_f1 = 0.0;
    let mut n = 0.0;
    for u in 0..4 {
        let set: Vec<&Table> = tables_owned
            .iter()
            .filter(|t| synth.truth.universe_of[t.name()] == u)
            .collect();
        let matcher =
            HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(kb.clone())));
        let (_, _, f_h) = alignment_pair_f1(&set, &matcher.align(&set), &synth.truth);
        let (_, _, f_b) = alignment_pair_f1(&set, &Alignment::by_headers(&set), &synth.truth);
        holistic_f1 += f_h;
        header_f1 += f_b;
        n += 1.0;
    }
    holistic_f1 /= n;
    header_f1 /= n;
    assert!(
        holistic_f1 > header_f1 + 0.3,
        "holistic {holistic_f1:.3} must dominate header baseline {header_f1:.3} on scrambled headers"
    );
    assert!(holistic_f1 > 0.6, "holistic F1 too low: {holistic_f1:.3}");
}

#[test]
fn fd_over_synthetic_fragments_is_lossless() {
    // Integrating a universe's fragments must preserve every input fact.
    let synth = SyntheticLake::generate(&LakeSpec {
        universes: 1,
        fragments_per_universe: 3,
        rows_per_universe: 25,
        categorical_cols: 2,
        numeric_cols: 0,
        null_rate: 0.0,
        value_dirt_rate: 0.0,
        scramble_headers: false,
        seed: 77,
    });
    let tables_owned: Vec<Table> = synth.lake.tables().map(|t| t.as_ref().clone()).collect();
    let refs: Vec<&Table> = tables_owned.iter().collect();
    let al = Alignment::by_headers(&refs);
    let fd = AliteFd::default().integrate(&refs, &al).unwrap();

    // Every input tuple must be subsumed by some output row.
    for (t, table) in refs.iter().enumerate() {
        for row in table.rows() {
            let slots: Vec<usize> = (0..table.column_count())
                .map(|c| {
                    let name = al.name_of(al.id_of(t, c));
                    fd.table().column_index(name).unwrap()
                })
                .collect();
            let covered = fd.table().rows().any(|orow| {
                row.iter()
                    .enumerate()
                    .all(|(c, v)| v.is_null() || orow[slots[c]] == *v)
            });
            assert!(covered, "lost tuple {row:?} of fragment {t}");
        }
    }
}
