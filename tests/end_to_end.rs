//! Cross-crate integration tests: the full pipeline from CSV ingest through
//! discovery, alignment, integration and analysis.

use std::sync::Arc;

use dialite::analyze::agg::Aggregate;
use dialite::analyze::{pearson_columns, EntityResolver, GroupBy};
use dialite::discovery::TableQuery;
use dialite::pipeline::Pipeline;
use dialite::table::fixtures;
use dialite::table::{read_csv_str, table, CsvOptions, DataLake, Value};
use dialite_align::Alignment;
use dialite_integrate::{AliteFd, Integrator, OuterJoinIntegrator};

#[test]
fn pipeline_from_csv_sources() {
    // Ingest the paper's tables from CSV text, as demo users upload them.
    let t1 = read_csv_str(
        "T1",
        "Country,City,Vaccination Rate\n\
         Germany,Berlin,0.63\n\
         England,Manchester,0.78\n\
         Spain,Barcelona,0.82\n",
        &CsvOptions::default(),
    )
    .unwrap();
    let t2 = read_csv_str(
        "T2",
        "Country,City,Vaccination Rate\n\
         Canada,Toronto,0.83\n\
         Mexico,Mexico City,\n\
         USA,Boston,0.62\n",
        &CsvOptions::default(),
    )
    .unwrap();
    let t3 = read_csv_str(
        "T3",
        "City,Total Cases,Death Rate\n\
         Berlin,1400000,147\n\
         Barcelona,2680000,275\n\
         Boston,263000,335\n\
         New Delhi,2000000,158\n",
        &CsvOptions::default(),
    )
    .unwrap();

    let mut lake = DataLake::new();
    lake.add(t2).unwrap();
    lake.add(t3).unwrap();

    let pipeline = Pipeline::demo_default(&lake);
    let run = pipeline
        .run(&lake, &TableQuery::with_column(t1, 1))
        .unwrap();
    assert!(
        run.integrated
            .table()
            .same_content(&fixtures::fig3_expected()),
        "CSV-ingested pipeline must still reproduce Fig. 3:\n{}",
        run.integrated.table()
    );
}

#[test]
fn fig8_contrast_end_to_end() {
    // The whole §3.2 story in one test: FD + ER succeeds where outer join
    // + ER fails.
    let (t4, t5, t6) = fixtures::fig7_tables();
    let tables = vec![&t4, &t5, &t6];
    let al = Alignment::by_headers(&tables);

    let fd = AliteFd::default().integrate(&tables, &al).unwrap();
    let oj = OuterJoinIntegrator.integrate(&tables, &al).unwrap();
    let er = EntityResolver::demo_default();

    let fd_er = er.resolve(fd.table());
    let oj_er = er.resolve(oj.table());

    assert_eq!(fd_er.entity_count(), 2, "Fig. 8(d)");
    assert_eq!(oj_er.table.row_count(), 4, "Fig. 8(c)");
    // Fig. 8(c) and (d) cell for cell, from the tables the integrators
    // actually produce (ER's own tests feed it copies of Fig. 8(a)/(b)).
    let expected_c = table! {
        "ER(OJ)"; ["Vaccine", "Approver", "Country"];
        ["Pfizer", "FDA", "United States"],
        ["JnJ", Value::null_missing(), Value::null_produced()],
        [Value::null_produced(), Value::null_missing(), "USA"],
        ["J&J", Value::null_produced(), "United States"],
    };
    let expected_d = table! {
        "ER(FD)"; ["Vaccine", "Approver", "Country"];
        ["Pfizer", "FDA", "United States"],
        ["J&J", "FDA", "United States"],
    };
    assert!(
        oj_er.table.same_content(&expected_c),
        "Fig. 8(c): got\n{}",
        oj_er.table
    );
    assert!(
        fd_er.table.same_content(&expected_d),
        "Fig. 8(d): got\n{}",
        fd_er.table
    );

    // The J&J entity is complete only on the FD side.
    let jj_complete = |t: &dialite::table::Table| {
        t.rows().any(|r| {
            matches!(&r[0], Value::Text(s) if s.contains('J')) && r.iter().all(|v| !v.is_null())
        })
    };
    assert!(jj_complete(&fd_er.table));
    assert!(!jj_complete(&oj_er.table));
}

#[test]
fn aggregation_over_pipeline_output() {
    let lake = fixtures::covid_lake();
    let pipeline = Pipeline::demo_default(&lake);
    let run = pipeline
        .run(&lake, &TableQuery::with_column(fixtures::fig2_query(), 1))
        .unwrap();
    let out = run.integrated.table();
    let agg = GroupBy::new("Country")
        .aggregate("City", Aggregate::Count)
        .aggregate("Vaccination Rate", Aggregate::Mean)
        .run(out)
        .unwrap();
    // 6 countries + the produced-null group for New Delhi.
    assert_eq!(agg.row_count(), 7);
    let germany = agg
        .rows()
        .find(|r| r[0] == Value::Text("Germany".into()))
        .unwrap();
    assert_eq!(germany[1], Value::Int(1));
    assert_eq!(germany[2], Value::Float(0.63));
}

#[test]
fn alignment_from_matcher_feeds_integration_like_by_headers() {
    // The holistic matcher (KB-assisted) and the header oracle agree on the
    // demo tables, so FD results coincide.
    use dialite::align::{HolisticMatcher, KbAnnotator};
    use dialite::kb::curated::covid_kb;

    let t1 = fixtures::fig2_query();
    let t2 = fixtures::fig2_unionable();
    let t3 = fixtures::fig2_joinable();
    let tables = vec![&t1, &t2, &t3];

    let matcher =
        HolisticMatcher::default().with_annotator(Arc::new(KbAnnotator::new(Arc::new(covid_kb()))));
    let holistic = matcher.align(&tables);
    let fd_h = AliteFd::default().integrate(&tables, &holistic).unwrap();

    let by_headers = Alignment::by_headers(&tables);
    let fd_o = AliteFd::default().integrate(&tables, &by_headers).unwrap();

    assert!(fd_h.table().same_content(fd_o.table()));
}

#[test]
fn example3_correlations_from_scratch() {
    let lake = fixtures::covid_lake();
    let pipeline = Pipeline::demo_default(&lake);
    let run = pipeline
        .run(&lake, &TableQuery::with_column(fixtures::fig2_query(), 1))
        .unwrap();
    let out = run.integrated.table();
    let rate = out.column_index("Vaccination Rate").unwrap();
    let death = out.column_index("Death Rate").unwrap();
    let cases = out.column_index("Total Cases").unwrap();
    assert!((pearson_columns(out, rate, death).unwrap() - 0.16).abs() < 0.01);
    assert!((pearson_columns(out, cases, rate).unwrap() - 0.9).abs() < 0.01);
}
