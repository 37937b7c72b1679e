//! # dialite
//!
//! Facade crate for `dialite-rs`: a from-scratch Rust reproduction of
//! **DIALITE: Discover, Align and Integrate Open Data Tables**
//! (SIGMOD-Companion 2023).
//!
//! This crate re-exports the full public API of the workspace:
//!
//! * [`table`] — typed tables, CSV I/O, the [`table::DataLake`] store;
//! * [`text`] — tokenization and string/vector similarity;
//! * [`kb`] — the mini knowledge base used by semantic discovery;
//! * [`minhash`] — MinHash signatures and the LSH Ensemble index;
//! * [`discovery`] — unionable/joinable table search (SANTOS-style, LSH
//!   Ensemble, metadata, user-defined);
//! * [`align`] — ALITE's holistic schema matching (integration IDs);
//! * [`integrate`] — full disjunction engines and baseline operators;
//! * [`analyze`] — null-aware analytics and entity resolution;
//! * [`datagen`] — synthetic lakes, benchmark workloads and the
//!   GPT-style query-table generator;
//! * [`pipeline`] — the DIALITE pipeline itself (Discover → Align &
//!   Integrate → Analyze).
//!
//! ## Quickstart
//!
//! The whole pipeline on the bundled COVID demo lake (paper Figs. 2–3;
//! `examples/quickstart.rs` is the narrated version):
//!
//! ```
//! use dialite::discovery::TableQuery;
//! use dialite::pipeline::{demo, Pipeline};
//! use dialite::table::fixtures;
//!
//! let lake = demo::covid_lake();
//! let pipeline = Pipeline::demo_default(&lake);
//! let query = TableQuery::with_column(fixtures::fig2_query(), 1); // City
//! let run = pipeline.run(&lake, &query).unwrap();
//! assert!(run.integrated.table().same_content(&fixtures::fig3_expected()));
//! ```

pub use dialite_align as align;
pub use dialite_analyze as analyze;
pub use dialite_core as pipeline;
pub use dialite_datagen as datagen;
pub use dialite_discovery as discovery;
pub use dialite_integrate as integrate;
pub use dialite_kb as kb;
pub use dialite_minhash as minhash;
pub use dialite_table as table;
pub use dialite_text as text;

// Most-used items at the crate root for ergonomic imports.
pub use dialite_table::{DataLake, Table, Value};
