//! # dialite-core
//!
//! The DIALITE pipeline (paper Fig. 1): **Discover → Align & Integrate →
//! Analyze**, with every stage pluggable — the extensibility that §3.2
//! demonstrates:
//!
//! * any number of [`Discovery`] engines (SANTOS-style, LSH Ensemble,
//!   metadata, user-defined closures — Fig. 4);
//! * a configurable holistic matcher for alignment;
//! * a primary [`Integrator`] (ALITE's FD by default) plus alternative
//!   operators for comparison (outer join — Fig. 6);
//! * downstream analysis via `dialite-analyze` over the integrated table.
//!
//! ```
//! use dialite_core::{demo, Pipeline};
//! use dialite_discovery::TableQuery;
//!
//! let lake = demo::covid_lake();
//! let pipeline = Pipeline::demo_default(&lake);
//! let query = TableQuery::with_column(demo::fig2_query(), 1); // City
//! let run = pipeline.run(&lake, &query).unwrap();
//! assert!(run.integrated.table().row_count() >= 7);
//! ```

pub mod demo;
mod durable;
mod pipeline;

pub use durable::DurableService;
pub use pipeline::{Pipeline, PipelineBuilder, PipelineError, PipelineRun};

// Durability layer handles, re-exported so durable pipelines need only
// this crate: `Pipeline::open_durable` / `Pipeline::serve_durable`.
pub use dialite_durable::{DurableConfig, DurableLake, Recovery};

// Re-export the stage traits so downstream users need only this crate.
pub use dialite_align::{Alignment, HolisticMatcher};
pub use dialite_analyze::{EntityResolver, GroupBy};
pub use dialite_discovery::{
    Discovered, Discovery, DiscoveryBudget, DiscoveryService, DiscoveryTelemetry, QueryBudget,
    ServingConfig, ServingError, ServingResponse, ServingTelemetry, TableQuery,
};
pub use dialite_integrate::{IntegratedTable, Integrator};
