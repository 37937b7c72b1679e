//! # dialite-datagen
//!
//! Synthetic data for the reproduction's tests and benchmarks:
//!
//! * [`TableSynth`] — the GPT-3 substitute of paper Fig. 5: a seeded,
//!   template-grammar query-table generator ("generate a query table about
//!   COVID-19 cases with 5 columns and 5 rows"). Deterministic by seed, so
//!   experiments are reproducible (ARCHITECTURE.md § Substitutions
//!   documents the substitution for the closed OpenAI API).
//! * [`SyntheticLake`] — a benchmark data lake with **ground truth**: base
//!   *universe* relations are sliced into overlapping vertical/horizontal
//!   fragments with injected nulls, dirtied values and (optionally)
//!   scrambled headers. The truth records which fragments are unionable /
//!   joinable with which, the integration class of every column, and a
//!   synthetic KB typed over the universe domains — enabling
//!   precision/recall evaluation of discovery and alignment.
//! * [`workloads`] — parameterized workloads for the FD equivalence tests,
//!   the lake-churn trace ([`workloads::ChurnWorkload`]) behind the
//!   incremental-discovery oracle tests, the skewed top-k, SANTOS and
//!   serving traces, and the corpus-scale open-data-shaped
//!   [`HeterogeneousLakeWorkload`] (Zipf table sizes, dirty/sparse cells,
//!   overlapping topical clusters with shared header vocabulary) the
//!   benchmark streams.
//! * [`metrics`] — precision/recall@k and pair-based alignment scoring.

pub mod lake;
pub mod metrics;
pub mod synth;
pub mod workloads;

pub use lake::{GroundTruth, LakeSpec, SyntheticLake};
pub use synth::TableSynth;
pub use workloads::{
    ChurnOp, ChurnTrace, ChurnWorkload, HeterogeneousLakeWorkload, SantosTrace, SantosWorkload,
    ServingOp, ServingTrace, ServingWorkload,
};
