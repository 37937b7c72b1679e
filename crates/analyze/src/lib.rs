//! # dialite-analyze
//!
//! The **Analyze** stage of DIALITE (paper §2.3): downstream applications
//! over integrated tables.
//!
//! * [`stats`] — null-aware summary statistics, Pearson correlation
//!   (the paper's Example 3: correlating vaccination rates with death rates
//!   and case counts over the integrated table) and extremes queries
//!   ("Boston has the lowest vaccination rate, Toronto the highest").
//! * [`agg`] — a small group-by/aggregate engine (count, count-distinct,
//!   sum, mean, min, max) with explicit null semantics.
//! * [`er`] — entity resolution: blocking, per-attribute similarity
//!   features (exact, Levenshtein, token Jaccard, acronym, synonym
//!   gazetteer), an agree/conflict rule matcher, union-find clustering and
//!   null-preferring consolidation. This is the reproduction's substitute
//!   for `py_entitymatching` (ARCHITECTURE.md § Substitutions): the learned matcher is
//!   replaced by a deterministic feature-weighted rule matcher plus a
//!   gazetteer carrying the synonymy ("JnJ" ≈ "J&J", "USA" ≈ "United
//!   States") that the paper's demo resolves via training data.

pub mod agg;
pub mod er;
pub mod stats;

pub use agg::{Aggregate, GroupBy};
pub use er::{EntityResolver, ErConfig, ErResult, Gazetteer};
pub use stats::{
    column_summary, describe, extremes, pearson, pearson_columns, spearman, ColumnSummary,
};
