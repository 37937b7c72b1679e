//! # dialite-align
//!
//! ALITE's **Align** stage: holistic schema matching over an integration set.
//!
//! Data-lake tables "may lack consistent and meaningful column headers"
//! (paper §1), so ALITE identifies matching columns *holistically* — across
//! all tables of the integration set at once — and assigns every set of
//! matching columns a dummy header called an **integration ID**. Natural
//! full disjunction is then computed over those IDs (see `dialite-integrate`).
//!
//! The matcher follows ALITE's construction:
//!
//! 1. every column gets a *signature*: a hashed n-gram embedding centroid of
//!    its values (this reproduction's stand-in for pretrained embeddings —
//!    ARCHITECTURE.md § Substitutions), its distinct-value token set, numeric statistics and
//!    (optionally, low weight) its header;
//! 2. pairwise column similarities combine embedding cosine, value-overlap
//!    Jaccard, numeric-distribution proximity and header similarity, gated
//!    by type compatibility;
//! 3. average-linkage agglomerative clustering merges columns under a
//!    **cannot-link constraint** — two columns of the *same* table are never
//!    co-clustered (a table does not say the same thing twice);
//! 4. the cut threshold is either fixed or chosen by a silhouette sweep,
//!    mirroring ALITE's cluster-count selection; the sweep reads every
//!    cut off one merge sequence ([`average_linkage_sweep`]).
//!
//! Each resulting cluster is an integration ID. [`Alignment`] also offers
//! the naive header-equality baseline ([`Alignment::by_headers`]) the
//! holistic matcher is evaluated against.

mod alignment;
mod cluster;
mod matcher;
mod semantic;
mod signature;

pub use alignment::Alignment;
pub use cluster::{average_linkage_cluster, average_linkage_sweep, silhouette_score};
pub use matcher::HolisticMatcher;
pub use semantic::{KbAnnotator, SemanticAnnotator};
pub use signature::{ColumnRef, ColumnSignature};
