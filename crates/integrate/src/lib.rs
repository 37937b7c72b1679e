//! # dialite-integrate
//!
//! ALITE's **Integrate** stage: computing the **Full Disjunction** (FD) of an
//! aligned integration set, plus the alternative integration operators the
//! DIALITE demo compares against (natural outer join, inner join, outer
//! union).
//!
//! ## Semantics (paper §1–§2, Figs. 2–3 and 7–8)
//!
//! After alignment, every input tuple is viewed over the integrated schema
//! (one column per integration ID); attributes a source table does not have
//! are *produced* nulls (`⊥`), nulls present in the source are *missing*
//! nulls (`±`). Over these tuples:
//!
//! * two tuples are **consistent** when they agree on every attribute where
//!   both are non-null (any null is a wildcard);
//! * they are **connected** when they share at least one attribute where
//!   both are non-null and equal (null never joins with anything);
//! * a set of pairwise-consistent tuples whose connection graph is connected
//!   merges into one integrated tuple taking the non-null values.
//!
//! The **full disjunction** is the set of all such merges (including
//! singletons), with *subsumed* tuples removed: `t` is subsumed by `t′` when
//! `t′` agrees with `t` on every attribute where `t` is non-null. Duplicate
//! contents are deduplicated keeping the smallest witness TID set — exactly
//! the convention of paper Fig. 8(b), where `f12 = {t16}` even though
//! `{t12, t16}` merges to the same content.
//!
//! ## Engines
//!
//! | Engine | Description |
//! |---|---|
//! | [`NaiveFd`] | reference: quadratic complementation fixpoint + pairwise subsumption scan |
//! | [`AliteFd`] | ALITE's algorithm: outer union → hash-indexed complementation fixpoint → index-accelerated subsumption removal |
//! | [`OuterJoinIntegrator`] | left-to-right natural outer join (Fig. 6 / Fig. 8(a)); *not* associative, the demo's foil |
//! | [`InnerJoinIntegrator`] | left-to-right natural inner join (Auctus-style) |
//! | [`OuterUnionIntegrator`] | outer union with optional subsumption removal |
//!
//! All engines implement the [`Integrator`] trait, the extension point the
//! demo's Fig. 6 illustrates ("users can add alternative integration
//! operators").
//!
//! ## Dictionary-encoded core
//!
//! Every engine runs over **interned tuples**: [`outer_union`] interns
//! each distinct cell value once into a [`dialite_table::ValueInterner`]
//! and emits [`AlignedTuple`]s of `u32` value-ids. Consistency,
//! connection, merge and subsumption are integer compares; the inverted
//! indexes key on packed `(column, id)` words; and content dedup is one
//! sort. The joins chain over flat id arenas instead of tuples. Engines
//! and [`IntegratedTable`] results stay `Value`-typed — ids are resolved
//! back only for the rows returned. The lower-level tuple toolkit
//! ([`outer_union`], [`AlignedTuple`], [`remove_subsumed_naive`],
//! [`remove_subsumed_indexed`]) *is* id-typed and passes the interner
//! explicitly; use it when composing custom operators.

mod alite;
mod engine;
mod joins;
mod naive;
mod result;
mod subsume;
#[cfg(test)]
pub(crate) mod testutil;
mod tuple;

pub use alite::AliteFd;
pub use engine::{IntegrateError, Integrator};
pub use joins::{InnerJoinIntegrator, OuterJoinIntegrator, OuterUnionIntegrator};
pub use naive::NaiveFd;
pub use result::IntegratedTable;
pub use subsume::{remove_subsumed_indexed, remove_subsumed_naive};
pub use tuple::{outer_union, AlignedTuple};
