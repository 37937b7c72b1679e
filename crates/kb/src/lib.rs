//! # dialite-kb
//!
//! A miniature in-memory knowledge base: an entity dictionary with aliases,
//! a type lattice (classes with subclass edges and ancestor closure) and
//! directed relationship facts between entities.
//!
//! This is the reproduction's substitute for the YAGO 4 ontology that SANTOS
//! (Khatiwada et al., SIGMOD 2023) uses to annotate columns with semantic
//! types and column *pairs* with relationship semantics. YAGO is a multi-GB
//! external artifact; this KB exercises the very same code paths — entity
//! lookup with alias normalization, type-hierarchy expansion, relationship
//! lookup, and confidence-weighted column annotation — at laptop scale
//! (see ARCHITECTURE.md § Substitutions). A curated COVID/geography KB ships in
//! [`curated::covid_kb`] for the paper's worked examples, and synthetic KBs
//! for benchmark lakes are generated by `dialite-datagen`.

mod annotate;
mod base;
pub mod curated;

pub use annotate::{Direction, PairAnnotation};
pub use base::{KbBuilder, KbStats, KnowledgeBase, RelationId, TypeId};
