//! # dialite-durable
//!
//! Snapshot + commitlog durability underneath the live [`DataLake`]
//! (ROADMAP open item 1: the SpacetimeDB-style persistence split). The
//! lake already *is* a commitlog system in RAM — monotone version stamps,
//! a bounded `events_since` changelog — and this crate gives those two
//! structures an on-disk shadow:
//!
//! * an **append-only event log** (`events.log`): one length+checksum
//!   framed record per [`dialite_table::LakeEvent`], carrying the stamp
//!   and, for `Added`/`Replaced`, the slot's table payload; fsync'd on a
//!   configurable cadence ([`DurableConfig::fsync_every`]);
//! * **atomic snapshots** (`snapshot.bin`, written tmp + rename): the
//!   occupied slots, the free list in reuse order and the version stamp.
//!   Nothing of the discovery index is persisted: it is a function of the
//!   lake, rebuilt once over the recovered lake.
//!
//! [`DurableLake::open`] recovers by restoring the snapshot, replaying
//! the log tail through [`DataLake::apply_replayed`] (stamps come from
//! disk, never minted), truncating a torn tail at the first frame whose
//! checksum or framing fails, and re-seeding the process stamp source
//! strictly past the maximum persisted stamp via
//! [`dialite_table::bump_stamp_floor`] — without which a restarted
//! process would mint stamps colliding with its own persisted history.
//!
//! The recovery contract, pinned by this crate's tests and the core
//! recovery oracle: *(snapshot at any prefix + replay of the log tail)*
//! is byte-for-byte the never-restarted lake, and never serves a partial
//! record.

#![deny(missing_docs)]

mod codec;
mod log;
mod snapshot;
mod store;

pub use log::{EventLog, LogRecord};
pub use store::{DurableConfig, DurableLake, Recovery};

pub use dialite_table::DataLake;
