//! The durable lake store: a directory holding `snapshot.bin` and
//! `events.log`, with open-time recovery and write-path append hooks.
//! Recovery hands back the lake alone; the caller builds its discovery
//! index once over it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dialite_table::{bump_stamp_floor, DataLake};

use crate::log::EventLog;
use crate::snapshot;

/// Snapshot file name inside a durable data directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Event log file name inside a durable data directory.
const LOG_FILE: &str = "events.log";

/// Tuning for the durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// fsync the event log every this-many appended records. `1` (the
    /// default) makes every committed mutation durable before the write
    /// lock is released; larger values trade a bounded window of
    /// recent mutations for throughput; `0` defers entirely to explicit
    /// [`DurableLake::sync`] calls and snapshots.
    pub fsync_every: usize,
}

impl Default for DurableConfig {
    fn default() -> DurableConfig {
        DurableConfig { fsync_every: 1 }
    }
}

/// What [`DurableLake::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovery {
    /// The fully recovered lake: snapshot plus the replayed log tail.
    pub lake: DataLake,
    /// How many log records were replayed past the snapshot.
    pub replayed: usize,
}

/// An open durable store. Owns the event log; the live [`DataLake`] it
/// shadows is handed back from [`DurableLake::open`] and mutated by the
/// caller, who appends each mutation batch via
/// [`DurableLake::append_since`] *under the same lock that ordered the
/// mutation* — log order is serialization order.
#[derive(Debug)]
pub struct DurableLake {
    dir: PathBuf,
    log: EventLog,
}

impl DurableLake {
    /// Open (creating if needed) the durable store in `dir` and recover:
    /// restore the snapshot, replay the checksum-valid log tail through
    /// [`DataLake::apply_replayed`] (truncating any torn tail), and
    /// re-seed the process stamp source strictly past the maximum
    /// persisted stamp so post-restart mutations continue the same
    /// monotone history.
    pub fn open(dir: &Path, config: DurableConfig) -> io::Result<(DurableLake, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);

        let mut lake = match snapshot::read(&dir.join(SNAPSHOT_FILE))? {
            Some(body) => DataLake::restore(body.entries, body.free, body.version)
                .map_err(|e| invalid(e.to_string()))?,
            None => DataLake::new(),
        };
        let snapshot_version = lake.version();

        let (log, records) = EventLog::open(&dir.join(LOG_FILE), config.fsync_every)?;
        let mut replayed = 0usize;
        for r in records {
            // Records at or below the snapshot stamp are the un-truncated
            // remains of a log the snapshot already covers (a crash
            // between snapshot rename and log truncation); skip them.
            if r.stamp <= snapshot_version {
                continue;
            }
            lake.apply_replayed(r.stamp, r.event, r.table.map(Arc::new))
                .map_err(|e| invalid(e.to_string()))?;
            replayed += 1;
        }

        bump_stamp_floor(lake.version());
        Ok((
            DurableLake {
                dir: dir.to_path_buf(),
                log,
            },
            Recovery { lake, replayed },
        ))
    }

    /// Append every event of `lake` newer than `since` — the batch a
    /// mutation closure just produced — with each slot's current content
    /// as the payload. Call under the same write lock that serialized the
    /// mutation, so the log records batches in serialization order.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] when the lake can no
    /// longer serve the delta (the changelog truncated past `since`);
    /// the caller must write a fresh snapshot instead.
    pub fn append_since(&mut self, lake: &DataLake, since: u64) -> io::Result<usize> {
        let events = lake.events_since(since).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("changelog gap: delta since {since} unavailable; snapshot required"),
            )
        })?;
        for &(stamp, event) in &events {
            let table = lake.table_at(event.slot()).map(|t| t.as_ref());
            self.log.append(stamp, event, table)?;
        }
        Ok(events.len())
    }

    /// Durably capture `lake` as the new snapshot, then drop the
    /// now-redundant event log. Written atomically: a crash at any point
    /// leaves either the old snapshot + full log or the new snapshot (+ a
    /// log whose records the open-time replay skips as pre-snapshot).
    pub fn write_snapshot(&mut self, lake: &DataLake) -> io::Result<()> {
        snapshot::write(&self.dir.join(SNAPSHOT_FILE), lake)?;
        self.log.truncate()
    }

    /// Force any unsynced log appends to stable storage (for
    /// [`DurableConfig::fsync_every`] cadences other than 1).
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Number of records currently in the event log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use dialite_table::{table, Value};
    use dialite_text::fnv1a64;

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "dialite_durable_store_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn observable(lake: &DataLake) -> Vec<(u32, String, Vec<Vec<Value>>)> {
        lake.entries()
            .map(|(s, t)| {
                let rows: Vec<Vec<Value>> = t.rows().map(|r| r.to_vec()).collect();
                (s, t.name().to_string(), rows)
            })
            .collect()
    }

    #[test]
    fn open_empty_then_log_only_recovery() {
        let dir = scratch("log_only");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert!(rec.lake.is_empty());
        assert_eq!(rec.lake.version(), 0);
        assert_eq!(rec.replayed, 0);

        let mut lake = rec.lake;
        let mut since = lake.version();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        lake.add(table! { "b"; ["x"]; [2] }).unwrap();
        durable.append_since(&lake, since).unwrap();
        since = lake.version();
        lake.remove("a").unwrap();
        lake.upsert(table! { "b"; ["x"]; [3], [4] });
        durable.append_since(&lake, since).unwrap();
        drop(durable);

        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rec.replayed, 4);
        assert_eq!(rec.lake.version(), lake.version());
        assert_eq!(observable(&rec.lake), observable(&lake));
        assert_eq!(rec.lake.free_slots(), lake.free_slots());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_tail_recovery_and_stamp_reseed() {
        let dir = scratch("snap_tail");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        let mut since = lake.version();
        for i in 0..5 {
            lake.add(table! { &format!("t{i}"); ["x"]; [i as i64] })
                .unwrap();
        }
        durable.append_since(&lake, since).unwrap();
        durable.write_snapshot(&lake).unwrap();
        assert_eq!(durable.log_len(), 0, "snapshot truncates the log");
        let snap_version = lake.version();

        since = lake.version();
        lake.remove("t1").unwrap();
        lake.upsert(table! { "t2"; ["x"]; [99] });
        durable.append_since(&lake, since).unwrap();
        drop(durable);

        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        // The snapshot's five tables are the floor of the recovered
        // changelog, which serves exactly the replayed tail.
        assert_eq!(rec.lake.events_since(snap_version).unwrap().len(), 2);
        assert_eq!(rec.lake.len(), 4);
        assert_eq!(rec.replayed, 2);
        assert_eq!(observable(&rec.lake), observable(&lake));
        assert_eq!(rec.lake.version(), lake.version());
        // Stamp source was re-seeded past the persisted maximum: the
        // recovered lake's next mutation continues the monotone history.
        let mut recovered = rec.lake;
        let before = recovered.version();
        recovered.upsert(table! { "t3"; ["x"]; [7] });
        assert!(recovered.version() > before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_skips_covered_records() {
        let dir = scratch("crash_window");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        let since = lake.version();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        durable.append_since(&lake, since).unwrap();
        // Simulate the crash window: snapshot renamed, log NOT truncated.
        snapshot::write(&dir.join(SNAPSHOT_FILE), &lake).unwrap();
        drop(durable);

        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rec.replayed, 0, "pre-snapshot records are skipped");
        assert_eq!(rec.lake.version(), lake.version());
        assert_eq!(observable(&rec.lake), observable(&lake));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changelog_gap_demands_a_snapshot() {
        let dir = scratch("gap");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        // A stamp from a different lineage (never this lake's state).
        let mut other = DataLake::new();
        other.add(table! { "o"; ["x"]; [1] }).unwrap();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        let err = durable.append_since(&lake, other.version()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_captured_after_batch_still_converges() {
        // A mutation batch that adds then removes the same table logs an
        // Added record with no payload; replay must converge anyway.
        let dir = scratch("converge");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        let since = lake.version();
        lake.add(table! { "keep"; ["x"]; [1] }).unwrap();
        lake.add(table! { "ephemeral"; ["x"]; [2] }).unwrap();
        lake.remove("ephemeral").unwrap();
        durable.append_since(&lake, since).unwrap();
        drop(durable);

        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rec.replayed, 3);
        assert_eq!(observable(&rec.lake), observable(&lake));
        assert_eq!(rec.lake.free_slots(), lake.free_slots());
        assert_eq!(rec.lake.version(), lake.version());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The snapshot file is exactly `MAGIC ‖ fnv1a64(body) ‖ body`, with
    /// `body` the codec's encoding of the lake, and it reopens to that lake.
    #[test]
    fn snapshot_file_is_magic_checksum_then_body() {
        let dir = scratch("layout");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        lake.add(table! { "a"; ["x", "y"]; [1, "p"], [2, "q"] })
            .unwrap();
        lake.add(table! { "b"; ["z"]; [3.5] }).unwrap();
        lake.remove("a").unwrap();
        durable.write_snapshot(&lake).unwrap();
        drop(durable);

        let mut body = Vec::new();
        codec::put_snapshot(&mut body, &lake);
        let mut expected = snapshot::MAGIC.to_vec();
        expected.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        expected.extend_from_slice(&body);
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);

        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.lake.version(), lake.version());
        assert_eq!(observable(&rec.lake), observable(&lake));
        assert_eq!(rec.lake.free_slots(), lake.free_slots());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot written by an earlier version — its body ending in a
    /// non-empty marker-1 sketch section — opens to the same lake; an
    /// unknown marker is still a hard error; the writer emits marker 0.
    #[test]
    fn snapshots_with_legacy_sketch_sections_still_open() {
        let dir = scratch("legacy_sketches");
        let (mut durable, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        let mut lake = rec.lake;
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        lake.add(table! { "b"; ["y"]; [2], [3] }).unwrap();
        lake.remove("a").unwrap();
        durable.write_snapshot(&lake).unwrap();
        drop(durable);

        let path = dir.join(SNAPSHOT_FILE);
        let written = std::fs::read(&path).unwrap();
        let header = snapshot::MAGIC.len() + 8;
        assert_eq!(written.last(), Some(&codec::SKETCHES_NONE));
        let with_section = |section: &[u8]| {
            let mut body = written[header..written.len() - 1].to_vec();
            body.extend_from_slice(section);
            let mut file = snapshot::MAGIC.to_vec();
            file.extend_from_slice(&fnv1a64(&body).to_le_bytes());
            file.extend_from_slice(&body);
            std::fs::write(&path, file).unwrap();
        };

        with_section(&codec::tests::legacy_sketch_section());
        let (_, rec) = DurableLake::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(rec.lake.version(), lake.version());
        assert_eq!(observable(&rec.lake), observable(&lake));
        assert_eq!(rec.lake.free_slots(), lake.free_slots());

        with_section(&[2]);
        let err = DurableLake::open(&dir, DurableConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
