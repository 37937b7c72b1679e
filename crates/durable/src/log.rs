//! The append-only event log: checksummed framing and torn-tail recovery.
//!
//! On disk the log is a plain sequence of frames, no file header:
//!
//! ```text
//! ┌─────────────┬────────────────────┬──────────────┐
//! │ len: u32 LE │ fnv1a64(payload)   │ payload…     │  × N
//! └─────────────┴────────────────────┴──────────────┘
//! ```
//!
//! Recovery walks the frames from the start and stops at the first one
//! that is short, fails its checksum, or does not decode as a record —
//! everything after that point is a torn tail from a crash mid-append and
//! is truncated off, so a partial record can never be served. Appends are
//! buffered by the OS and fsync'd every [`fsync_every`] records (`1` =
//! every append; `0` = only on explicit [`EventLog::sync`] / snapshot).
//!
//! [`fsync_every`]: crate::DurableConfig::fsync_every

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dialite_table::{LakeEvent, Table};
use dialite_text::fnv1a64;

use crate::codec;

/// Frame header size: `u32` payload length + `u64` payload checksum.
const FRAME_HEADER: usize = 12;

/// One recovered commitlog record: the persisted stamp, the event, and
/// the table payload captured for `Added`/`Replaced` records (absent when
/// the slot had been emptied again by the time the record was appended).
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The version stamp the event was recorded under.
    pub stamp: u64,
    /// The lake event itself.
    pub event: LakeEvent,
    /// The slot's content right after the mutation batch, if any.
    pub table: Option<Table>,
}

/// The open, writable event log. Created via [`EventLog::open`], which
/// also performs torn-tail recovery.
#[derive(Debug)]
pub struct EventLog {
    file: File,
    fsync_every: usize,
    unsynced: usize,
    records: usize,
}

impl EventLog {
    /// Open (or create) the log at `path`, recover every checksum-valid
    /// record from the start, and truncate whatever torn tail follows.
    /// The returned log is positioned for appending.
    pub fn open(path: &Path, fsync_every: usize) -> io::Result<(EventLog, Vec<LogRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = recover(&bytes);
        if valid_len < bytes.len() {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let n = records.len();
        Ok((
            EventLog {
                file,
                fsync_every,
                unsynced: 0,
                records: n,
            },
            records,
        ))
    }

    /// Append one framed record and fsync if the cadence says so.
    pub fn append(
        &mut self,
        stamp: u64,
        event: LakeEvent,
        table: Option<&Table>,
    ) -> io::Result<()> {
        let mut payload = Vec::new();
        codec::put_record(&mut payload, stamp, event, table);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        codec::put_u32(&mut frame, payload.len() as u32);
        codec::put_u64(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.records += 1;
        self.unsynced += 1;
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Drop every record — called right after a snapshot has durably
    /// captured the state the log was protecting.
    pub(crate) fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.records = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Number of records currently in the log (recovered + appended).
    pub(crate) fn len(&self) -> usize {
        self.records
    }
}

/// Walk the frames of `bytes`, returning every fully valid record and the
/// byte length of that valid prefix. Never panics on any input.
fn recover(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let Some(end) = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len))
        else {
            break;
        };
        if end > bytes.len() {
            break; // torn: the frame promises more bytes than exist
        }
        let checksum = u64::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]);
        let payload = &bytes[pos + FRAME_HEADER..end];
        if fnv1a64(payload) != checksum {
            break; // torn or corrupted: never serve a partial record
        }
        let Ok((stamp, event, table)) = codec::read_record(&mut codec::Reader::new(payload)) else {
            break;
        };
        records.push(LogRecord {
            stamp,
            event,
            table,
        });
        pos = end;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    fn scratch(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "dialite_durable_log_{}_{name}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records(n: u64) -> Vec<(u64, LakeEvent, Option<Table>)> {
        (1..=n)
            .map(|i| {
                let t = table! { &format!("t{i}"); ["x"]; [i as i64] };
                (i, LakeEvent::Added((i % 5) as u32), Some(t))
            })
            .collect()
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = scratch("roundtrip");
        let (mut log, recovered) = EventLog::open(&path, 1).unwrap();
        assert!(recovered.is_empty() && log.len() == 0);
        for (stamp, event, table) in sample_records(7) {
            log.append(stamp, event, table.as_ref()).unwrap();
        }
        assert_eq!(log.len(), 7);
        drop(log);
        let (log, recovered) = EventLog::open(&path, 1).unwrap();
        assert_eq!(log.len(), 7);
        assert_eq!(recovered.len(), 7);
        for (r, (stamp, event, table)) in recovered.iter().zip(sample_records(7)) {
            assert_eq!(
                (r.stamp, r.event, r.table.as_ref()),
                (stamp, event, table.as_ref())
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_continues() {
        let path = scratch("torn");
        let (mut log, _) = EventLog::open(&path, 1).unwrap();
        for (stamp, event, table) in sample_records(3) {
            log.append(stamp, event, table.as_ref()).unwrap();
        }
        drop(log);
        // Tear the last record: chop 5 bytes off the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut log, recovered) = EventLog::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 2, "torn third record must be dropped");
        // The torn bytes are gone from disk, and the log accepts appends.
        assert!(std::fs::metadata(&path).unwrap().len() < bytes.len() as u64);
        log.append(9, LakeEvent::Removed(0), None).unwrap();
        drop(log);
        let (_, recovered) = EventLog::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[2].stamp, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_cadence_defers_fsync_to_explicit_sync() {
        let path = scratch("cadence");
        let (mut log, _) = EventLog::open(&path, 0).unwrap();
        for (stamp, event, table) in sample_records(4) {
            log.append(stamp, event, table.as_ref()).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, recovered) = EventLog::open(&path, 0).unwrap();
        assert_eq!(recovered.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = scratch("truncate");
        let (mut log, _) = EventLog::open(&path, 1).unwrap();
        for (stamp, event, table) in sample_records(3) {
            log.append(stamp, event, table.as_ref()).unwrap();
        }
        log.truncate().unwrap();
        assert_eq!(log.len(), 0);
        log.append(50, LakeEvent::Added(0), None).unwrap();
        drop(log);
        let (_, recovered) = EventLog::open(&path, 1).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].stamp, 50);
        let _ = std::fs::remove_file(&path);
    }
}
