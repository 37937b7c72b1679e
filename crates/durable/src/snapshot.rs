//! Atomic on-disk snapshots: magic + checksum header, tmp + rename write.
//!
//! A snapshot captures the full lake state (occupied slots, free list in
//! reuse order, version stamp) and nothing of the discovery index, which
//! is rebuilt from the lake on open; the body ends with an empty sketch
//! marker, and a sketch section written by earlier versions is read past
//! and discarded. Unlike the log, a snapshot is all-or-nothing:
//! it is written to a temporary file, fsync'd, then renamed over the live
//! name, so readers only ever observe a complete, checksummed image — a
//! crash mid-write leaves the previous snapshot (or none) in place.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use dialite_table::DataLake;
use dialite_text::fnv1a64;

use crate::codec::{self, Reader, SnapshotBody};

/// File magic: identifies a DIALITE lake snapshot, version 1.
pub(crate) const MAGIC: &[u8; 8] = b"DLSNAP01";

/// Write a snapshot of `lake` atomically to `path`.
pub(crate) fn write(path: &Path, lake: &DataLake) -> io::Result<()> {
    let mut body = Vec::new();
    codec::put_snapshot(&mut body, lake);

    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        // Header and body go out as separate writes, so the encoded lake
        // is held once, not copied behind the header.
        f.write_all(MAGIC)?;
        f.write_all(&fnv1a64(&body).to_le_bytes())?;
        f.write_all(&body)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_data();
        }
    }
    Ok(())
}

/// Read the snapshot at `path`. `Ok(None)` when no snapshot exists; a
/// present-but-invalid snapshot is a hard error (snapshots are written
/// atomically, so damage means the disk lied — recovery must not degrade
/// silently to an empty lake).
pub(crate) fn read(path: &Path) -> io::Result<Option<SnapshotBody>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let invalid = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot {}: {what}", path.display()),
        )
    };
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid("bad magic"));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 8]);
    let body = &bytes[MAGIC.len() + 8..];
    if fnv1a64(body) != u64::from_le_bytes(sum) {
        return Err(invalid("checksum mismatch"));
    }
    codec::read_snapshot(&mut Reader::new(body))
        .map(Some)
        .map_err(|e| invalid(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_table::table;

    fn scratch(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "dialite_durable_snap_{}_{name}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_and_missing_file() {
        let path = scratch("roundtrip");
        assert!(read(&path).unwrap().is_none());
        let mut lake = DataLake::new();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        write(&path, &lake).unwrap();
        let body = read(&path).unwrap().unwrap();
        assert_eq!(body.version, lake.version());
        assert_eq!(body.entries.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_is_a_hard_error() {
        let path = scratch("corrupt");
        let mut lake = DataLake::new();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        write(&path, &lake).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = read(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
