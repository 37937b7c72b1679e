//! Bounds-checked binary encoding of the durable payloads: values,
//! tables, commitlog records and snapshots.
//!
//! Everything is little-endian and length-prefixed; decoding never
//! indexes past the buffer and never trusts a length prefix further than
//! the bytes actually present, so a torn or corrupted payload produces an
//! `Err` — which the log layer treats as the end of the valid prefix —
//! instead of a panic or a partial record. (There is no serde in this
//! offline workspace; like the JSON producers elsewhere in the repo, the
//! codec is hand-rolled.)

use std::sync::Arc;

use dialite_table::{ColumnMeta, ColumnType, DataLake, LakeEvent, NullKind, Schema, Table, Value};

/// Decoding failure: what was malformed. The log layer maps this to
/// "torn tail here"; the snapshot layer maps it to a hard I/O error.
pub(crate) type DecodeError = String;

type DecodeResult<T> = Result<T, DecodeError>;

// --- primitive writer ------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// --- primitive reader ------------------------------------------------

/// A cursor over a byte slice; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn str_(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8: {e}"))
    }

    /// A count prefix, refused when it could not possibly fit in the
    /// remaining bytes (each counted item occupies at least `min_item`
    /// bytes) — the guard that keeps a corrupted length from triggering
    /// a huge allocation.
    pub(crate) fn count(&mut self, min_item: usize) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.remaining() {
            return Err(format!("count {n} exceeds remaining {}", self.remaining()));
        }
        Ok(n)
    }
}

// --- values ----------------------------------------------------------

const VAL_NULL_MISSING: u8 = 0;
const VAL_NULL_PRODUCED: u8 = 1;
const VAL_BOOL: u8 = 2;
const VAL_INT: u8 = 3;
const VAL_FLOAT: u8 = 4;
const VAL_TEXT: u8 = 5;

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null(NullKind::Missing) => put_u8(out, VAL_NULL_MISSING),
        Value::Null(NullKind::Produced) => put_u8(out, VAL_NULL_PRODUCED),
        Value::Bool(b) => {
            put_u8(out, VAL_BOOL);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, VAL_INT);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            put_u8(out, VAL_FLOAT);
            put_u64(out, f.to_bits());
        }
        Value::Text(s) => {
            put_u8(out, VAL_TEXT);
            put_str(out, s);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    Ok(match r.u8()? {
        VAL_NULL_MISSING => Value::Null(NullKind::Missing),
        VAL_NULL_PRODUCED => Value::Null(NullKind::Produced),
        VAL_BOOL => Value::Bool(r.u8()? != 0),
        VAL_INT => Value::Int(r.u64()? as i64),
        VAL_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        VAL_TEXT => Value::Text(r.str_()?),
        tag => return Err(format!("unknown value tag {tag}")),
    })
}

// --- column types ----------------------------------------------------

fn ctype_tag(c: ColumnType) -> u8 {
    match c {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Bool => 2,
        ColumnType::Text => 3,
        ColumnType::Mixed => 4,
        ColumnType::Unknown => 5,
    }
}

fn read_ctype(r: &mut Reader<'_>) -> DecodeResult<ColumnType> {
    Ok(match r.u8()? {
        0 => ColumnType::Int,
        1 => ColumnType::Float,
        2 => ColumnType::Bool,
        3 => ColumnType::Text,
        4 => ColumnType::Mixed,
        5 => ColumnType::Unknown,
        tag => return Err(format!("unknown column type tag {tag}")),
    })
}

// --- tables ----------------------------------------------------------

pub(crate) fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, t.name());
    put_u32(out, t.schema().len() as u32);
    for c in t.schema().columns() {
        put_str(out, &c.name);
        put_u8(out, ctype_tag(c.ctype));
    }
    put_u32(out, t.row_count() as u32);
    for row in t.rows() {
        for v in row {
            put_value(out, v);
        }
    }
}

/// Rebuild a table exactly as persisted: the schema's column types are
/// restored verbatim (no re-inference), so the round trip is the
/// identity even for schemas that did not come from inference.
pub(crate) fn read_table(r: &mut Reader<'_>) -> DecodeResult<Table> {
    let name = r.str_()?;
    let ncols = r.count(5)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = r.str_()?;
        let ctype = read_ctype(r)?;
        columns.push(ColumnMeta { name: cname, ctype });
    }
    let schema = Schema::from_columns(&name, columns).map_err(|e| e.to_string())?;
    let mut table = Table::with_schema(&name, schema);
    let nrows = r.count(ncols)?;
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(r)?);
        }
        table.push_row(row).map_err(|e| e.to_string())?;
    }
    Ok(table)
}

// --- commitlog records -----------------------------------------------

const EVT_ADDED: u8 = 0;
const EVT_REMOVED: u8 = 1;
const EVT_REPLACED: u8 = 2;

/// Encode one commitlog record payload: `(stamp, event)` plus the table
/// payload captured for `Added`/`Replaced` (absent when the slot had
/// already been emptied again by the time the record was appended).
pub(crate) fn put_record(out: &mut Vec<u8>, stamp: u64, event: LakeEvent, table: Option<&Table>) {
    let kind = match event {
        LakeEvent::Added(_) => EVT_ADDED,
        LakeEvent::Removed(_) => EVT_REMOVED,
        LakeEvent::Replaced(_) => EVT_REPLACED,
    };
    put_u8(out, kind);
    put_u64(out, stamp);
    put_u32(out, event.slot());
    match table {
        Some(t) => {
            put_u8(out, 1);
            put_table(out, t);
        }
        None => put_u8(out, 0),
    }
}

pub(crate) fn read_record(r: &mut Reader<'_>) -> DecodeResult<(u64, LakeEvent, Option<Table>)> {
    let kind = r.u8()?;
    let stamp = r.u64()?;
    let slot = r.u32()?;
    let event = match kind {
        EVT_ADDED => LakeEvent::Added(slot),
        EVT_REMOVED => LakeEvent::Removed(slot),
        EVT_REPLACED => LakeEvent::Replaced(slot),
        tag => return Err(format!("unknown event tag {tag}")),
    };
    let table = match r.u8()? {
        0 => None,
        1 => Some(read_table(r)?),
        tag => return Err(format!("unknown payload marker {tag}")),
    };
    if !r.is_done() {
        return Err(format!("{} trailing bytes after record", r.remaining()));
    }
    Ok((stamp, event, table))
}

// --- snapshots -------------------------------------------------------

/// Marker of a snapshot body's trailing sketch section: none.
pub(crate) const SKETCHES_NONE: u8 = 0;
/// Marker of a sketch section written by earlier versions: a hash-family
/// header and one MinHash signature per domain. Read past and discarded.
pub(crate) const SKETCHES_LEGACY: u8 = 1;

/// Encode the snapshot body: the lake state, then the empty sketch
/// section marker.
pub(crate) fn put_snapshot(out: &mut Vec<u8>, lake: &DataLake) {
    put_u64(out, lake.version());
    put_u32(out, lake.len() as u32);
    for (slot, table) in lake.entries() {
        put_u32(out, slot);
        put_table(out, table);
    }
    put_u32(out, lake.free_slots().len() as u32);
    for &slot in lake.free_slots() {
        put_u32(out, slot);
    }
    put_u8(out, SKETCHES_NONE);
}

#[derive(Debug)]
pub(crate) struct SnapshotBody {
    pub(crate) version: u64,
    pub(crate) entries: Vec<(u32, Arc<Table>)>,
    pub(crate) free: Vec<u32>,
}

pub(crate) fn read_snapshot(r: &mut Reader<'_>) -> DecodeResult<SnapshotBody> {
    let version = r.u64()?;
    let nentries = r.count(5)?;
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let slot = r.u32()?;
        entries.push((slot, Arc::new(read_table(r)?)));
    }
    let nfree = r.count(4)?;
    let mut free = Vec::with_capacity(nfree);
    for _ in 0..nfree {
        free.push(r.u32()?);
    }
    match r.u8()? {
        SKETCHES_NONE => {}
        SKETCHES_LEGACY => skip_legacy_sketches(r)?,
        tag => return Err(format!("unknown sketch marker {tag}")),
    }
    if !r.is_done() {
        return Err(format!("{} trailing bytes after snapshot", r.remaining()));
    }
    Ok(SnapshotBody {
        version,
        entries,
        free,
    })
}

/// Read past a legacy sketch section (`num_perm: u32`, `seed: u64`, then a
/// counted list of `(slot: u32, col: u32, size: u64, num_perm × u64)`)
/// with the same bounds checks as any other payload. The index is rebuilt
/// from the lake, so the signatures are not kept.
fn skip_legacy_sketches(r: &mut Reader<'_>) -> DecodeResult<()> {
    let num_perm = r.u32()? as usize;
    let _seed = r.u64()?;
    let domain_bytes = num_perm
        .checked_mul(8)
        .and_then(|sig| sig.checked_add(16))
        .ok_or_else(|| format!("sketch length {num_perm} overflows"))?;
    let ndomains = r.count(domain_bytes)?;
    r.take(ndomains * domain_bytes)?;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dialite_table::table;

    fn roundtrip_table(t: &Table) -> Table {
        let mut buf = Vec::new();
        put_table(&mut buf, t);
        read_table(&mut Reader::new(&buf)).unwrap()
    }

    #[test]
    fn table_roundtrip_is_identity() {
        let mut t = table! { "mix"; ["i", "f", "s", "b"]; };
        t.push_row(vec![
            Value::Int(-3),
            Value::Float(1.5),
            Value::Text("héllo".into()),
            Value::Bool(true),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Null(NullKind::Missing),
            Value::Null(NullKind::Produced),
            Value::Text(String::new()),
            Value::Bool(false),
        ])
        .unwrap();
        assert_eq!(roundtrip_table(&t), t);
    }

    #[test]
    fn schema_types_survive_without_reinference() {
        // A schema whose declared types differ from what inference over
        // the (empty) rows would produce must come back verbatim.
        let schema = Schema::from_columns(
            "typed",
            vec![
                ColumnMeta {
                    name: "a".into(),
                    ctype: ColumnType::Float,
                },
                ColumnMeta {
                    name: "b".into(),
                    ctype: ColumnType::Mixed,
                },
            ],
        )
        .unwrap();
        let t = Table::with_schema("typed", schema);
        let back = roundtrip_table(&t);
        assert_eq!(back.schema().columns()[0].ctype, ColumnType::Float);
        assert_eq!(back.schema().columns()[1].ctype, ColumnType::Mixed);
        assert_eq!(back, t);
    }

    #[test]
    fn record_roundtrip_with_and_without_payload() {
        let t = table! { "t"; ["x"]; [1], [2] };
        let mut buf = Vec::new();
        put_record(&mut buf, 42, LakeEvent::Replaced(7), Some(&t));
        let (stamp, event, table) = read_record(&mut Reader::new(&buf)).unwrap();
        assert_eq!((stamp, event), (42, LakeEvent::Replaced(7)));
        assert_eq!(table.unwrap(), t);

        let mut buf = Vec::new();
        put_record(&mut buf, 43, LakeEvent::Removed(7), None);
        let (stamp, event, table) = read_record(&mut Reader::new(&buf)).unwrap();
        assert_eq!((stamp, event), (43, LakeEvent::Removed(7)));
        assert!(table.is_none());
    }

    #[test]
    fn truncated_and_mangled_payloads_error_instead_of_panicking() {
        let t = table! { "t"; ["x"]; [1] };
        let mut buf = Vec::new();
        put_record(&mut buf, 1, LakeEvent::Added(0), Some(&t));
        // Every strict prefix must fail cleanly.
        for cut in 0..buf.len() {
            assert!(
                read_record(&mut Reader::new(&buf[..cut])).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A length prefix pointing past the buffer must not allocate or
        // panic either.
        let mut huge = Vec::new();
        put_u8(&mut huge, EVT_ADDED);
        put_u64(&mut huge, 1);
        put_u32(&mut huge, 0);
        put_u8(&mut huge, 1);
        put_u32(&mut huge, u32::MAX); // "table name is 4 GiB long"
        assert!(read_record(&mut Reader::new(&huge)).is_err());
    }

    #[test]
    fn snapshot_roundtrip_restores_the_lake() {
        let mut lake = DataLake::new();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        lake.add(table! { "b"; ["y"]; [2], [3] }).unwrap();
        lake.remove("a").unwrap();
        let mut buf = Vec::new();
        put_snapshot(&mut buf, &lake);
        assert_eq!(buf.last(), Some(&SKETCHES_NONE));
        let body = read_snapshot(&mut Reader::new(&buf)).unwrap();
        assert_eq!(body.version, lake.version());
        assert_eq!(body.free, lake.free_slots());
        let restored = DataLake::restore(body.entries, body.free, body.version).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(
            restored.get("b").unwrap().as_ref(),
            lake.get("b").unwrap().as_ref()
        );
    }

    /// A non-empty sketch section in the format earlier versions wrote
    /// after the free list: marker 1, `num_perm = 2`, a seed, then one
    /// `(slot, col, size, signature)` domain.
    pub(crate) fn legacy_sketch_section() -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, SKETCHES_LEGACY);
        put_u32(&mut out, 2);
        put_u64(&mut out, 5);
        put_u32(&mut out, 1);
        put_u32(&mut out, 0);
        put_u32(&mut out, 0);
        put_u64(&mut out, 1);
        put_u64(&mut out, 10);
        put_u64(&mut out, 20);
        out
    }

    #[test]
    fn legacy_sketch_sections_are_read_past_with_bounds_checks() {
        let mut lake = DataLake::new();
        lake.add(table! { "a"; ["x"]; [1] }).unwrap();
        let mut buf = Vec::new();
        put_snapshot(&mut buf, &lake);
        buf.pop();
        let marker = buf.len();
        buf.extend(legacy_sketch_section());
        let body = read_snapshot(&mut Reader::new(&buf)).unwrap();
        assert_eq!(body.version, lake.version());
        assert_eq!(body.entries.len(), 1);
        // Every strict prefix of the section fails cleanly, and so does a
        // domain count no remaining bytes could hold.
        for cut in marker..buf.len() {
            assert!(read_snapshot(&mut Reader::new(&buf[..cut])).is_err());
        }
        let mut huge = buf[..=marker].to_vec();
        put_u32(&mut huge, u32::MAX);
        put_u64(&mut huge, 0);
        put_u32(&mut huge, u32::MAX);
        assert!(read_snapshot(&mut Reader::new(&huge)).is_err());
    }
}
