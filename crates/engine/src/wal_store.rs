//! Byte codecs for WAL records and snapshots.
//!
//! A WAL record carries the *physical* engine mutations one statement
//! applied — rowid-keyed, so replay reproduces the exact in-memory state
//! including rowid allocation — plus an optional opaque `meta` blob the
//! proxy uses to persist its encrypted-schema state atomically with the
//! engine ops it depends on (onion-level exposure, join re-keys, DDL).
//! Everything here is ciphertext or structural metadata the server
//! already sees; nothing widens the paper's leakage profile.
//!
//! Every record also carries the id of the transaction that wrote it
//! (0 for autocommit), so replay can rebuild the undo log of each
//! transaction a crash left open and roll it back.
//!
//! Encodings are little-endian, length-prefixed, and versioned with a
//! leading byte so a future format bump can coexist with old logs.

use crate::error::EngineError;
use crate::table::{ColumnMeta, Table};
use crate::value::Value;
use cryptdb_sqlparser::ColumnType;

/// Format version of record payloads (2 added the transaction id).
const RECORD_VERSION: u8 = 2;
/// Format version of snapshot payloads.
const SNAPSHOT_VERSION: u8 = 1;

/// One physical engine mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A table was created.
    CreateTable {
        /// Original-case table name.
        name: String,
        /// Declared columns.
        columns: Vec<ColumnMeta>,
    },
    /// An index was (re)built.
    CreateIndex {
        /// Table name.
        table: String,
        /// Indexed column name.
        column: String,
    },
    /// A table was dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// A row was inserted under `rowid`.
    InsertRow {
        /// Table name.
        table: String,
        /// Rowid assigned by the original run.
        rowid: u64,
        /// Full-width row.
        row: Vec<Value>,
    },
    /// One cell was replaced. Replay on a missing rowid is a no-op
    /// (mirrors `Table::update_cell`).
    UpdateCell {
        /// Table name.
        table: String,
        /// Target rowid.
        rowid: u64,
        /// Column position.
        col: u32,
        /// New value.
        value: Value,
    },
    /// A row was deleted (no-op on a missing rowid).
    DeleteRow {
        /// Table name.
        table: String,
        /// Target rowid.
        rowid: u64,
    },
    /// An index was dropped (only in the compensating ops of a
    /// `ROLLBACK` whose transaction created it).
    DropIndex {
        /// Table name.
        table: String,
        /// Column whose index is dropped.
        column: String,
    },
    /// `COMMIT` marker: the record's transaction ended.
    Commit,
    /// `ROLLBACK` marker: the record's other ops are the compensating
    /// ops that undid the transaction, and the transaction ended.
    Rollback,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(3);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
    }
}

/// Sequential reader over a record/snapshot payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err(what: &str) -> EngineError {
        EngineError::Wal(format!("record decode: {what}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.buf.len() - self.pos < n {
            return Err(Self::err("unexpected end of payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, EngineError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, EngineError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| Self::err("invalid utf-8"))
    }

    fn value(&mut self) -> Result<Value, EngineError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Str(self.str()?)),
            3 => {
                let n = self.u32()? as usize;
                Ok(Value::Bytes(self.take(n)?.to_vec()))
            }
            t => Err(Self::err(&format!("unknown value tag {t}"))),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_op(out: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::CreateTable { name, columns } => {
            out.push(1);
            put_str(out, name);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, &c.name);
                out.push(match c.ty {
                    ColumnType::Int => 0,
                    ColumnType::Text => 1,
                });
            }
        }
        WalOp::CreateIndex { table, column } => {
            out.push(2);
            put_str(out, table);
            put_str(out, column);
        }
        WalOp::DropTable { name } => {
            out.push(3);
            put_str(out, name);
        }
        WalOp::InsertRow { table, rowid, row } => {
            out.push(4);
            put_str(out, table);
            put_u64(out, *rowid);
            put_u32(out, row.len() as u32);
            for v in row {
                put_value(out, v);
            }
        }
        WalOp::UpdateCell {
            table,
            rowid,
            col,
            value,
        } => {
            out.push(5);
            put_str(out, table);
            put_u64(out, *rowid);
            put_u32(out, *col);
            put_value(out, value);
        }
        WalOp::DeleteRow { table, rowid } => {
            out.push(6);
            put_str(out, table);
            put_u64(out, *rowid);
        }
        WalOp::DropIndex { table, column } => {
            out.push(7);
            put_str(out, table);
            put_str(out, column);
        }
        WalOp::Commit => out.push(8),
        WalOp::Rollback => out.push(9),
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<WalOp, EngineError> {
    match r.u8()? {
        1 => {
            let name = r.str()?;
            let n = r.u32()? as usize;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let cname = r.str()?;
                let ty = match r.u8()? {
                    0 => ColumnType::Int,
                    1 => ColumnType::Text,
                    t => return Err(Reader::err(&format!("unknown column type {t}"))),
                };
                columns.push(ColumnMeta { name: cname, ty });
            }
            Ok(WalOp::CreateTable { name, columns })
        }
        2 => Ok(WalOp::CreateIndex {
            table: r.str()?,
            column: r.str()?,
        }),
        3 => Ok(WalOp::DropTable { name: r.str()? }),
        4 => {
            let table = r.str()?;
            let rowid = r.u64()?;
            let n = r.u32()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(r.value()?);
            }
            Ok(WalOp::InsertRow { table, rowid, row })
        }
        5 => Ok(WalOp::UpdateCell {
            table: r.str()?,
            rowid: r.u64()?,
            col: r.u32()?,
            value: r.value()?,
        }),
        6 => Ok(WalOp::DeleteRow {
            table: r.str()?,
            rowid: r.u64()?,
        }),
        7 => Ok(WalOp::DropIndex {
            table: r.str()?,
            column: r.str()?,
        }),
        8 => Ok(WalOp::Commit),
        9 => Ok(WalOp::Rollback),
        t => Err(Reader::err(&format!("unknown op tag {t}"))),
    }
}

/// One decoded record: the writing transaction's id (0 for
/// autocommit), its ops, and the proxy meta blob, if any.
pub type Record = (u64, Vec<WalOp>, Option<Vec<u8>>);

/// Encodes one record payload: the id of the transaction that wrote it
/// (0 for autocommit), the ops a statement applied, and an optional
/// proxy meta blob that must land atomically with them.
pub fn encode_record(txn: u64, ops: &[WalOp], meta: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(RECORD_VERSION);
    put_u64(&mut out, txn);
    put_u32(&mut out, ops.len() as u32);
    for op in ops {
        put_op(&mut out, op);
    }
    match meta {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_u32(&mut out, m.len() as u32);
            out.extend_from_slice(m);
        }
    }
    out
}

/// Decodes one record payload.
pub fn decode_record(payload: &[u8]) -> Result<Record, EngineError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != RECORD_VERSION {
        return Err(Reader::err(&format!("unknown record version {version}")));
    }
    let txn = r.u64()?;
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(read_op(&mut r)?);
    }
    let meta = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()? as usize;
            Some(r.take(len)?.to_vec())
        }
        t => return Err(Reader::err(&format!("unknown meta tag {t}"))),
    };
    if !r.done() {
        return Err(Reader::err("trailing bytes"));
    }
    Ok((txn, ops, meta))
}

/// Encodes a full-engine snapshot: every table (schema, rowid allocator,
/// index set, rows — ciphertext only) plus the latest proxy meta blob.
/// Tables are sorted by name for deterministic bytes.
pub fn encode_snapshot(tables: &[(&str, &Table)], meta: Option<&[u8]>) -> Vec<u8> {
    let mut sorted: Vec<&(&str, &Table)> = tables.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = Vec::with_capacity(256);
    out.push(SNAPSHOT_VERSION);
    put_u32(&mut out, sorted.len() as u32);
    for (_, t) in sorted {
        put_str(&mut out, t.name());
        let cols = t.columns();
        put_u32(&mut out, cols.len() as u32);
        for c in cols {
            put_str(&mut out, &c.name);
            out.push(match c.ty {
                ColumnType::Int => 0,
                ColumnType::Text => 1,
            });
        }
        put_u64(&mut out, t.next_rowid());
        // A consistent all-shard view; the caller holds each table's
        // schema lock exclusively, so the shard read guards are
        // uncontended. Iteration merges shards in ascending rowid
        // order, keeping snapshot bytes identical to the pre-sharding
        // layout.
        let view = t.read_view();
        let indexed = view.indexed_columns();
        put_u32(&mut out, indexed.len() as u32);
        for col in indexed {
            put_u32(&mut out, col as u32);
        }
        put_u32(&mut out, view.row_count() as u32);
        for (rowid, row) in view.iter() {
            put_u64(&mut out, rowid);
            for v in row {
                put_value(&mut out, v);
            }
        }
    }
    match meta {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_u32(&mut out, m.len() as u32);
            out.extend_from_slice(m);
        }
    }
    out
}

/// Decodes a snapshot into `(tables, meta)`; table rows keep their
/// original rowids and the allocator watermark.
#[allow(clippy::type_complexity)]
pub fn decode_snapshot(payload: &[u8]) -> Result<(Vec<Table>, Option<Vec<u8>>), EngineError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(Reader::err(&format!("unknown snapshot version {version}")));
    }
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.str()?;
        let ncols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = r.str()?;
            let ty = match r.u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Text,
                t => return Err(Reader::err(&format!("unknown column type {t}"))),
            };
            columns.push(ColumnMeta { name: cname, ty });
        }
        let next_rowid = r.u64()?;
        let table = Table::new(&name, columns);
        let nindexed = r.u32()? as usize;
        let mut indexed = Vec::with_capacity(nindexed);
        for _ in 0..nindexed {
            indexed.push(r.u32()? as usize);
        }
        let nrows = r.u32()? as usize;
        let width = table.columns().len();
        for _ in 0..nrows {
            let rowid = r.u64()?;
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(r.value()?);
            }
            table.insert_with_rowid(rowid, row);
        }
        for col in indexed {
            let cname = table
                .columns()
                .get(col)
                .ok_or_else(|| Reader::err("index column out of range"))?
                .name
                .clone();
            table.create_index(&cname)?;
        }
        table.set_next_rowid(next_rowid);
        tables.push(table);
    }
    let meta = match r.u8()? {
        0 => None,
        1 => {
            let len = r.u32()? as usize;
            Some(r.take(len)?.to_vec())
        }
        t => return Err(Reader::err(&format!("unknown meta tag {t}"))),
    };
    if !r.done() {
        return Err(Reader::err("trailing bytes"));
    }
    Ok((tables, meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_all_ops() {
        let ops = vec![
            WalOp::CreateTable {
                name: "T1".into(),
                columns: vec![
                    ColumnMeta {
                        name: "rid".into(),
                        ty: ColumnType::Int,
                    },
                    ColumnMeta {
                        name: "c0_eq".into(),
                        ty: ColumnType::Text,
                    },
                ],
            },
            WalOp::CreateIndex {
                table: "t1".into(),
                column: "rid".into(),
            },
            WalOp::InsertRow {
                table: "t1".into(),
                rowid: 7,
                row: vec![Value::Int(1), Value::Bytes(vec![0xde, 0xad])],
            },
            WalOp::UpdateCell {
                table: "t1".into(),
                rowid: 7,
                col: 1,
                value: Value::Str("s|s\n".into()),
            },
            WalOp::DeleteRow {
                table: "t1".into(),
                rowid: 7,
            },
            WalOp::DropIndex {
                table: "t1".into(),
                column: "rid".into(),
            },
            WalOp::DropTable { name: "t1".into() },
            WalOp::Commit,
            WalOp::Rollback,
        ];
        for meta in [None, Some(b"META".as_slice())] {
            let payload = encode_record(42, &ops, meta);
            let (txn, got_ops, got_meta) = decode_record(&payload).unwrap();
            assert_eq!(txn, 42);
            assert_eq!(got_ops, ops);
            assert_eq!(got_meta.as_deref(), meta);
        }
    }

    #[test]
    fn record_decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
        let mut payload = encode_record(0, &[WalOp::Commit], None);
        payload.push(0xAB);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn snapshot_roundtrip_preserves_rowids_and_indexes() {
        let t = Table::new(
            "Orders",
            vec![
                ColumnMeta {
                    name: "rid".into(),
                    ty: ColumnType::Int,
                },
                ColumnMeta {
                    name: "c0".into(),
                    ty: ColumnType::Text,
                },
            ],
        );
        t.create_index("rid").unwrap();
        t.insert_with_rowid(3, vec![Value::Int(3), Value::Bytes(vec![1, 2])]);
        t.insert_with_rowid(9, vec![Value::Int(9), Value::Null]);
        t.set_next_rowid(40);
        let payload = encode_snapshot(&[("orders", &t)], Some(b"M"));
        let (tables, meta) = decode_snapshot(&payload).unwrap();
        assert_eq!(meta.as_deref(), Some(b"M".as_slice()));
        assert_eq!(tables.len(), 1);
        let got = &tables[0];
        assert_eq!(got.name(), "Orders");
        assert_eq!(got.next_rowid(), 40);
        assert_eq!(got.indexed_columns(), vec![0]);
        assert_eq!(got.row(3).unwrap()[1], Value::Bytes(vec![1, 2]));
        assert_eq!(got.row(9).unwrap()[0], Value::Int(9));
        assert_eq!(got.index_lookup(0, &Value::Int(9)).unwrap(), vec![9]);
    }
}
