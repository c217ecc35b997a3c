//! The engine facade: catalog, locking, statement dispatch, transactions.

use crate::error::EngineError;
use crate::exec::{self, Ctx, RowSchema, Source};
use crate::table::{ColumnMeta, ShardWriteSet, Table, TableView};
use crate::txn::{OpenTxn, Slot, Txn, Txns, Undo};
use crate::udf::{AggregateUdf, UdfRegistry};
use crate::value::Value;
use crate::wal_store::{self, WalOp};
use cryptdb_sqlparser::{parse, Delete, Insert, Stmt, Update};
use cryptdb_wal::{RecoveryReport, Wal, WalConfig, WalError, WalStats};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How many records the statement-path auto-snapshot waits after a
/// failure before retrying (the background janitor retries regardless).
const SNAPSHOT_RETRY_BACKOFF: u64 = 8;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A result set with column names.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// Rows affected by a write.
    Affected(usize),
    /// Statement executed with nothing to report (DDL, transactions).
    Ok,
}

impl QueryResult {
    /// The rows, if this is a result set.
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// First value of the first row (convenient for aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows().first().and_then(|r| r.first())
    }

    /// Canonical text form of a result set: one `|`-joined line per row,
    /// lines sorted, so two result sets compare equal iff they hold the
    /// same *multiset* of rows. Row order out of a concurrent run is
    /// schedule-dependent (insertion order differs run to run), so the
    /// end-to-end correctness harnesses compare canonical dumps of the
    /// concurrent run against a serial oracle replay.
    pub fn canonical_text(&self) -> String {
        let fmt_cell = |v: &Value| -> String {
            match v {
                Value::Null => "NULL".into(),
                Value::Int(i) => i.to_string(),
                // Escape the separator/line characters so the multiset
                // property survives strings containing '|' or newlines
                // (otherwise cell and row boundaries become ambiguous).
                Value::Str(s) => format!(
                    "'{}'",
                    s.replace('\\', "\\\\")
                        .replace('\n', "\\n")
                        .replace('|', "\\|")
                ),
                Value::Bytes(b) => b.iter().map(|x| format!("{x:02x}")).collect(),
            }
        };
        let mut lines: Vec<String> = self
            .rows()
            .iter()
            .map(|row| row.iter().map(fmt_cell).collect::<Vec<_>>().join("|"))
            .collect();
        lines.sort_unstable();
        lines.join("\n")
    }
}

/// The in-memory DBMS server.
///
/// Thread-safe: statements on different tables proceed in parallel, reads
/// on the same table share a lock, writes exclude each other — this is the
/// concurrency model whose contention shape Fig. 10 measures.
///
/// Transactions belong to the [`Txn`] handle a session passes to
/// [`Engine::execute_in`]; [`Engine::execute`] runs every statement in
/// one handle the engine keeps for its direct callers. A transaction
/// keeps an undo log and row write locks (see [`Txn`]); reads
/// take no row lock and see uncommitted writes.
///
/// # Examples
///
/// ```
/// use cryptdb_engine::{Engine, Value};
///
/// let db = Engine::new();
/// db.execute_sql("CREATE TABLE t (id int, name text)").unwrap();
/// db.execute_sql("INSERT INTO t (id, name) VALUES (1, 'alice')").unwrap();
/// let r = db.execute_sql("SELECT name FROM t WHERE id = 1").unwrap();
/// assert_eq!(r.rows()[0][0], Value::Str("alice".into()));
/// ```
pub struct Engine {
    catalog: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    udfs: RwLock<UdfRegistry>,
    /// Open transactions and their lock waits.
    txns: Txns,
    /// The handle [`Engine::execute`] and [`Engine::execute_sql`] use.
    implicit: Txn,
    /// Durability state, when a WAL is attached. Lock order everywhere:
    /// transaction handle → catalog → table schema lock → shard locks
    /// (ascending) → transaction registry → undo log, and shard locks →
    /// `wal` — mutating statements append their record while still
    /// holding the shard locks that serialized them, so WAL order equals
    /// apply order.
    wal: Mutex<Option<WalState>>,
    /// Fast-path flag mirroring `wal.is_some()`, so the no-WAL
    /// configuration skips the `wal` mutex entirely on the DML hot path
    /// (otherwise every statement from every shard-parallel writer
    /// would ping-pong one mutex for nothing). Set on attach/recover,
    /// never cleared.
    wal_attached: AtomicBool,
    /// True while log appends are failing: the engine is read-only and
    /// the serving layer sheds writes. Cleared by the next append that
    /// succeeds — recovery is automatic, no restart required.
    degraded: AtomicBool,
    /// WAL append failures (clean and unsynced) since startup.
    wal_append_failures: AtomicU64,
    /// Times the engine *entered* degraded mode.
    degraded_entries: AtomicU64,
    /// Auto-snapshot attempts that failed (surfaced, never swallowed).
    snapshot_failures: AtomicU64,
    /// Snapshots successfully written (auto or background cadence).
    snapshots_taken: AtomicU64,
    /// Statement-path auto-snapshot backoff: skip until the WAL
    /// sequence passes this watermark.
    snapshot_retry_floor: AtomicU64,
}

/// Point-in-time durability counters, for server stats and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The engine is currently shedding writes because log appends
    /// fail.
    pub degraded: bool,
    /// WAL append failures since startup.
    pub wal_append_failures: u64,
    /// Times the engine entered degraded mode.
    pub degraded_entries: u64,
    /// Failed snapshot attempts.
    pub snapshot_failures: u64,
    /// Snapshots successfully written.
    pub snapshots_taken: u64,
    /// Segment files in the live WAL chain.
    pub wal_segments: u64,
    /// Total on-disk bytes of the WAL chain.
    pub wal_disk_bytes: u64,
    /// Epoch of the most recent snapshot (0 = none).
    pub snapshot_epoch: u64,
    /// Last assigned WAL sequence number.
    pub last_seq: u64,
}

/// Why a write stopped before it finished.
enum Stop {
    /// A row it must write is locked by this open transaction: nothing
    /// changed; run the statement again once that transaction ends.
    Blocked(u64),
    Fail(EngineError),
}

impl From<EngineError> for Stop {
    fn from(e: EngineError) -> Self {
        Stop::Fail(e)
    }
}

/// The id a write logs and locks rows under: its transaction's, or 0
/// for autocommit.
fn txn_id(txn: Option<&OpenTxn>) -> u64 {
    txn.map_or(0, |t| t.id)
}

/// Hands a logged statement's inverse ops to its transaction.
fn retain(txn: Option<&OpenTxn>, logged: bool, undo: impl IntoIterator<Item = Undo>) {
    if let Some(t) = txn {
        let mut log = t.log.lock();
        log.logged |= logged;
        log.undo.extend(undo);
    }
}

/// How a [`Engine::log_record`] failure relates to the on-disk log —
/// the caller's contract is "memory equals log", so the two classes
/// demand opposite reactions.
enum LogError {
    /// The record never reached the log and no sequence number was
    /// consumed: the caller must undo the in-memory effects.
    Clean(EngineError),
    /// The record is fully written (durable-maybe: the fsync failed):
    /// the caller must keep the in-memory effects and withhold the
    /// acknowledgement.
    Durable(EngineError),
}

impl LogError {
    fn into_err(self) -> EngineError {
        match self {
            LogError::Clean(e) | LogError::Durable(e) => e,
        }
    }
}

struct WalState {
    wal: Wal,
    snapshot_every: Option<u64>,
    /// Most recent proxy meta blob seen in any record, cached so
    /// snapshots embed it (last-meta-wins at replay).
    last_meta: Option<Vec<u8>>,
}

/// What [`Engine::recover`] reconstructed.
#[derive(Debug)]
pub struct EngineRecovery {
    /// Log-scan outcome (with `records_applied` adjusted to the count
    /// actually replayed after snapshot filtering).
    pub report: RecoveryReport,
    /// The latest proxy meta blob from the snapshot or log, if any.
    pub meta: Option<Vec<u8>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine {
            catalog: RwLock::new(HashMap::new()),
            udfs: RwLock::new(UdfRegistry::new()),
            txns: Txns::default(),
            implicit: Txn::new(),
            wal: Mutex::new(None),
            wal_attached: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            wal_append_failures: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
            snapshot_retry_floor: AtomicU64::new(0),
        }
    }

    /// Registers a scalar UDF.
    pub fn register_scalar_udf(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value, EngineError> + Send + Sync + 'static,
    ) {
        self.udfs.write().register_scalar(name, f);
    }

    /// Registers an aggregate UDF.
    pub fn register_aggregate_udf(&self, name: &str, agg: AggregateUdf) {
        self.udfs.write().register_aggregate(name, agg);
    }

    /// Parses and executes a string of statements, returning the last result.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult, EngineError> {
        let stmts = parse(sql).map_err(|e| EngineError::Unsupported(e.to_string()))?;
        let mut last = QueryResult::Ok;
        for stmt in &stmts {
            last = self.execute(stmt)?;
        }
        Ok(last)
    }

    fn table_handle(&self, name: &str) -> Result<Arc<RwLock<Table>>, EngineError> {
        self.catalog
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))
    }

    /// Runs `f` with a consistent read view of the named table (schema
    /// read lock + read guards on every shard).
    pub fn with_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&TableView<'_>) -> R,
    ) -> Result<R, EngineError> {
        let handle = self.table_handle(name)?;
        let guard = handle.read();
        let view = guard.read_view();
        Ok(f(&view))
    }

    /// All table names (lowercase), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total storage across tables (§8.4.3).
    pub fn storage_bytes(&self) -> usize {
        let catalog = self.catalog.read();
        catalog.values().map(|t| t.read().storage_bytes()).sum()
    }

    /// Executes one parsed statement in the engine's own handle, which
    /// every direct caller shares (so a `BEGIN` here opens the
    /// transaction all of them then write in).
    pub fn execute(&self, stmt: &Stmt) -> Result<QueryResult, EngineError> {
        self.execute_in(&self.implicit, stmt, None)
    }

    /// Executes one statement in `txn`'s transaction (autocommit while
    /// it has none). If the statement mutates state, its WAL record also
    /// carries `meta` (an opaque proxy blob) so the two land atomically.
    pub fn execute_in(
        &self,
        txn: &Txn,
        stmt: &Stmt,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let result = self.run(Some(txn), stmt, meta);
        self.maybe_autosnapshot();
        result
    }

    /// Executes one statement outside every transaction: it commits on
    /// its own even while some session's transaction is open. Its WAL
    /// record also carries `meta`. Transaction control is refused.
    pub fn execute_with_meta(
        &self,
        stmt: &Stmt,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let result = self.run(None, stmt, meta);
        self.maybe_autosnapshot();
        result
    }

    /// Ends a session: rolls back its open transaction, if any, and
    /// leaves the handle idle.
    pub fn end_session(&self, txn: &Txn) -> Result<(), EngineError> {
        if txn.is_open() {
            self.rollback(txn, None)?;
        }
        Ok(())
    }

    /// Executes a sequence of DDL statements (`CREATE TABLE`,
    /// `CREATE INDEX`, `DROP TABLE`) under one catalog lock and logs
    /// them as a *single* WAL record together with `meta` — the
    /// crash-atomic unit the proxy needs for table creation (encrypted
    /// schema entry + anonymized table + rid index stand or fall
    /// together). Runs outside every transaction.
    pub fn execute_batch_with_meta(
        &self,
        stmts: &[Stmt],
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let result = self.exec_ddl_batch(stmts, meta);
        self.maybe_autosnapshot();
        result
    }

    /// Runs an onion adjustment: `UPDATE`s of one table under every
    /// shard write lock, logged with `meta` as a *single* WAL record —
    /// the crash-atomic unit an adjustment needs (each row's re-encrypted
    /// cells and the schema's level flip stand or fall together at
    /// recovery). An empty batch logs a meta-only record, so a zero-row
    /// adjustment still lands its schema flip.
    ///
    /// An adjustment re-encodes cells without changing what they stand
    /// for, so it runs outside every transaction and ignores row locks.
    /// It refuses with [`EngineError::Conflict`], before changing
    /// anything, if an open transaction updated one of the assigned or
    /// `guard` columns or deleted a row of the table: rolling that
    /// transaction back would restore cells at the old layer.
    ///
    /// On a mid-batch evaluation failure the cell rewrites already
    /// applied are logged *without* `meta` (the caller reverts its
    /// schema change, so recovery must not see the flip either).
    pub fn execute_adjustment(
        &self,
        stmts: &[Update],
        guard: &[String],
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let result = self.exec_update_batch(stmts, guard, meta);
        self.maybe_autosnapshot();
        result
    }

    /// Appends a meta-only WAL record (proxy schema changes that touch
    /// no engine state, e.g. level-floor or principal-type updates).
    /// A no-op without an attached WAL.
    pub fn log_meta(&self, meta: &[u8]) -> Result<(), EngineError> {
        self.log_record(&[], Some(meta), 0)
            .map_err(LogError::into_err)
    }

    /// Dispatches one statement. A write that meets another
    /// transaction's row lock releases everything, waits for that
    /// transaction to end, and runs again; a failed wait aborts the
    /// writer's own transaction.
    fn run(
        &self,
        txn: Option<&Txn>,
        stmt: &Stmt,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        match stmt {
            Stmt::Select(sel) => return self.select(sel),
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
                let Some(txn) = txn else {
                    return Err(EngineError::Unsupported(
                        "transaction control needs a session's transaction handle".into(),
                    ));
                };
                return match stmt {
                    Stmt::Begin => self.begin(txn, meta),
                    Stmt::Commit => self.commit(txn, meta),
                    _ => self.rollback(txn, meta),
                };
            }
            _ => {}
        }
        loop {
            let slot = txn.map(|t| t.slot.read());
            let open = match slot.as_deref() {
                Some(Slot::Aborted) => return Err(EngineError::TxnAborted),
                Some(Slot::Open(open)) => Some(open.clone()),
                _ => None,
            };
            match self.write(open.as_deref(), stmt, meta) {
                Ok(r) => return Ok(r),
                Err(Stop::Fail(e)) => return Err(e),
                Err(Stop::Blocked(owner)) => {
                    drop(slot);
                    if let Err(e) = self.txns.wait_for(txn_id(open.as_deref()), owner) {
                        if let (Some(txn), Some(open)) = (txn, &open) {
                            self.abort(txn, open);
                        }
                        return Err(e);
                    }
                }
            }
        }
    }

    /// `BEGIN`: O(1), and no WAL record. Inside an open block it is a
    /// no-op, as in PostgreSQL.
    fn begin(&self, txn: &Txn, meta: Option<&[u8]>) -> Result<QueryResult, EngineError> {
        if let Some(m) = meta {
            self.log_meta(m)?;
        }
        let mut slot = txn.slot.write();
        if matches!(*slot, Slot::Idle) {
            *slot = Slot::Open(self.txns.begin());
        }
        Ok(QueryResult::Ok)
    }

    /// `COMMIT`: drops the undo log and releases the row locks; logs
    /// (and syncs) a marker only if the transaction has a record in the
    /// log. A record that never reached the log keeps the transaction
    /// open. Committing an aborted block ends it with an error.
    fn commit(&self, txn: &Txn, meta: Option<&[u8]>) -> Result<QueryResult, EngineError> {
        let mut slot = txn.slot.write();
        match std::mem::take(&mut *slot) {
            Slot::Idle => {
                if let Some(m) = meta {
                    self.log_meta(m)?;
                }
                Ok(QueryResult::Ok)
            }
            Slot::Aborted => Err(EngineError::TxnAborted),
            Slot::Open(open) => {
                let logged = open.log.lock().logged;
                if logged || meta.is_some() {
                    match self.log_record(&[WalOp::Commit], meta, open.id) {
                        Err(LogError::Clean(e)) => {
                            *slot = Slot::Open(open);
                            return Err(e);
                        }
                        Err(LogError::Durable(e)) => {
                            self.finish(&open);
                            return Err(e);
                        }
                        Ok(()) => {}
                    }
                }
                self.finish(&open);
                Ok(QueryResult::Ok)
            }
        }
    }

    /// `ROLLBACK`: undoes the transaction (see [`Engine::undo_txn`]).
    /// Ending an aborted block succeeds; a record that never reached the
    /// log leaves the transaction open and intact.
    fn rollback(&self, txn: &Txn, meta: Option<&[u8]>) -> Result<QueryResult, EngineError> {
        let mut slot = txn.slot.write();
        match std::mem::take(&mut *slot) {
            Slot::Idle => Err(EngineError::NoActiveTransaction),
            Slot::Aborted => Ok(QueryResult::Ok),
            Slot::Open(open) => match self.undo_txn(&open, meta) {
                Ok(()) => Ok(QueryResult::Ok),
                Err(LogError::Clean(e)) => {
                    *slot = Slot::Open(open);
                    Err(e)
                }
                Err(LogError::Durable(e)) => Err(e),
            },
        }
    }

    /// Rolls back the transaction a failed lock wait stopped; the handle
    /// stays aborted until the session ends the block.
    fn abort(&self, txn: &Txn, open: &Arc<OpenTxn>) {
        let mut slot = txn.slot.write();
        if !matches!(&*slot, Slot::Open(o) if Arc::ptr_eq(o, open)) {
            return;
        }
        if !matches!(self.undo_txn(open, None), Err(LogError::Clean(_))) {
            *slot = Slot::Aborted;
        }
    }

    /// Ends a committed (or rolled-back) transaction: releases its row
    /// locks and wakes the writers waiting for them.
    fn finish(&self, open: &OpenTxn) {
        let undo = std::mem::take(&mut open.log.lock().undo);
        self.release_rows(&undo, open.id);
        self.txns.end(open.id);
    }

    fn release_rows(&self, undo: &[Undo], id: u64) {
        let mut last: Option<(&str, Option<Arc<RwLock<Table>>>)> = None;
        for (table, rowid) in undo.iter().filter_map(Undo::row) {
            if last.as_ref().is_none_or(|(t, _)| *t != table) {
                last = Some((table, self.table_handle(table).ok()));
            }
            if let Some((_, Some(handle))) = &last {
                handle.read().release_row(rowid, id);
            }
        }
    }

    /// Rolls `open` back: logs the compensating ops, newest first, and
    /// the `ROLLBACK` marker as one record, then applies them and ends
    /// the transaction. The record goes first: the transaction still
    /// holds its rows and this holds the catalog, so nothing changes
    /// them in between. Ops on a table that is gone (or, to undo a
    /// drop, whose name was taken again) are skipped in the record and
    /// in memory alike. A clean log failure leaves the transaction open
    /// with its undo log intact.
    fn undo_txn(&self, open: &OpenTxn, meta: Option<&[u8]>) -> Result<(), LogError> {
        let mut catalog = self.catalog.write();
        let undo = std::mem::take(&mut open.log.lock().undo);
        // Decided newest first against the catalog as the entries
        // before each one leave it.
        let mut present: std::collections::HashSet<String> = catalog.keys().cloned().collect();
        let live: Vec<usize> = (0..undo.len())
            .rev()
            .filter(|&i| match &undo[i] {
                Undo::Dropped { table, .. } => present.insert(table.to_lowercase()),
                Undo::Created { table } => present.remove(&table.to_lowercase()),
                Undo::Inserted { table, .. }
                | Undo::Updated { table, .. }
                | Undo::Deleted { table, .. }
                | Undo::Indexed { table, .. } => present.contains(&table.to_lowercase()),
            })
            .collect();
        let mut ops = Vec::new();
        if self.wal_attached.load(Ordering::Acquire) {
            for &i in &live {
                compensate(&undo[i], &mut ops);
            }
        }
        ops.push(WalOp::Rollback);
        let logged = self.log_record(&ops, meta, open.id);
        if matches!(logged, Err(LogError::Clean(_))) {
            open.log.lock().undo = undo;
            return logged;
        }
        for &i in &live {
            apply_undo(&mut catalog, &undo[i]);
        }
        drop(catalog);
        self.release_rows(&undo, open.id);
        self.txns.end(open.id);
        logged
    }

    /// One write statement, in `txn` or autocommit.
    fn write(
        &self,
        txn: Option<&OpenTxn>,
        stmt: &Stmt,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, Stop> {
        let id = txn_id(txn);
        match stmt {
            Stmt::CreateTable(ct) => {
                let key = ct.name.to_lowercase();
                let mut catalog = self.catalog.write();
                if catalog.contains_key(&key) {
                    return Err(EngineError::TableExists(ct.name.clone()).into());
                }
                let columns: Vec<ColumnMeta> = ct
                    .columns
                    .iter()
                    .map(|c| ColumnMeta {
                        name: c.name.clone(),
                        ty: c.ty,
                    })
                    .collect();
                catalog.insert(
                    key.clone(),
                    Arc::new(RwLock::new(Table::new(&ct.name, columns.clone()))),
                );
                let op = WalOp::CreateTable {
                    name: ct.name.clone(),
                    columns,
                };
                let undo = Undo::Created {
                    table: ct.name.clone(),
                };
                if let Err(fail) = self.log_record(&[op], meta, id) {
                    return Err(self
                        .fail_logged(fail, || apply_undo(&mut catalog, &undo))
                        .into());
                }
                retain(txn, true, [undo]);
                Ok(QueryResult::Ok)
            }
            Stmt::CreateIndex { table, column } => {
                let handle = self.table_handle(table)?;
                // Index DDL takes the schema lock exclusively: no DML
                // holds any shard lock of this table while the index
                // fragments are (re)built.
                let guard = handle.write();
                // create_index rebuilds an existing index in place, so
                // the undo must not drop an index that predates the
                // statement.
                let existed = guard
                    .column_position(column)
                    .is_some_and(|c| guard.has_index(c));
                guard.create_index(column)?;
                let op = WalOp::CreateIndex {
                    table: table.clone(),
                    column: column.clone(),
                };
                if let Err(fail) = self.log_record(&[op], meta, id) {
                    return Err(self
                        .fail_logged(fail, || {
                            if !existed {
                                guard.drop_index(column);
                            }
                        })
                        .into());
                }
                let undo = (!existed).then(|| Undo::Indexed {
                    table: table.clone(),
                    column: column.clone(),
                });
                retain(txn, true, undo);
                Ok(QueryResult::Ok)
            }
            Stmt::DropTable { name } => {
                let key = name.to_lowercase();
                let mut catalog = self.catalog.write();
                let Some(dropped) = catalog.remove(&key) else {
                    return Err(EngineError::TableNotFound(name.clone()).into());
                };
                let op = WalOp::DropTable { name: name.clone() };
                let undo = Undo::Dropped {
                    table: name.clone(),
                    handle: dropped,
                };
                if let Err(fail) = self.log_record(&[op], meta, id) {
                    return Err(self
                        .fail_logged(fail, || apply_undo(&mut catalog, &undo))
                        .into());
                }
                retain(txn, true, [undo]);
                Ok(QueryResult::Ok)
            }
            Stmt::Insert(ins) => Ok(self.insert(txn, ins, meta)?),
            Stmt::Update(upd) => self.update(txn, upd, meta),
            Stmt::Delete(del) => self.delete(txn, del, meta),
            // Annotation statements are proxy-side; the DBMS accepts and
            // ignores them (the proxy never forwards them in practice).
            Stmt::PrincType { .. } => {
                if let Some(m) = meta {
                    self.log_meta(m)?;
                }
                Ok(QueryResult::Ok)
            }
            Stmt::Select(_) | Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
                unreachable!("dispatched by Engine::run")
            }
        }
    }

    fn exec_ddl_batch(
        &self,
        stmts: &[Stmt],
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let mut catalog = self.catalog.write();
        let mut ops: Vec<WalOp> = Vec::with_capacity(stmts.len());
        // Inverse of each applied op, replayed in reverse when the
        // batch's WAL record never reaches the log.
        let mut undos: Vec<Undo> = Vec::with_capacity(stmts.len());
        let mut failure: Option<EngineError> = None;
        for stmt in stmts {
            match stmt {
                Stmt::CreateTable(ct) => {
                    let key = ct.name.to_lowercase();
                    if catalog.contains_key(&key) {
                        failure = Some(EngineError::TableExists(ct.name.clone()));
                        break;
                    }
                    let columns: Vec<ColumnMeta> = ct
                        .columns
                        .iter()
                        .map(|c| ColumnMeta {
                            name: c.name.clone(),
                            ty: c.ty,
                        })
                        .collect();
                    catalog.insert(
                        key,
                        Arc::new(RwLock::new(Table::new(&ct.name, columns.clone()))),
                    );
                    undos.push(Undo::Created {
                        table: ct.name.clone(),
                    });
                    ops.push(WalOp::CreateTable {
                        name: ct.name.clone(),
                        columns,
                    });
                }
                Stmt::CreateIndex { table, column } => {
                    let key = table.to_lowercase();
                    let Some(handle) = catalog.get(&key) else {
                        failure = Some(EngineError::TableNotFound(table.clone()));
                        break;
                    };
                    let guard = handle.write();
                    let existed = guard
                        .column_position(column)
                        .is_some_and(|c| guard.has_index(c));
                    if let Err(e) = guard.create_index(column) {
                        failure = Some(e);
                        break;
                    }
                    drop(guard);
                    if !existed {
                        undos.push(Undo::Indexed {
                            table: table.clone(),
                            column: column.clone(),
                        });
                    }
                    ops.push(WalOp::CreateIndex {
                        table: table.clone(),
                        column: column.clone(),
                    });
                }
                Stmt::DropTable { name } => {
                    let key = name.to_lowercase();
                    let Some(dropped) = catalog.remove(&key) else {
                        failure = Some(EngineError::TableNotFound(name.clone()));
                        break;
                    };
                    undos.push(Undo::Dropped {
                        table: name.clone(),
                        handle: dropped,
                    });
                    ops.push(WalOp::DropTable { name: name.clone() });
                }
                _ => {
                    failure = Some(EngineError::Unsupported(
                        "execute_batch_with_meta supports DDL statements only".into(),
                    ));
                    break;
                }
            }
        }
        // Log exactly the ops applied. On failure the batch's meta is
        // not valid (the caller reverts its schema change), so the
        // partial ops go out bare.
        let logged = if failure.is_none() {
            self.log_record(&ops, meta, 0)
        } else {
            self.log_record(&ops, None, 0)
        };
        if let Err(fail) = logged {
            return Err(self.fail_logged(fail, || {
                for undo in undos.iter().rev() {
                    apply_undo(&mut catalog, undo);
                }
            }));
        }
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(QueryResult::Ok)
    }

    fn insert(
        &self,
        txn: Option<&OpenTxn>,
        ins: &Insert,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let id = txn_id(txn);
        let handle = self.table_handle(&ins.table)?;
        let udfs = self.udfs.read();
        let ctx = Ctx { udfs: &udfs };
        let empty_schema = RowSchema::default();
        // Schema lock shared: concurrent inserters into the same table
        // proceed in parallel, serialized only on the shards they touch.
        let table = handle.read();
        let width = table.columns().len();
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..width).collect()
        } else {
            ins.columns
                .iter()
                .map(|c| {
                    table
                        .column_position(c)
                        .ok_or_else(|| EngineError::ColumnNotFound(c.clone()))
                })
                .collect::<Result<_, _>>()?
        };
        // Phase 1 (no shard locks): evaluate every VALUES row. A bad row
        // keeps the applied prefix, exactly as the pre-sharding path did.
        let mut staged: Vec<Vec<Value>> = Vec::with_capacity(ins.rows.len());
        let mut failure: Option<EngineError> = None;
        'rows: for row_exprs in &ins.rows {
            if row_exprs.len() != positions.len() {
                failure = Some(EngineError::ArityMismatch {
                    expected: positions.len(),
                    found: row_exprs.len(),
                });
                break;
            }
            let mut row = vec![Value::Null; width];
            for (pos, e) in positions.iter().zip(row_exprs) {
                match exec::eval(e, &empty_schema, &[], &ctx) {
                    Ok(v) => row[*pos] = v,
                    Err(e) => {
                        failure = Some(e);
                        break 'rows;
                    }
                }
            }
            staged.push(row);
        }
        // Phase 2: allocate rowids lock-free, write-lock exactly the
        // shards they hash to (ascending), apply, and log the composite
        // record while those shard locks are held so WAL order matches
        // apply order.
        let rowids: Vec<u64> = staged.iter().map(|_| table.alloc_rowid()).collect();
        let mut ws = table.lock_shards(rowids.iter().copied());
        let count = staged.len();
        let mut ops: Vec<WalOp> = Vec::with_capacity(count);
        for (&rowid, row) in rowids.iter().zip(staged) {
            ws.insert_row(rowid, row.clone());
            if id != 0 {
                ws.lock_row(rowid, id);
            }
            ops.push(WalOp::InsertRow {
                table: ins.table.clone(),
                rowid,
                row,
            });
        }
        let logged = self.log_record(&ops, meta, id);
        if let Err(LogError::Clean(e)) = logged {
            // The applied rows come back out, through the still-held
            // shard guards. The rowid allocator is not rewound: the log
            // carries explicit rowids, so a gap is harmless, and
            // rewinding could collide with rowids a later statement
            // hands out.
            for &rowid in rowids.iter().rev() {
                ws.delete(rowid);
                ws.unlock_row(rowid);
            }
            return Err(e);
        }
        retain(
            txn,
            !ops.is_empty() || meta.is_some(),
            rowids.iter().map(|&rowid| Undo::Inserted {
                table: ins.table.clone(),
                rowid,
            }),
        );
        logged.map_err(LogError::into_err)?;
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(QueryResult::Affected(count))
    }

    fn select(&self, sel: &cryptdb_sqlparser::Select) -> Result<QueryResult, EngineError> {
        Ok(self.select_capped(sel, None)?.expect("no cap, no refusal"))
    }

    /// Runs a `SELECT` only if its cost is bounded by `max_rows`: at
    /// most one table, whose scan (index probe, or the whole table when
    /// no index applies) visits at most `max_rows` rows. Otherwise
    /// returns `None` having run nothing; the check itself costs
    /// O(`max_rows`) index steps. Unlike [`Engine::execute`] it never
    /// triggers an automatic snapshot.
    pub fn select_within(
        &self,
        sel: &cryptdb_sqlparser::Select,
        max_rows: usize,
    ) -> Result<Option<QueryResult>, EngineError> {
        self.select_capped(sel, Some(max_rows))
    }

    fn select_capped(
        &self,
        sel: &cryptdb_sqlparser::Select,
        max_rows: Option<usize>,
    ) -> Result<Option<QueryResult>, EngineError> {
        if max_rows.is_some() && sel.from.len() + sel.joins.len() > 1 {
            return Ok(None);
        }
        // Collect table handles in FROM-then-JOIN order; lock in sorted
        // order to avoid deadlocks, then execute.
        let mut refs = sel.from.clone();
        let mut join_ons = Vec::new();
        for j in &sel.joins {
            refs.push(j.table.clone());
            join_ons.push(j.on.clone());
        }
        let mut handles = Vec::with_capacity(refs.len());
        for r in &refs {
            handles.push(self.table_handle(&r.name)?);
        }
        // Deduplicate by Arc identity for locking (self-joins share one
        // lock), then lock in address order.
        let mut unique: Vec<Arc<RwLock<Table>>> = Vec::new();
        for h in &handles {
            if !unique.iter().any(|u| Arc::ptr_eq(u, h)) {
                unique.push(h.clone());
            }
        }
        unique.sort_by_key(|h| Arc::as_ptr(h) as usize);
        let guards: Vec<_> = unique.iter().map(|h| h.read()).collect();
        // One all-shard read view per unique table (self-joins share a
        // view), acquired in the same sorted table order so shard-lock
        // acquisition follows the global lock order.
        let views: Vec<TableView<'_>> = guards.iter().map(|g| g.read_view()).collect();
        let find_guard = |h: &Arc<RwLock<Table>>| {
            unique
                .iter()
                .position(|u| Arc::ptr_eq(u, h))
                .expect("handle present")
        };
        let sources: Vec<Source<'_>> = refs
            .iter()
            .zip(&handles)
            .map(|(r, h)| Source::new(&views[find_guard(h)], r))
            .collect();
        if let (Some(cap), Some(src)) = (max_rows, sources.first()) {
            if !exec::scan_within(src, sel, cap) {
                return Ok(None);
            }
        }
        let udfs = self.udfs.read();
        let ctx = Ctx { udfs: &udfs };
        let (columns, rows) = exec::run_select(&sources, &join_ons, sel, &ctx)?;
        Ok(Some(QueryResult::Rows { columns, rows }))
    }

    fn update(
        &self,
        txn: Option<&OpenTxn>,
        upd: &Update,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, Stop> {
        let id = txn_id(txn);
        let handle = self.table_handle(&upd.table)?;
        let udfs = self.udfs.read();
        let ctx = Ctx { udfs: &udfs };
        // Schema lock shared; row access goes through shard locks.
        let table = handle.read();
        let schema = RowSchema::for_table(&table, Some(&upd.table));
        let sets: Vec<(usize, &cryptdb_sqlparser::Expr)> = upd
            .sets
            .iter()
            .map(|(c, e)| {
                table
                    .column_position(c)
                    .map(|p| (p, e))
                    .ok_or_else(|| EngineError::ColumnNotFound(c.clone()))
            })
            .collect::<Result<_, _>>()?;
        // Phase 1: find candidates under an all-shard read view, then
        // release it. Phase 2 write-locks only the touched shards and
        // re-checks each candidate (it may have been deleted or changed
        // by a writer that slipped between the phases). Rows in
        // *untouched* shards that start matching in that window are
        // missed — acceptable: the commuting workloads the oracle tests
        // replay never produce such rows, and a serial schedule explains
        // the result either way.
        let rowids = {
            let view = table.read_view();
            self.matching_rowids(&view, &schema, upd.selection.as_ref(), &ctx)?
        };
        let mut ws = table.lock_shards(rowids.iter().copied());
        self.check_row_locks(&ws, &rowids, id)?;
        let mut count = 0;
        let mut ops: Vec<WalOp> = Vec::new();
        let mut undo_cells: Vec<(u64, usize, Value)> = Vec::new();
        let mut locked: Vec<u64> = Vec::new();
        let mut failure: Option<EngineError> = None;
        'rows: for rowid in rowids {
            let Some(row) = ws.row(rowid).cloned() else {
                continue;
            };
            if let Some(sel) = upd.selection.as_ref() {
                match exec::eval(sel, &schema, &row, &ctx) {
                    Ok(v) if v.is_truthy() => {}
                    Ok(_) => continue,
                    Err(e) => {
                        failure = Some(e);
                        break 'rows;
                    }
                }
            }
            let mut new_values = Vec::with_capacity(sets.len());
            for (pos, e) in &sets {
                match exec::eval(e, &schema, &row, &ctx) {
                    Ok(v) => new_values.push((*pos, v)),
                    Err(e) => {
                        failure = Some(e);
                        break 'rows;
                    }
                }
            }
            for (pos, v) in new_values {
                undo_cells.push((rowid, pos, row[pos].clone()));
                ops.push(WalOp::UpdateCell {
                    table: upd.table.clone(),
                    rowid,
                    col: pos as u32,
                    value: v.clone(),
                });
                ws.update_cell(rowid, pos, v);
            }
            if id != 0 && ws.lock_row(rowid, id) {
                locked.push(rowid);
            }
            count += 1;
        }
        // One composite record for exactly the cells applied, logged
        // while the shard write guards are still held.
        let logged = self.log_record(&ops, meta, id);
        if let Err(LogError::Clean(e)) = logged {
            for (rowid, pos, old) in undo_cells.into_iter().rev() {
                ws.update_cell(rowid, pos, old);
            }
            for rowid in locked {
                ws.unlock_row(rowid);
            }
            return Err(e.into());
        }
        retain(
            txn,
            !ops.is_empty() || meta.is_some(),
            undo_cells
                .into_iter()
                .map(|(rowid, col, old)| Undo::Updated {
                    table: upd.table.clone(),
                    rowid,
                    col,
                    old,
                }),
        );
        logged.map_err(LogError::into_err)?;
        if let Some(e) = failure {
            return Err(e.into());
        }
        Ok(QueryResult::Affected(count))
    }

    /// Stops a statement, before it changes anything, if another open
    /// transaction holds a write lock on one of `rowids`.
    fn check_row_locks(&self, ws: &ShardWriteSet<'_>, rowids: &[u64], id: u64) -> Result<(), Stop> {
        for &rowid in rowids {
            if let Some(owner) = ws.owner(rowid) {
                if owner != id && self.txns.is_open(owner) {
                    return Err(Stop::Blocked(owner));
                }
            }
        }
        Ok(())
    }

    fn exec_update_batch(
        &self,
        stmts: &[Update],
        guard: &[String],
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, EngineError> {
        let Some(first) = stmts.first() else {
            self.log_record(&[], meta, 0).map_err(LogError::into_err)?;
            return Ok(QueryResult::Affected(0));
        };
        if stmts
            .iter()
            .any(|u| !u.table.eq_ignore_ascii_case(&first.table))
        {
            return Err(EngineError::Unsupported(
                "an onion adjustment rewrites a single table".into(),
            ));
        }
        let handle = self.table_handle(&first.table)?;
        let udfs = self.udfs.read();
        let ctx = Ctx { udfs: &udfs };
        // The batch scans while it mutates, so it write-locks every
        // shard (ascending) for its whole duration — the sharded
        // equivalent of the old single table write lock.
        let table = handle.read();
        let schema = RowSchema::for_table(&table, Some(&first.table));
        let mut ws = table.lock_all_shards_write();
        // Every shard is held, so no transaction's write to this table
        // is half-recorded while its undo log is read here.
        let written: Vec<usize> = guard
            .iter()
            .map(String::as_str)
            .chain(
                stmts
                    .iter()
                    .flat_map(|u| u.sets.iter().map(|(c, _)| c.as_str())),
            )
            .filter_map(|c| table.column_position(c))
            .collect();
        if self.txns.wrote_any(&first.table, &written) {
            return Err(EngineError::Conflict(format!(
                "an open transaction wrote a column of {} that this onion adjustment re-encrypts",
                first.table
            )));
        }
        let mut count = 0;
        let mut ops: Vec<WalOp> = Vec::new();
        let mut undo_cells: Vec<(u64, usize, Value)> = Vec::new();
        let mut failure: Option<EngineError> = None;
        'stmts: for upd in stmts {
            let sets: Vec<(usize, &cryptdb_sqlparser::Expr)> = match upd
                .sets
                .iter()
                .map(|(c, e)| {
                    table
                        .column_position(c)
                        .map(|p| (p, e))
                        .ok_or_else(|| EngineError::ColumnNotFound(c.clone()))
                })
                .collect::<Result<_, _>>()
            {
                Ok(s) => s,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            // The scan borrows a view from the held write guards; no
            // re-check is needed because the guards never drop.
            let rowids = {
                let view = ws.as_view();
                match self.matching_rowids(&view, &schema, upd.selection.as_ref(), &ctx) {
                    Ok(r) => r,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            };
            for rowid in rowids {
                let row = ws.row(rowid).expect("rowid from scan").clone();
                let mut new_values = Vec::with_capacity(sets.len());
                for (pos, e) in &sets {
                    match exec::eval(e, &schema, &row, &ctx) {
                        Ok(v) => new_values.push((*pos, v)),
                        Err(e) => {
                            failure = Some(e);
                            break 'stmts;
                        }
                    }
                }
                for (pos, v) in new_values {
                    undo_cells.push((rowid, pos, row[pos].clone()));
                    ops.push(WalOp::UpdateCell {
                        table: upd.table.clone(),
                        rowid,
                        col: pos as u32,
                        value: v.clone(),
                    });
                    ws.update_cell(rowid, pos, v);
                }
                count += 1;
            }
        }
        // One record for the whole batch; on failure the meta is
        // withheld so recovery cannot observe the caller's schema flip.
        let logged = if failure.is_none() {
            self.log_record(&ops, meta, 0)
        } else {
            self.log_record(&ops, None, 0)
        };
        if let Err(fail) = logged {
            return Err(self.fail_logged(fail, || {
                for (rowid, pos, old) in undo_cells.into_iter().rev() {
                    ws.update_cell(rowid, pos, old);
                }
            }));
        }
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(QueryResult::Affected(count))
    }

    fn delete(
        &self,
        txn: Option<&OpenTxn>,
        del: &Delete,
        meta: Option<&[u8]>,
    ) -> Result<QueryResult, Stop> {
        let id = txn_id(txn);
        let handle = self.table_handle(&del.table)?;
        let udfs = self.udfs.read();
        let ctx = Ctx { udfs: &udfs };
        // Same two-phase shape as `update`: scan under an all-shard read
        // view, then write-lock only the touched shards and re-check.
        let table = handle.read();
        let schema = RowSchema::for_table(&table, Some(&del.table));
        let rowids = {
            let view = table.read_view();
            self.matching_rowids(&view, &schema, del.selection.as_ref(), &ctx)?
        };
        let mut ws = table.lock_shards(rowids.iter().copied());
        self.check_row_locks(&ws, &rowids, id)?;
        let mut count = 0;
        let mut ops: Vec<WalOp> = Vec::new();
        let mut deleted: Vec<(u64, Vec<Value>)> = Vec::new();
        let mut locked: Vec<u64> = Vec::new();
        let mut failure: Option<EngineError> = None;
        for rowid in rowids {
            let Some(row) = ws.row(rowid).cloned() else {
                continue;
            };
            if let Some(sel) = del.selection.as_ref() {
                match exec::eval(sel, &schema, &row, &ctx) {
                    Ok(v) if v.is_truthy() => {}
                    Ok(_) => continue,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            ws.delete(rowid);
            if id != 0 && ws.lock_row(rowid, id) {
                locked.push(rowid);
            }
            deleted.push((rowid, row));
            ops.push(WalOp::DeleteRow {
                table: del.table.clone(),
                rowid,
            });
            count += 1;
        }
        let logged = self.log_record(&ops, meta, id);
        if let Err(LogError::Clean(e)) = logged {
            for (rowid, row) in deleted.into_iter().rev() {
                ws.insert_row(rowid, row);
            }
            for rowid in locked {
                ws.unlock_row(rowid);
            }
            return Err(e.into());
        }
        retain(
            txn,
            !ops.is_empty() || meta.is_some(),
            deleted.into_iter().map(|(rowid, row)| Undo::Deleted {
                table: del.table.clone(),
                rowid,
                row,
            }),
        );
        logged.map_err(LogError::into_err)?;
        if let Some(e) = failure {
            return Err(e.into());
        }
        Ok(QueryResult::Affected(count))
    }

    // ---- durability ----

    /// Appends one record (transaction id + ops + optional meta) to the
    /// attached WAL. No-op without a WAL; must be called while still
    /// holding the lock that serialized the ops. A failure flips the
    /// engine into degraded read-only mode; the next success flips it
    /// back.
    fn log_record(&self, ops: &[WalOp], meta: Option<&[u8]>, txn: u64) -> Result<(), LogError> {
        if ops.is_empty() && meta.is_none() {
            return Ok(());
        }
        // No WAL attached: skip the mutex so shard-parallel writers
        // don't serialize on it for nothing.
        if !self.wal_attached.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut guard = self.wal.lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let payload = wal_store::encode_record(txn, ops, meta);
        match state.wal.append(&payload) {
            Ok(_) => {
                if let Some(m) = meta {
                    state.last_meta = Some(m.to_vec());
                }
                // An append going through means the disk works again;
                // leave degraded mode without any operator action.
                self.degraded.store(false, Ordering::Relaxed);
                Ok(())
            }
            Err(e @ WalError::Unsynced { .. }) => {
                // The record is on disk (maybe durable): keep memory ==
                // log and withhold only the acknowledgement, exactly as
                // the single-file WAL's sync-kill path always behaved.
                self.note_append_failure();
                if let Some(m) = meta {
                    state.last_meta = Some(m.to_vec());
                }
                Err(LogError::Durable(EngineError::Degraded(e.to_string())))
            }
            Err(e) => {
                // Nothing reached the log: the caller undoes the
                // in-memory effects so the statement had no effect at
                // all.
                self.note_append_failure();
                Err(LogError::Clean(EngineError::Degraded(e.to_string())))
            }
        }
    }

    fn note_append_failure(&self) {
        self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Converts a failed [`Engine::log_record`] into the error to
    /// surface, running `undo` only when the record never reached the
    /// log — so memory equals log on both failure classes.
    fn fail_logged(&self, fail: LogError, undo: impl FnOnce()) -> EngineError {
        if matches!(fail, LogError::Clean(_)) {
            undo();
        }
        fail.into_err()
    }

    /// True while the engine is shedding writes because WAL appends
    /// fail. Reads are unaffected.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Durability counters plus the attached WAL's segment stats (all
    /// zero without a WAL).
    pub fn durability_stats(&self) -> DurabilityStats {
        let wal_stats = self
            .wal
            .lock()
            .as_ref()
            .map(|s| s.wal.stats())
            .unwrap_or_default();
        DurabilityStats {
            degraded: self.degraded.load(Ordering::Relaxed),
            wal_append_failures: self.wal_append_failures.load(Ordering::Relaxed),
            degraded_entries: self.degraded_entries.load(Ordering::Relaxed),
            snapshot_failures: self.snapshot_failures.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
            wal_segments: wal_stats.segments,
            wal_disk_bytes: wal_stats.disk_bytes,
            snapshot_epoch: wal_stats.snapshot_epoch,
            last_seq: wal_stats.last_seq,
        }
    }

    /// Raw counters of the attached WAL (all zero without one): segment
    /// chain size, rotation and retention-deletion totals.
    pub fn wal_stats(&self) -> WalStats {
        self.wal
            .lock()
            .as_ref()
            .map(|s| s.wal.stats())
            .unwrap_or_default()
    }

    /// Attaches a WAL to a fresh engine. The directory must not hold an
    /// existing log or snapshot (use [`Engine::recover`] for those);
    /// everything executed from here on is logged.
    pub fn attach_wal(&self, dir: &Path, cfg: WalConfig) -> Result<(), EngineError> {
        let snapshot_every = cfg.snapshot_every;
        let (wal, recovered) = Wal::open(dir, &cfg)?;
        if !recovered.records.is_empty() || recovered.snapshot.is_some() {
            return Err(EngineError::Wal(
                "directory holds an existing log; use Engine::recover".into(),
            ));
        }
        let mut guard = self.wal.lock();
        if guard.is_some() {
            return Err(EngineError::Wal("a WAL is already attached".into()));
        }
        *guard = Some(WalState {
            wal,
            snapshot_every,
            last_meta: None,
        });
        self.wal_attached.store(true, Ordering::Release);
        Ok(())
    }

    /// Rebuilds an engine from `dir`: restores the last complete
    /// snapshot (if valid), replays the log suffix past its epoch, and
    /// leaves the WAL attached so the engine resumes appending. Works on
    /// a fresh directory too (empty recovery). A transaction left open
    /// at the crash point is rolled back — no session survives a
    /// restart to finish it. Replay rebuilds its undo log from the
    /// before-images of the records it wrote, and the rollback is logged
    /// before this returns, so a second crash cannot undo later writes.
    pub fn recover(dir: &Path, cfg: WalConfig) -> Result<(Engine, EngineRecovery), EngineError> {
        let snapshot_every = cfg.snapshot_every;
        let (wal, recovered) = Wal::open(dir, &cfg)?;
        let engine = Engine::new();
        let mut report = recovered.report;
        let mut last_meta: Option<Vec<u8>> = None;
        let mut epoch = 0u64;
        if let Some(snap) = &recovered.snapshot {
            let (tables, meta) = wal_store::decode_snapshot(&snap.payload)?;
            let mut catalog = engine.catalog.write();
            for t in tables {
                catalog.insert(t.name().to_lowercase(), Arc::new(RwLock::new(t)));
            }
            last_meta = meta;
            epoch = snap.epoch;
        }
        let mut applied = 0u64;
        // Transactions with records but no COMMIT/ROLLBACK yet, by id.
        let mut open: BTreeMap<u64, OpenTxn> = BTreeMap::new();
        for (seq, payload) in &recovered.records {
            if *seq <= epoch {
                continue;
            }
            let (txn, ops, meta) = wal_store::decode_record(payload)?;
            engine.txns.reserve(txn);
            let ends = ops
                .iter()
                .any(|op| matches!(op, WalOp::Commit | WalOp::Rollback));
            let capture = txn != 0 && !ends;
            for op in &ops {
                let undo = engine.apply_op(op, capture)?;
                if capture {
                    let t = open.entry(txn).or_insert_with(|| OpenTxn::new(txn));
                    let mut log = t.log.lock();
                    log.logged = true;
                    log.undo.extend(undo);
                }
            }
            if ends {
                open.remove(&txn);
            }
            if let Some(m) = meta {
                last_meta = Some(m);
            }
            applied += 1;
        }
        report.records_applied = applied;
        *engine.wal.lock() = Some(WalState {
            wal,
            snapshot_every,
            last_meta: last_meta.clone(),
        });
        engine.wal_attached.store(true, Ordering::Release);
        for t in open.values() {
            engine.undo_txn(t, None).map_err(LogError::into_err)?;
        }
        Ok((
            engine,
            EngineRecovery {
                report,
                meta: last_meta,
            },
        ))
    }

    /// Sequence number of the last record appended to the WAL (0 with no
    /// WAL attached or nothing logged yet). The kill-and-recover harness
    /// samples this after each acknowledged statement to compute the
    /// oracle prefix.
    pub fn wal_seq(&self) -> u64 {
        self.wal.lock().as_ref().map(|s| s.wal.seq()).unwrap_or(0)
    }

    /// Current WAL file length in bytes (kill-point selection).
    pub fn wal_len(&self) -> u64 {
        self.wal
            .lock()
            .as_ref()
            .map(|s| s.wal.log_len())
            .unwrap_or(0)
    }

    /// True if a WAL is attached.
    pub fn has_wal(&self) -> bool {
        self.wal.lock().is_some()
    }

    /// True if `meta` is the meta of the last record that reached the
    /// log, counting one whose fsync failed (recovery may replay it).
    /// False without a WAL.
    pub fn meta_reached_log(&self, meta: &[u8]) -> bool {
        self.wal
            .lock()
            .as_ref()
            .is_some_and(|s| s.last_meta.as_deref() == Some(meta))
    }

    /// Forces an fsync of the WAL (group-commit barrier for the
    /// `EveryN`/`Never` policies).
    pub fn wal_sync(&self) -> Result<(), EngineError> {
        if let Some(state) = self.wal.lock().as_ref() {
            state.wal.sync()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the full engine state (ciphertext only) at
    /// the current WAL watermark. Returns the epoch, or `None` when no
    /// WAL is attached or an open transaction has written (the snapshot
    /// would hold writes no later record lets replay undo; the next
    /// attempt after `COMMIT`/`ROLLBACK` succeeds). Once the snapshot
    /// is durable, WAL segments wholly below its epoch are deleted per
    /// the configured retention, bounding the on-disk log and the
    /// recovery replay.
    pub fn snapshot_now(&self) -> Result<Option<u64>, EngineError> {
        // The catalog write lock stops new statements from acquiring
        // table handles; taking every table's schema write lock then
        // waits out statements already past the catalog (a writer holds
        // its table's schema lock shared, plus shard write locks, while
        // mutating + logging — the schema write lock excludes both).
        let catalog = self.catalog.write();
        let mut handles: Vec<Arc<RwLock<Table>>> = catalog.values().cloned().collect();
        handles.sort_by_key(|h| Arc::as_ptr(h) as usize);
        let guards: Vec<_> = handles.iter().map(|h| h.write()).collect();
        // Checked once every statement in flight has finished: a
        // transaction's writes and undo log change only inside one.
        if self.txns.any_logged() {
            return Ok(None);
        }
        let find = |h: &Arc<RwLock<Table>>| {
            handles
                .iter()
                .position(|u| Arc::ptr_eq(u, h))
                .expect("handle present")
        };
        let mut wal_guard = self.wal.lock();
        let Some(state) = wal_guard.as_mut() else {
            return Ok(None);
        };
        let named: Vec<(&str, &Table)> = catalog
            .iter()
            .map(|(k, h)| (k.as_str(), &*guards[find(h)]))
            .collect();
        let payload = wal_store::encode_snapshot(&named, state.last_meta.as_deref());
        let epoch = state.wal.write_snapshot(&payload)?;
        Ok(Some(epoch))
    }

    /// True when the configured `snapshot_every` interval has elapsed.
    fn snapshot_due(&self) -> bool {
        let guard = self.wal.lock();
        match guard.as_ref() {
            Some(s) => match s.snapshot_every {
                Some(n) if n > 0 => s.wal.records_since_snapshot() >= n,
                _ => false,
            },
            None => false,
        }
    }

    /// Runs a snapshot when the configured `snapshot_every` interval has
    /// elapsed. Called after every statement, outside its locks. A
    /// failure is counted, logged and backed off (retrying on every
    /// following statement would hammer a sick disk); the background
    /// cadence ([`Engine::autosnapshot_tick`]) retries regardless, so a
    /// transient failure never silently stops snapshotting.
    fn maybe_autosnapshot(&self) {
        if !self.snapshot_due() {
            return;
        }
        let seq = self.wal_seq();
        if seq < self.snapshot_retry_floor.load(Ordering::Relaxed) {
            return;
        }
        self.run_due_snapshot(seq);
    }

    /// One tick of the background snapshot cadence: runs a snapshot if
    /// the configured interval is due, ignoring the statement-path
    /// retry backoff (this *is* the retry path). Returns whether a
    /// snapshot was attempted. Failures are counted in
    /// [`DurabilityStats::snapshot_failures`], never swallowed.
    pub fn autosnapshot_tick(&self) -> bool {
        if !self.snapshot_due() {
            return false;
        }
        self.run_due_snapshot(self.wal_seq());
        true
    }

    fn run_due_snapshot(&self, seq: u64) {
        match self.snapshot_now() {
            Ok(Some(_)) => {
                self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
            }
            // A transaction has written: not a failure, the next
            // attempt after COMMIT/ROLLBACK takes it.
            Ok(None) => {}
            Err(e) => {
                let n = self.snapshot_failures.fetch_add(1, Ordering::Relaxed) + 1;
                self.snapshot_retry_floor
                    .store(seq + SNAPSHOT_RETRY_BACKOFF, Ordering::Relaxed);
                eprintln!("cryptdb-engine: auto-snapshot failed ({n} failures total): {e}");
            }
        }
    }

    /// Applies one replayed op. Physical and rowid-keyed, so replay
    /// reproduces the original run exactly; updates/deletes on missing
    /// rowids are no-ops (mirroring the live mutation paths). With
    /// `capture`, returns the op's inverse for the transaction that
    /// logged it.
    fn apply_op(&self, op: &WalOp, capture: bool) -> Result<Option<Undo>, EngineError> {
        Ok(match op {
            WalOp::CreateTable { name, columns } => {
                let key = name.to_lowercase();
                let mut catalog = self.catalog.write();
                if catalog.contains_key(&key) {
                    return Err(EngineError::Wal(format!(
                        "replay: table {name} already exists"
                    )));
                }
                catalog.insert(
                    key,
                    Arc::new(RwLock::new(Table::new(name, columns.clone()))),
                );
                Some(Undo::Created {
                    table: name.clone(),
                })
            }
            WalOp::CreateIndex { table, column } => {
                let handle = self.table_handle(table)?;
                let guard = handle.write();
                let existed = guard
                    .column_position(column)
                    .is_some_and(|c| guard.has_index(c));
                guard.create_index(column)?;
                (!existed).then(|| Undo::Indexed {
                    table: table.clone(),
                    column: column.clone(),
                })
            }
            WalOp::DropIndex { table, column } => {
                self.table_handle(table)?.write().drop_index(column);
                None
            }
            WalOp::DropTable { name } => {
                let Some(handle) = self.catalog.write().remove(&name.to_lowercase()) else {
                    return Err(EngineError::Wal(format!("replay: no table {name} to drop")));
                };
                Some(Undo::Dropped {
                    table: name.clone(),
                    handle,
                })
            }
            WalOp::InsertRow { table, rowid, row } => {
                self.table_handle(table)?
                    .write()
                    .insert_with_rowid(*rowid, row.clone());
                Some(Undo::Inserted {
                    table: table.clone(),
                    rowid: *rowid,
                })
            }
            WalOp::UpdateCell {
                table,
                rowid,
                col,
                value,
            } => {
                let handle = self.table_handle(table)?;
                let guard = handle.write();
                let col = *col as usize;
                let old = if capture {
                    guard.row(*rowid).map(|mut r| r.swap_remove(col))
                } else {
                    None
                };
                guard.update_cell(*rowid, col, value.clone());
                old.map(|old| Undo::Updated {
                    table: table.clone(),
                    rowid: *rowid,
                    col,
                    old,
                })
            }
            WalOp::DeleteRow { table, rowid } => {
                let handle = self.table_handle(table)?;
                let guard = handle.write();
                let old = if capture { guard.row(*rowid) } else { None };
                guard.delete(*rowid);
                old.map(|row| Undo::Deleted {
                    table: table.clone(),
                    rowid: *rowid,
                    row,
                })
            }
            WalOp::Commit | WalOp::Rollback => None,
        })
    }

    /// Rowids matching a predicate (used by UPDATE/DELETE), evaluated
    /// over a consistent all-shard view, index-assisted.
    fn matching_rowids(
        &self,
        view: &TableView<'_>,
        schema: &RowSchema,
        selection: Option<&cryptdb_sqlparser::Expr>,
        ctx: &Ctx<'_>,
    ) -> Result<Vec<u64>, EngineError> {
        let mut out = Vec::new();
        match selection {
            None => out.extend(view.iter().map(|(id, _)| id)),
            Some(sel) => {
                let filters = exec::split_and(sel);
                let candidates = exec::index_candidates(view, schema, &filters);
                match candidates {
                    Some(ids) => {
                        for id in ids {
                            if let Some(row) = view.row(id) {
                                if exec::eval(sel, schema, row, ctx)?.is_truthy() {
                                    out.push(id);
                                }
                            }
                        }
                    }
                    None => {
                        for (id, row) in view.iter() {
                            if exec::eval(sel, schema, row, ctx)?.is_truthy() {
                                out.push(id);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Appends the WAL ops that undo `u`.
fn compensate(u: &Undo, ops: &mut Vec<WalOp>) {
    match u {
        Undo::Inserted { table, rowid } => ops.push(WalOp::DeleteRow {
            table: table.clone(),
            rowid: *rowid,
        }),
        Undo::Updated {
            table,
            rowid,
            col,
            old,
        } => ops.push(WalOp::UpdateCell {
            table: table.clone(),
            rowid: *rowid,
            col: *col as u32,
            value: old.clone(),
        }),
        Undo::Deleted { table, rowid, row } => ops.push(WalOp::InsertRow {
            table: table.clone(),
            rowid: *rowid,
            row: row.clone(),
        }),
        Undo::Created { table } => ops.push(WalOp::DropTable {
            name: table.clone(),
        }),
        Undo::Dropped { handle, .. } => {
            // The dropped table comes back whole: schema, indexes, rows.
            let t = handle.read();
            ops.push(WalOp::CreateTable {
                name: t.name().to_string(),
                columns: t.columns().to_vec(),
            });
            let view = t.read_view();
            for col in view.indexed_columns() {
                ops.push(WalOp::CreateIndex {
                    table: t.name().to_string(),
                    column: t.columns()[col].name.clone(),
                });
            }
            for (rowid, row) in view.iter() {
                ops.push(WalOp::InsertRow {
                    table: t.name().to_string(),
                    rowid,
                    row: row.clone(),
                });
            }
        }
        Undo::Indexed { table, column } => ops.push(WalOp::DropIndex {
            table: table.clone(),
            column: column.clone(),
        }),
    }
}

/// Undoes `u` in memory, under the catalog lock [`Engine::undo_txn`]
/// holds.
fn apply_undo(catalog: &mut HashMap<String, Arc<RwLock<Table>>>, u: &Undo) {
    let handle = |table: &str| catalog.get(&table.to_lowercase()).cloned();
    match u {
        Undo::Inserted { table, rowid } => {
            if let Some(h) = handle(table) {
                h.read().lock_shards([*rowid]).delete(*rowid);
            }
        }
        Undo::Updated {
            table,
            rowid,
            col,
            old,
        } => {
            if let Some(h) = handle(table) {
                h.read()
                    .lock_shards([*rowid])
                    .update_cell(*rowid, *col, old.clone());
            }
        }
        Undo::Deleted { table, rowid, row } => {
            if let Some(h) = handle(table) {
                h.read()
                    .lock_shards([*rowid])
                    .insert_row(*rowid, row.clone());
            }
        }
        Undo::Created { table } => {
            catalog.remove(&table.to_lowercase());
        }
        Undo::Dropped { table, handle } => {
            catalog.insert(table.to_lowercase(), handle.clone());
        }
        Undo::Indexed { table, column } => {
            if let Some(h) = handle(table) {
                h.write().drop_index(column);
            }
        }
    }
}
