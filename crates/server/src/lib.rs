//! Concurrent multi-session serving layer over the CryptDB proxy.
//!
//! The paper's headline claim is modest overhead for a proxy serving a
//! *live* multi-user workload (≤30% on TPC-C with many client
//! connections, §8.4.1); `Proxy::execute` is `&self` over sharded
//! read-write state precisely so sessions can proceed in parallel. This
//! crate supplies the missing serving layer:
//!
//! * [`StatementSession`] is the core primitive: a *chain of
//!   per-statement jobs* on the proxy's crypto [`WorkerPool`] (normal
//!   lane — blinding-pool refills keep their priority-lane advantage
//!   even under full session load). Statements are pushed one at a time
//!   (a batch upfront or streamed from a socket); each job executes one
//!   statement, invokes its responder, and re-enqueues the session's
//!   next statement. Per-session order is preserved (the next statement
//!   only runs after the current one's responder returns) while sessions
//!   interleave at statement granularity — no session can monopolise a
//!   worker. A statement decrypts its own result on the worker that runs
//!   it, so no session job ever blocks on another pool job. Each session
//!   owns one transaction handle ([`Txn`]): its `BEGIN` … `COMMIT` is its
//!   own, and closing the session rolls back a transaction it left open.
//! * [`Server`] fans N pre-recorded session traces out over shared
//!   [`StatementSession`] chains and aggregates a [`ServingReport`] of
//!   per-session statement and error counts. The `cryptdb-net` wire
//!   front-end drives the same [`StatementSession`] machinery from live
//!   TCP connections instead of pre-recorded traces. Throughput is
//!   measured end to end through that front-end by `BENCHMARK.json`'s
//!   harness; `tests/same_table.rs` times `serve` itself for the
//!   4-vs-1-session scaling bar.
//!
//! Correctness under concurrency is checked against a **serial
//! oracle**: [`replay_serial`] runs the same per-session traces
//! sequentially on a fresh proxy, and [`canonical_dump`] produces an
//! order-insensitive decrypted dump of every proxy-managed table —
//! byte-identical dumps mean the interleaved execution preserved the
//! semantics of the serial one (the traces in `cryptdb_apps::mixed` are
//! commutative across sessions by construction, so any divergence is a
//! real isolation bug, not schedule noise).
//!
//! [`WorkerPool`]: cryptdb_runtime::WorkerPool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cryptdb_core::proxy::{Param, PreparedStatement, Proxy, ProxyConfig};
use cryptdb_core::ProxyError;
use cryptdb_engine::{EngineRecovery, QueryResult, Txn, WalConfig};
use cryptdb_runtime::{CancelToken, WorkerPool};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// Durable-serving configuration: the directory holding the ciphertext
/// WAL segments (`wal-<first_seq>.log`) and snapshots (`snapshot.bin`),
/// plus the WAL knobs (fsync policy, segment/rotation bounds,
/// snapshot-anchored retention, auto-snapshot interval, fault injection
/// for tests).
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory for the log and snapshot files (created if missing).
    pub dir: PathBuf,
    /// Fsync/snapshot/fault-injection knobs.
    pub wal: WalConfig,
}

impl PersistConfig {
    /// Default WAL knobs (fsync every record) over `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            wal: WalConfig::default(),
        }
    }
}

/// Opens (or recovers) a durable proxy over `persist.dir`: an empty
/// directory starts fresh with a WAL attached; a directory holding a
/// previous run's log/snapshot replays it first. The returned
/// [`EngineRecovery`] reports what replay found (torn tail, corruption,
/// snapshot epoch); serving resumes from exactly the acknowledged
/// prefix of the previous run.
pub fn open_persistent(
    persist: &PersistConfig,
    mk: [u8; 32],
    config: ProxyConfig,
) -> Result<(Arc<Proxy>, EngineRecovery), ProxyError> {
    let (proxy, recovery) = Proxy::open_persistent(&persist.dir, mk, config, persist.wal.clone())?;
    Ok((Arc::new(proxy), recovery))
}

/// One client session: a named, ordered statement trace.
#[derive(Clone, Debug)]
pub struct SessionTrace {
    /// Session name (stable sort key in reports).
    pub name: String,
    /// The session's statements, in execution order.
    pub statements: Vec<String>,
}

impl SessionTrace {
    /// Creates a named trace from a statement list.
    pub fn new(name: impl Into<String>, statements: Vec<String>) -> Self {
        SessionTrace {
            name: name.into(),
            statements,
        }
    }
}

/// Outcome counts for one served session.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// The session's name (from its [`SessionTrace`]).
    pub name: String,
    /// Statements executed.
    pub queries: usize,
    /// Statements that returned an error (the session keeps going; the
    /// harness traces are expected to be error-free and assert on this).
    pub errors: usize,
}

/// Aggregate result of one [`Server::serve`] run.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Per-session summaries, sorted by session name.
    pub sessions: Vec<SessionStats>,
    /// Total statements across sessions.
    pub queries: usize,
    /// Total errored statements across sessions.
    pub errors: usize,
}

/// Percentile over an ascending-sorted sample by rounded linear index
/// (`sorted[round(p · (N−1))]`; 0 when empty). Note this is *not* the
/// textbook nearest-rank estimator (`sorted[ceil(p · N) − 1]`) — e.g.
/// p50 of `[1, 2, 3, 4]` is 3 here, 2 by nearest rank. It is the one
/// estimator every latency figure in the repo uses (the benches and the
/// latency-ratio tests), exported so they cannot drift apart.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Callback invoked with a statement's result and its service time
/// (execution only, queue wait excluded), in submission order.
pub type Responder = Box<dyn FnOnce(Result<QueryResult, ProxyError>, u64) + Send>;

/// An ordered closure run against the session's proxy and transaction
/// handle (see [`StatementSession::submit_job`]).
pub type SessionJob = Box<dyn FnOnce(&Arc<Proxy>, &Txn) + Send>;

/// One queued unit of per-session work, executed in submission order.
enum Entry {
    /// An ordinary statement, optionally with an execution deadline: if
    /// the deadline has passed when the chain pops the entry, the
    /// statement is *not* executed and its responder gets
    /// [`ProxyError::Canceled`] instead (statements already executing
    /// are never interrupted — cancellation is queue-time only).
    Stmt {
        sql: String,
        deadline: Option<Instant>,
        respond: Responder,
    },
    /// A pre-decided error (admission shed): the responder receives it
    /// in order, after every earlier statement's responder — so an
    /// overloaded pipelined client sees the rejection exactly where the
    /// statement would have answered.
    Reject {
        error: ProxyError,
        respond: Responder,
    },
    /// An arbitrary ordered job against the proxy (the extended-protocol
    /// front-end runs Parse/Bind/Execute bookkeeping here so it
    /// serialises with the session's simple statements).
    Job(SessionJob),
}

struct SessionQueue {
    pending: VecDeque<Entry>,
    /// True while an `advance` job for this session is queued or running.
    running: bool,
    closed: bool,
}

struct SessionInner {
    proxy: Arc<Proxy>,
    /// The session's transaction handle: every statement runs in it.
    txn: Txn,
    pool: WorkerPool,
    /// `std` mutex (not `parking_lot`) so it can pair with [`Self::idle`]
    /// for [`StatementSession::wait_idle`].
    queue: std::sync::Mutex<SessionQueue>,
    /// Notified whenever the chain goes idle (`running` flips false).
    idle: std::sync::Condvar,
    /// Cancelled on [`StatementSession::close`]: a chain job still queued
    /// on the pool is then abandoned at pop time instead of locking a
    /// dead queue — under a connection-flood teardown this keeps dead
    /// sessions from burning worker slots.
    cancel: CancelToken,
}

impl Drop for SessionInner {
    /// The last reference goes once the session is dropped and no chain
    /// job is left: roll back the transaction it left open.
    fn drop(&mut self) {
        let _ = self.proxy.end_session(&self.txn);
    }
}

impl SessionInner {
    /// Schedules one chain job, abandonable if the session closes while
    /// it is still queued. The abandon path must restore the idle
    /// invariant (`running` false + waiters notified) because the job it
    /// replaces would have.
    fn schedule(self: &Arc<Self>) {
        let inner = self.clone();
        let abandoned = self.clone();
        self.pool.execute_cancellable(
            &self.cancel,
            move || inner.advance(),
            move || {
                let mut q = abandoned.queue.lock().unwrap();
                q.pending.clear();
                q.running = false;
                abandoned.idle.notify_all();
            },
        );
    }
}

/// Unwind guard for [`SessionInner::advance`]: if a responder panics
/// (the pool contains the panic per job, so nothing would ever reset
/// the chain), poison the session — drop the queued tail, mark it
/// closed, flip `running` off and wake [`StatementSession::wait_idle`]
/// waiters — instead of leaving them blocked forever.
struct ChainPoison<'a> {
    inner: &'a SessionInner,
}

impl Drop for ChainPoison<'_> {
    fn drop(&mut self) {
        let mut q = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        q.closed = true;
        q.pending.clear();
        q.running = false;
        self.inner.idle.notify_all();
    }
}

impl SessionInner {
    /// One chained job: execute exactly one statement, respond, then
    /// re-enqueue the chain if more statements are pending. Running a
    /// single statement per pool job is what lets sessions interleave at
    /// statement granularity instead of monopolising a worker.
    fn advance(self: Arc<Self>) {
        let entry = {
            let mut q = self.queue.lock().unwrap();
            match q.pending.pop_front() {
                Some(job) => job,
                None => {
                    q.running = false;
                    self.idle.notify_all();
                    return;
                }
            }
        };
        // From here to the defuse below, an unwind must not leave
        // `running` stuck true (wait_idle would block forever — and the
        // wire front-end joins its reader threads through it).
        let poison = ChainPoison { inner: &self };
        match entry {
            Entry::Reject { error, respond } => respond(Err(error), 0),
            Entry::Job(job) => job(&self.proxy, &self.txn),
            Entry::Stmt {
                deadline: Some(d),
                respond,
                ..
            } if Instant::now() >= d => respond(
                Err(ProxyError::Canceled(
                    "statement deadline expired before execution".into(),
                )),
                0,
            ),
            Entry::Stmt { sql, respond, .. } => {
                let t0 = Instant::now();
                // A panic inside statement execution becomes an ordinary
                // error result: the responder still runs (a wire client
                // gets an ErrorResponse instead of silence) and the
                // chain survives.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.proxy.execute_in(&self.txn, &sql)
                }))
                .unwrap_or_else(|_| Err(ProxyError::Crypto("statement execution panicked".into())));
                respond(result, t0.elapsed().as_nanos() as u64);
            }
        }
        std::mem::forget(poison);
        let again = {
            let mut q = self.queue.lock().unwrap();
            if q.pending.is_empty() {
                q.running = false;
                self.idle.notify_all();
                false
            } else {
                true
            }
        };
        if again {
            self.schedule();
        }
    }
}

/// A streaming client session: statements pushed via [`submit`] execute
/// as chained single-statement jobs on the proxy's worker pool, with
/// responders invoked in submission order.
///
/// This is the serving layer's core machinery: [`Server::serve`] drives
/// it from pre-recorded traces, and the `cryptdb-net` wire front-end
/// drives it from live socket reads. The chain owns `Arc` clones of the
/// proxy and pool, so dropping the `StatementSession` handle does *not*
/// cancel in-flight statements — use [`close`] for that.
///
/// [`submit`]: StatementSession::submit
/// [`close`]: StatementSession::close
pub struct StatementSession {
    inner: Arc<SessionInner>,
}

impl StatementSession {
    /// Opens a session executing on `proxy`'s own runtime pool.
    pub fn new(proxy: Arc<Proxy>) -> Self {
        let pool = proxy.runtime().clone();
        StatementSession {
            inner: Arc::new(SessionInner {
                proxy,
                txn: Txn::new(),
                pool,
                queue: std::sync::Mutex::new(SessionQueue {
                    pending: VecDeque::new(),
                    running: false,
                    closed: false,
                }),
                idle: std::sync::Condvar::new(),
                cancel: CancelToken::new(),
            }),
        }
    }

    /// The proxy this session executes against.
    pub fn proxy(&self) -> &Arc<Proxy> {
        &self.inner.proxy
    }

    /// Enqueues one statement. `respond` runs on a pool worker with the
    /// statement's result and service time, strictly after every
    /// earlier statement's responder and strictly before every later
    /// one's. After [`close`], submissions are silently dropped.
    ///
    /// [`close`]: StatementSession::close
    pub fn submit(
        &self,
        sql: String,
        respond: impl FnOnce(Result<QueryResult, ProxyError>, u64) + Send + 'static,
    ) {
        self.submit_with_deadline(sql, None, respond);
    }

    /// Like [`submit`], but the statement is abandoned (responder gets
    /// [`ProxyError::Canceled`]) if `deadline` passes while it is still
    /// waiting in the session queue. A statement that begins executing
    /// before the deadline always runs to completion — the deadline
    /// bounds *queue wait*, which is the quantity that grows without
    /// bound under overload, not execution.
    ///
    /// [`submit`]: StatementSession::submit
    pub fn submit_with_deadline(
        &self,
        sql: String,
        deadline: Option<Instant>,
        respond: impl FnOnce(Result<QueryResult, ProxyError>, u64) + Send + 'static,
    ) {
        self.push(Entry::Stmt {
            sql,
            deadline,
            respond: Box::new(respond),
        });
    }

    /// Enqueues a pre-decided error in statement order: the responder
    /// receives `error` strictly after every earlier statement's
    /// responder. The serving edge uses this to shed a statement at
    /// admission time (in-flight budget exhausted) while keeping the
    /// pipelined response stream in order.
    pub fn submit_reject(
        &self,
        error: ProxyError,
        respond: impl FnOnce(Result<QueryResult, ProxyError>, u64) + Send + 'static,
    ) {
        self.push(Entry::Reject {
            error,
            respond: Box::new(respond),
        });
    }

    /// Enqueues an arbitrary job in statement order: `job` runs on a
    /// pool worker with the session's proxy and transaction handle,
    /// strictly after every
    /// earlier entry and strictly before every later one. The extended
    /// wire protocol (Parse/Bind/Describe/Execute) rides this so its
    /// per-connection statement bookkeeping interleaves correctly with
    /// simple `Q` statements on the same connection. A panicking job
    /// poisons the session like a panicking responder.
    pub fn submit_job(&self, job: impl FnOnce(&Arc<Proxy>, &Txn) + Send + 'static) {
        self.push(Entry::Job(Box::new(job)));
    }

    /// Enqueues one prepared-statement execution with `params` bound
    /// positionally, ordered like [`submit`]: the responder runs with
    /// the result and service time after every earlier entry's
    /// responder. A panic during execution becomes an ordinary error
    /// result, as on the simple path.
    ///
    /// [`submit`]: StatementSession::submit
    pub fn submit_prepared(
        &self,
        ps: PreparedStatement,
        params: Vec<Param>,
        respond: impl FnOnce(Result<QueryResult, ProxyError>, u64) + Send + 'static,
    ) {
        self.submit_job(move |proxy, txn| {
            let t0 = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                proxy.execute_prepared_in(txn, &ps, &params)
            }))
            .unwrap_or_else(|_| Err(ProxyError::Crypto("statement execution panicked".into())));
            respond(result, t0.elapsed().as_nanos() as u64);
        });
    }

    fn push(&self, entry: Entry) {
        let start = {
            let mut q = self.inner.queue.lock().unwrap();
            if q.closed {
                return;
            }
            q.pending.push_back(entry);
            if q.running {
                false
            } else {
                q.running = true;
                true
            }
        };
        if start {
            self.inner.schedule();
        }
    }

    /// Closes the session: queued-but-unstarted statements (and their
    /// responders) are dropped and later submissions are ignored. The
    /// statement currently executing, if any, still completes and
    /// responds — a disconnecting client releases the session without
    /// wedging the pool or abandoning a half-applied statement. Returns
    /// immediately; pair with [`wait_idle`] to block until the in-flight
    /// statement has actually finished. A transaction the session left
    /// open is rolled back once the handle is dropped and no statement
    /// of the session is still running.
    ///
    /// [`wait_idle`]: StatementSession::wait_idle
    pub fn close(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.closed = true;
            q.pending.clear();
        }
        // With the tail dropped, a chain job still queued on the pool
        // has nothing left to do — abandon it at pop time rather than
        // letting it lock the dead queue from a worker slot.
        self.inner.cancel.cancel();
    }

    /// Blocks until the session's chain is idle: every submitted
    /// statement has executed and its responder returned (or, after
    /// [`close`], until the in-flight statement finished). Use it to
    /// drain a pipelined session before a graceful shutdown, or to
    /// sequence teardown (e.g. a principal logout) strictly after the
    /// last statement that might use the session's keys.
    ///
    /// Must not be called from a pool worker (a worker waiting on work
    /// only the pool can run is a deadlock with `runtime_threads = 1`);
    /// callers are connection/reader threads or test mains.
    ///
    /// [`close`]: StatementSession::close
    pub fn wait_idle(&self) {
        let mut q = self.inner.queue.lock().unwrap();
        while q.running || !q.pending.is_empty() {
            q = self.inner.idle.wait(q).unwrap();
        }
    }
}

/// A multi-session server over one shared [`Proxy`].
pub struct Server {
    proxy: Arc<Proxy>,
}

impl Server {
    /// Creates a server sharing `proxy` across all sessions it serves.
    pub fn new(proxy: Arc<Proxy>) -> Self {
        Server { proxy }
    }

    /// The shared proxy.
    pub fn proxy(&self) -> &Arc<Proxy> {
        &self.proxy
    }

    /// Serves every trace concurrently (statement-granular interleaving
    /// on the proxy's worker pool via one [`StatementSession`] per
    /// trace, normal lane) and blocks until all sessions complete.
    ///
    /// # Panics
    ///
    /// Panics if a session's job chain dies without reporting (a worker
    /// panic inside `Proxy::execute` — contained per-job by the pool,
    /// but fatal to that session's chain).
    pub fn serve(&self, traces: Vec<SessionTrace>) -> ServingReport {
        let n = traces.len();
        let (tx, rx) = channel();
        for trace in traces {
            let total = trace.statements.len();
            if total == 0 {
                let _ = tx.send(SessionStats {
                    name: trace.name,
                    queries: 0,
                    errors: 0,
                });
                continue;
            }
            let session = StatementSession::new(self.proxy.clone());
            // (statements answered, errors) so far — responders run in
            // order on pool workers; the last one reports the session.
            let acc = Arc::new(Mutex::new((0usize, 0usize)));
            for sql in trace.statements {
                let acc = acc.clone();
                let tx = tx.clone();
                let name = trace.name.clone();
                session.submit(sql, move |result, _service_ns| {
                    let mut g = acc.lock();
                    g.0 += 1;
                    g.1 += usize::from(result.is_err());
                    if g.0 == total {
                        let _ = tx.send(SessionStats {
                            name,
                            queries: total,
                            errors: g.1,
                        });
                    }
                });
            }
            // The session handle drops here; the chain keeps running on
            // its own Arc clones until the final responder reports.
        }
        drop(tx); // A disconnected channel now means a lost session.
        let mut sessions: Vec<SessionStats> = (0..n)
            .map(|_| {
                rx.recv()
                    .expect("session chain died (worker panicked mid-statement)")
            })
            .collect();
        sessions.sort_by(|a, b| a.name.cmp(&b.name));
        ServingReport {
            queries: sessions.iter().map(|s| s.queries).sum(),
            errors: sessions.iter().map(|s| s.errors).sum(),
            sessions,
        }
    }
}

/// Replays the traces *serially* (session 0's statements in order, then
/// session 1's, …) on `proxy` — the correctness oracle a concurrent run
/// is compared against. Returns (statements, errors).
pub fn replay_serial(proxy: &Proxy, traces: &[SessionTrace]) -> (usize, usize) {
    let mut queries = 0;
    let mut errors = 0;
    for trace in traces {
        for stmt in &trace.statements {
            queries += 1;
            if proxy.execute(stmt).is_err() {
                errors += 1;
            }
        }
    }
    (queries, errors)
}

/// The canonical `(table, columns)` listing of every proxy-managed
/// table (lowercased names, schema column order), sorted by table.
/// This is the single source of the table list that [`canonical_dump`]
/// and its wire twin (`cryptdb_net::wire_canonical_dump` callers) both
/// iterate, so the two dump paths can never drift apart.
pub fn schema_tables(proxy: &Proxy) -> Vec<(String, Vec<String>)> {
    let mut tables: Vec<(String, Vec<String>)> = proxy.with_schema(|schema| {
        schema
            .tables()
            .map(|t| {
                (
                    t.name.to_lowercase(),
                    t.columns.iter().map(|c| c.name.clone()).collect(),
                )
            })
            .collect()
    });
    tables.sort();
    tables
}

/// Decrypted, order-insensitive dump of every proxy-managed table:
/// tables sorted by name, each `SELECT <all columns>` result rendered
/// with [`canonical_text`] (sorted rows). Two runs that left the
/// database in the same logical state — regardless of row order or
/// ciphertext randomness — produce byte-identical dumps.
///
/// [`canonical_text`]: cryptdb_engine::QueryResult::canonical_text
pub fn canonical_dump(proxy: &Proxy) -> Result<String, ProxyError> {
    let tables = schema_tables(proxy);
    let mut out = String::new();
    for (table, columns) in tables {
        let sql = format!("SELECT {} FROM {table}", columns.join(", "));
        let result = proxy.execute(&sql)?;
        out.push_str(&format!("== {table} ==\n"));
        out.push_str(&result.canonical_text());
        out.push('\n');
    }
    Ok(out)
}
