//! Connection multiplexing core: blocking readiness, non-blocking I/O.
//!
//! A small, fixed pool of multiplexer threads services every accepted
//! socket. Each connection is pinned to one thread; sockets are
//! non-blocking, and the thread sleeps in one `poll(2)` over its
//! connections' fds plus a wake fd. It wakes for exactly four reasons —
//! a socket became readable, a socket it has bytes queued for became
//! writable, another thread wrote the wake fd, or the nearest deadline
//! arrived — and then advances every connection's state machine: flush
//! queued egress, read what the socket has, parse complete frames,
//! enforce deadlines. A server with no traffic and no armed deadline
//! makes no system calls at all.
//!
//! **Who writes the socket.** Statement responders (pool workers, or
//! the mux thread for a batch it ran itself — see below) frame a
//! response and hand it to the connection's [`Egress`]. If nothing is
//! queued ahead of it the responder attempts the non-blocking `write`
//! itself, under the egress lock — the common case, and it involves the
//! mux thread not at all. Only what the socket would not take is queued,
//! and only then is the owning thread woken to wait for `POLLOUT`, so a
//! stalled client still never blocks a crypto worker.
//!
//! **Who wakes the thread.** The acceptor (new connection in the
//! inbox), `drain`/shutdown, a responder that had to queue bytes, and a
//! [`Ticket`] dropping while the thread has said it is waiting for the
//! connection's outstanding work to fall (it paused reading at the
//! ingress bound, the connection is closing, or its idle deadline
//! passed mid-statement). Wakes are coalesced:
//! any number between two waits cost one `write(2)`.
//!
//! **Who runs an extended-protocol batch.** `Parse`/`Bind`/`Describe`/
//! `Execute`/`Close`/`Sync` frames are decoded as they are parsed and
//! collected; when the bytes at hand are used up (or a `Q`/`X` must keep
//! its place in line) the collected messages run in order against one
//! response buffer, which is written once. Where they run depends on
//! what the mux thread can observe:
//!
//! - On a quiet connection (nothing submitted is unanswered and no
//!   response bytes are queued, so nothing can be overtaken) the batch
//!   starts *on the mux thread itself*. `Bind`, `Describe`, `Close` and
//!   `Sync` only touch the connection's maps. One `Execute` runs there
//!   if [`Proxy::execute_prepared_within`] accepts it: a typed SELECT
//!   plan at the live schema epoch (a stale one is declined, never
//!   re-planned here), every bound value already in the §3.5.2 caches
//!   (no JOIN-ADJ tag or OPE tree walk is computed here), no Paillier
//!   output, no per-principal column, and an engine scan of at most
//!   [`INLINE_CELLS`] cells. A client that sends `Bind`+`Execute`+`Sync`
//!   in one segment then costs one wake-up, no pool hand-off and one
//!   `write(2)`.
//! - The rest of the batch — from the first `Parse`, the first declined
//!   `Execute`, or a second `Execute` on — and every batch on a
//!   connection that is not quiet becomes *one* ordered job on the
//!   session chain, which appends to what the mux thread answered and
//!   pushes the whole buffer once. Simple `Q` statements always go
//!   there: planning may adjust onions
//!   (rewrite whole columns under the schema write lock), writes may
//!   wait on a WAL fsync, and HOM decryption costs an exponentiation
//!   per cell.
//!
//! A client that dribbles its frames costs one run per piece and sees
//! the same bytes either way. The head-of-line ceiling this puts on the
//! thread's other connections, per connection and wake-up: one read that
//! looks its bound values up in the caches, then scans and decrypts at
//! most [`INLINE_CELLS`] cells. What it can wait for is a lock a writer
//! holds: the schema lock while another session runs DDL or adjusts an
//! onion (which rewrites a whole column), and a table's shard locks
//! while a writer appends to the WAL.
//!
//! See [`NetLimits`] for every bound the loop enforces and the shed
//! behaviour at each.

use crate::limits::NetLimits;
use crate::protocol;
use crate::{command_verb, push_query_result, sqlstate};
use cryptdb_core::proxy::{ColumnType, Param, PreparedStatement, Proxy};
use cryptdb_core::ProxyError;
use cryptdb_engine::{QueryResult, Txn};
use cryptdb_server::StatementSession;
use poll::{PollFd, WakeFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// While the engine is degraded, one write in every
/// `DEGRADED_PROBE_EVERY` is let through as a recovery probe instead of
/// being shed; the rest draw SQLSTATE `53100` without touching the
/// in-flight budget. A successful probe clears the degraded flag and
/// normal service resumes — no restart, no operator action.
const DEGRADED_PROBE_EVERY: usize = 4;

/// The most cells (engine rows scanned × encrypted output columns) an
/// `Execute` run on the mux thread may decrypt; anything larger goes to
/// the session chain ([`Proxy::execute_prepared_within`]).
const INLINE_CELLS: usize = 256;

struct EgressState {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of the front buffer the socket has already taken.
    off: usize,
    /// Unwritten bytes in `bufs`.
    pending: usize,
    /// No further pushes accepted (teardown begun). Queued buffers may
    /// still flush (`seal`) or have been dropped (`discard`).
    closed: bool,
}

/// The half of a connection its responders share with the owning mux
/// thread: the socket's write side behind a bounded-by-policy queue,
/// and the count of work handed to the session and not yet answered.
///
/// Pushes never block. The byte bound is enforced by the mux loop,
/// which stops *reading* an over-bound connection and eventually evicts
/// it (see [`NetLimits::slow_consumer_grace`]).
pub(crate) struct Egress {
    /// The connection's socket. The mux thread reads it; writes go
    /// through `state`'s lock, from whichever thread holds it.
    stream: TcpStream,
    state: Mutex<EgressState>,
    /// `state.pending`, readable without the lock. Published only once
    /// a pusher's own write attempt is over, so a push in progress on
    /// another thread never looks like bytes the socket refused.
    queued: AtomicUsize,
    /// A write failed: the socket is gone, pushes are dropped.
    dead: AtomicBool,
    /// Frames and statements submitted to the session whose
    /// [`Ticket`] has not dropped yet.
    outstanding: AtomicUsize,
    /// Set by the mux thread while it waits for `outstanding` to fall.
    wake_on_progress: AtomicBool,
    waker: Arc<WakeFd>,
}

impl Egress {
    fn new(stream: TcpStream, waker: Arc<WakeFd>) -> Self {
        Egress {
            stream,
            state: Mutex::new(EgressState {
                bufs: VecDeque::new(),
                off: 0,
                pending: 0,
                closed: false,
            }),
            queued: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            wake_on_progress: AtomicBool::new(false),
            waker,
        }
    }

    /// Sends `frames`, in push order. With nothing queued ahead the
    /// calling thread writes as much as the socket takes right now; the
    /// rest is queued for the mux thread, which is woken to wait for
    /// `POLLOUT` (and to start the slow-consumer clock if the queue is
    /// now over its bound).
    fn push(&self, frames: Vec<u8>) {
        if frames.is_empty() {
            return;
        }
        {
            let mut s = self.state.lock().unwrap();
            if s.closed {
                return;
            }
            let first = s.bufs.is_empty();
            s.pending += frames.len();
            s.bufs.push_back(frames);
            if first {
                self.write_queued(&mut s);
            } else {
                self.queued.store(s.pending, Ordering::SeqCst);
            }
            if s.bufs.is_empty() && !self.is_dead() {
                return;
            }
        }
        self.waker.wake();
    }

    /// Mux side: the socket reported writable.
    fn flush(&self) {
        if self.queued() > 0 {
            self.write_queued(&mut self.state.lock().unwrap());
        }
    }

    /// Writes queued buffers until none are left or the socket would
    /// block, then publishes what is left. A failed write drops the
    /// queue and marks the socket dead.
    fn write_queued(&self, s: &mut EgressState) {
        while let Some(front) = s.bufs.front() {
            match (&self.stream).write(&front[s.off..]) {
                Ok(n) if n > 0 => {
                    s.pending -= n;
                    s.off += n;
                    if s.off == front.len() {
                        s.bufs.pop_front();
                        s.off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    self.dead.store(true, Ordering::SeqCst);
                    self.drop_queue(s);
                    return;
                }
            }
        }
        self.queued.store(s.pending, Ordering::SeqCst);
    }

    fn drop_queue(&self, s: &mut EgressState) {
        s.closed = true;
        s.bufs.clear();
        s.off = 0;
        s.pending = 0;
        self.queued.store(0, Ordering::SeqCst);
    }

    fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Refuses new pushes; queued buffers still flush (fatal-then-close
    /// teardown: the FATAL frame must reach the client, responder
    /// output racing the teardown must not trail it).
    fn seal(&self) {
        self.state.lock().unwrap().closed = true;
    }

    /// Refuses new pushes and drops everything queued (eviction or
    /// forced close: the socket is gone, flushing is pointless).
    fn discard(&self) {
        self.drop_queue(&mut self.state.lock().unwrap());
    }

    /// Takes responsibility for `n` units of work about to be submitted
    /// to the session.
    fn ticket(self: &Arc<Self>, n: usize) -> Ticket {
        self.outstanding.fetch_add(n, Ordering::SeqCst);
        Ticket {
            egress: self.clone(),
            n,
        }
    }
}

/// RAII share of a connection's outstanding work: taken when frames are
/// submitted to the session, moved into their job, dropped once the
/// response has been pushed — or when the job is dropped unrun (session
/// closed first). The mux thread reads the count for its ingress bound
/// and to know when a closing connection has nothing left in flight;
/// while it waits on either, the drop wakes it.
struct Ticket {
    egress: Arc<Egress>,
    n: usize,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.egress.outstanding.fetch_sub(self.n, Ordering::SeqCst);
        // SeqCst on both sides: the mux thread stores the flag and then
        // re-reads the count, so either it sees this decrement or this
        // load sees its flag.
        if self.egress.wake_on_progress.load(Ordering::SeqCst) {
            self.egress.waker.wake();
        }
    }
}

/// Monotonic serving-edge counters (see [`crate::NetStats`]).
#[derive(Default)]
pub(crate) struct Counters {
    /// All connections currently inside the mux (admitted + doomed).
    pub(crate) live: AtomicUsize,
    /// Connections admitted under the cap (doomed ones excluded).
    pub(crate) admitted: AtomicUsize,
    pub(crate) shed_connections: AtomicUsize,
    pub(crate) evicted_slow_consumers: AtomicUsize,
    pub(crate) handshake_timeouts: AtomicUsize,
    pub(crate) idle_timeouts: AtomicUsize,
    pub(crate) rejected_statements: AtomicUsize,
    /// Write statements seen while the engine was degraded (shed + the
    /// probes let through); drives the probe cadence.
    pub(crate) degraded_writes: AtomicUsize,
    /// Write statements actually shed with SQLSTATE 53100.
    pub(crate) shed_writes: AtomicUsize,
    pub(crate) drained: AtomicUsize,
    pub(crate) aborted: AtomicUsize,
    /// Returns from `poll(2)` summed over the mux threads.
    pub(crate) reader_wakeups: AtomicUsize,
}

/// State shared by the acceptor, every mux thread, and responders.
pub(crate) struct Shared {
    pub(crate) proxy: Arc<Proxy>,
    pub(crate) limits: NetLimits,
    /// Abrupt teardown (server drop): mux threads close everything and
    /// exit.
    pub(crate) shutdown: AtomicBool,
    /// Graceful drain begun: stop reading, let in-flight statements
    /// finish and responses flush, then close.
    pub(crate) draining: AtomicBool,
    /// Drain deadline passed: force-close whatever is still open.
    pub(crate) drain_abort: AtomicBool,
    /// Statements currently queued or executing across all connections
    /// (the [`NetLimits::max_inflight_statements`] budget).
    pub(crate) inflight: AtomicUsize,
    pub(crate) counters: Counters,
}

/// RAII share of the global in-flight statement budget: acquired at
/// admission, moved into the statement's responder, released when the
/// responder runs — or when it is dropped unrun (session closed first),
/// so every admission path releases exactly once.
struct InflightGuard {
    shared: Arc<Shared>,
}

impl InflightGuard {
    fn try_acquire(shared: &Arc<Shared>) -> Option<InflightGuard> {
        let cap = shared.limits.max_inflight_statements;
        shared
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| InflightGuard {
                shared: shared.clone(),
            })
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Frames one statement outcome: result frames (or `ErrorResponse`) +
/// `ReadyForQuery`.
fn respond_frames(verb: &str, result: Result<QueryResult, ProxyError>) -> Vec<u8> {
    let mut out = Vec::new();
    match result {
        Ok(r) => push_query_result(&mut out, verb, &r),
        Err(e) => protocol::push_frame(
            &mut out,
            b'E',
            &protocol::error_body("ERROR", sqlstate(&e), &e.to_string()),
        ),
    }
    protocol::push_frame(&mut out, b'Z', &protocol::ready_body());
    out
}

/// A server-side statement created by `Parse`. `prepared` is `None` for
/// an empty (whitespace-only) query string, which `Execute` answers
/// with `EmptyQueryResponse` per pgwire.
struct WireStatement {
    prepared: Option<PreparedStatement>,
}

/// A portal created by `Bind`: the source statement plus its decoded
/// parameter values, ready for `Execute`.
#[derive(Clone)]
struct Portal {
    stmt: Arc<WireStatement>,
    params: Vec<Param>,
}

/// Per-connection extended-protocol state. It is read and written
/// inside the session's *ordered* jobs (and responder closures), and
/// by the mux thread only while the connection is quiet — when no job
/// or responder of this connection is pending, so none holds the lock.
/// Named-statement bookkeeping is therefore sequenced exactly like
/// statement execution: a pipelined `Parse`/`Bind`/`Execute` can never
/// observe a peer message's effects out of order.
#[derive(Default)]
struct ExtState {
    stmts: HashMap<String, Arc<WireStatement>>,
    portals: HashMap<String, Portal>,
    /// An extended-protocol error was sent: skip subsequent extended
    /// messages until `Sync` resets this (pgwire error recovery).
    failed: bool,
}

impl ExtState {
    /// Appends one `ERROR`-severity `ErrorResponse` (no
    /// `ReadyForQuery`) and enters the skip-until-`Sync` state: the
    /// extended-protocol error shape.
    fn fail(&mut self, out: &mut Vec<u8>, code: &str, message: &str) {
        self.failed = true;
        protocol::push_frame(out, b'E', &protocol::error_body("ERROR", code, message));
    }
}

/// One decoded extended-protocol frame, waiting in its connection's
/// batch for the ordered job that will run it.
enum ExtMsg {
    Parse {
        name: String,
        sql: String,
    },
    Bind {
        portal: String,
        stmt: String,
        params: protocol::BindValues,
    },
    Describe {
        kind: u8,
        name: String,
    },
    Execute {
        portal: String,
        /// The statement's share of the global in-flight budget, taken
        /// when the frame was parsed; `None` if the budget was
        /// exhausted (answered with `53400`).
        admitted: Option<InflightGuard>,
        deadline: Option<Instant>,
    },
    Close {
        kind: u8,
        name: String,
    },
    Sync,
}

impl ExtMsg {
    /// Runs one message against the connection's extended-protocol
    /// state, appending whatever it answers to `out`. After an error,
    /// everything but `Sync` is skipped without a trace. On the session
    /// chain, `txn` is the session's transaction handle; on the mux
    /// thread (`None`) a `Parse`, and an `Execute` that
    /// [`Proxy::execute_prepared_within`] declines, are handed back
    /// unrun, for the session chain.
    fn run(
        self,
        proxy: &Arc<Proxy>,
        txn: Option<&Txn>,
        st: &mut ExtState,
        out: &mut Vec<u8>,
        max_prepared: usize,
    ) -> Option<ExtMsg> {
        let on_mux = txn.is_none();
        if st.failed && !matches!(self, ExtMsg::Sync) {
            return None;
        }
        if on_mux && matches!(self, ExtMsg::Parse { .. }) {
            return Some(self);
        }
        match self {
            ExtMsg::Parse { name, sql } => run_parse(proxy, st, out, max_prepared, name, sql),
            ExtMsg::Bind {
                portal,
                stmt,
                params,
            } => run_bind(st, out, portal, stmt, params),
            ExtMsg::Describe { kind, name } => run_describe(st, out, kind, name),
            ExtMsg::Execute {
                portal,
                admitted,
                deadline,
            } => {
                let admitted_ok = admitted.is_some();
                if !run_execute(proxy, txn, st, out, &portal, admitted_ok, deadline) {
                    return Some(ExtMsg::Execute {
                        portal,
                        admitted,
                        deadline,
                    });
                }
                // The statement's in-flight share is released here,
                // before the rest of the batch runs.
            }
            // `Close` is idempotent — an absent target still answers
            // `CloseComplete`, as in PostgreSQL; closing a statement
            // also closes portals constructed from it.
            ExtMsg::Close { kind, name } => {
                if kind == b'S' {
                    if let Some(ws) = st.stmts.remove(&name) {
                        st.portals.retain(|_, p| !Arc::ptr_eq(&p.stmt, &ws));
                    }
                } else {
                    st.portals.remove(&name);
                }
                protocol::push_frame(out, b'3', &[]);
            }
            // `Sync` ends the extended-protocol cycle: clear the
            // error-skip state and answer `ReadyForQuery`. Portals
            // survive `Sync` here (this subset has no wire-level
            // transactions to scope them to); they die on re-`Bind`,
            // `Close`, or disconnect.
            ExtMsg::Sync => {
                st.failed = false;
                protocol::push_frame(out, b'Z', &protocol::ready_body());
            }
        }
        None
    }
}

/// `Parse`: plan a named server-side statement (`Proxy::prepare` —
/// parse, rewrite, onion-level selection, key resolution).
fn run_parse(
    proxy: &Arc<Proxy>,
    st: &mut ExtState,
    out: &mut Vec<u8>,
    max_prepared: usize,
    name: String,
    sql: String,
) {
    // The unnamed statement ("") may be redefined freely; named ones
    // must be Closed first, as in PostgreSQL.
    if !name.is_empty() && st.stmts.contains_key(&name) {
        let message = format!("prepared statement \"{name}\" already exists");
        return st.fail(out, "42P05", &message);
    }
    if !st.stmts.contains_key(&name) && st.stmts.len() >= max_prepared {
        return st.fail(
            out,
            "53400",
            "too many prepared statements on this connection",
        );
    }
    let prepared = if sql.trim().is_empty() {
        None
    } else {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| proxy.prepare(&sql))) {
            Ok(Ok(ps)) => Some(ps),
            Ok(Err(e)) => return st.fail(out, sqlstate(&e), &e.to_string()),
            Err(_) => return st.fail(out, "XX000", "statement planning panicked"),
        }
    };
    st.stmts.insert(name, Arc::new(WireStatement { prepared }));
    protocol::push_frame(out, b'1', &[]);
}

/// `Bind`: decode text-format parameter values against the statement's
/// plan-derived slot types and create a portal. An integer-typed slot
/// (the target column stores ints) parses the text as `i64`; a text
/// slot binds verbatim; an untyped slot (plaintext column or no typed
/// target) binds ints when the text parses as one, text otherwise.
fn run_bind(
    st: &mut ExtState,
    out: &mut Vec<u8>,
    portal: String,
    stmt_name: String,
    raw_params: protocol::BindValues,
) {
    let Some(ws) = st.stmts.get(&stmt_name).cloned() else {
        let message = format!("prepared statement \"{stmt_name}\" does not exist");
        return st.fail(out, "26000", &message);
    };
    let want = ws.prepared.as_ref().map_or(0, |ps| ps.param_count());
    if raw_params.len() != want {
        let message = format!(
            "bind message supplies {} parameters, but prepared statement \
             \"{stmt_name}\" requires {want}",
            raw_params.len()
        );
        return st.fail(out, "08P01", &message);
    }
    let kinds: &[Option<ColumnType>] = ws.prepared.as_ref().map_or(&[], |ps| ps.param_kinds());
    let mut params = Vec::with_capacity(raw_params.len());
    for (i, raw) in raw_params.into_iter().enumerate() {
        let value = match raw {
            None => Param::Null,
            Some(bytes) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    let message = format!("parameter ${} is not valid UTF-8", i + 1);
                    return st.fail(out, "22P02", &message);
                };
                match kinds.get(i).copied().flatten() {
                    Some(ColumnType::Int) => match text.parse::<i64>() {
                        Ok(n) => Param::Int(n),
                        Err(_) => {
                            let message =
                                format!("invalid integer for parameter ${}: {text:?}", i + 1);
                            return st.fail(out, "22P02", &message);
                        }
                    },
                    Some(ColumnType::Text) => Param::Str(text),
                    None => match text.parse::<i64>() {
                        Ok(n) => Param::Int(n),
                        Err(_) => Param::Str(text),
                    },
                }
            }
        };
        params.push(value);
    }
    st.portals.insert(portal, Portal { stmt: ws, params });
    protocol::push_frame(out, b'2', &[]);
}

/// `Describe`: `ParameterDescription` (+`RowDescription` or `NoData`)
/// for a statement, `RowDescription`/`NoData` for a portal.
/// Result-column OIDs are advertised as text here and refined from
/// actual decrypted values at `Execute` (this front-end's documented
/// subset).
fn run_describe(st: &mut ExtState, out: &mut Vec<u8>, kind: u8, name: String) {
    let stmt = if kind == b'S' {
        match st.stmts.get(&name) {
            Some(ws) => ws.clone(),
            None => {
                let message = format!("prepared statement \"{name}\" does not exist");
                return st.fail(out, "26000", &message);
            }
        }
    } else {
        match st.portals.get(&name) {
            Some(p) => p.stmt.clone(),
            None => {
                let message = format!("portal \"{name}\" does not exist");
                return st.fail(out, "34000", &message);
            }
        }
    };
    if kind == b'S' {
        let oids: Vec<i32> = stmt
            .prepared
            .as_ref()
            .map(|ps| {
                ps.param_kinds()
                    .iter()
                    .map(|k| match k {
                        Some(ColumnType::Int) => protocol::OID_INT8,
                        _ => protocol::OID_TEXT,
                    })
                    .collect()
            })
            .unwrap_or_default();
        protocol::push_frame(out, b't', &protocol::param_description_body(&oids));
    }
    match stmt.prepared.as_ref().and_then(|ps| ps.columns()) {
        Some(cols) => {
            let described: Vec<(String, i32)> = cols
                .iter()
                .map(|c| (c.clone(), protocol::OID_TEXT))
                .collect();
            protocol::push_frame(out, b'T', &protocol::row_description_body(&described));
        }
        // Writes, DDL, generic plans, and the empty statement have no
        // describable result shape.
        None => protocol::push_frame(out, b'n', &[]),
    }
}

/// `Execute`: run a bound portal in the session's transaction `txn`.
/// Result frames carry no trailing `ReadyForQuery` — that belongs to
/// `Sync`. Shares the global in-flight budget and queue-wait deadline
/// with the simple path. On the mux thread (no `txn`) the statement
/// runs only if [`Proxy::execute_prepared_within`] accepts it; returns
/// false, having answered nothing, when it does not.
fn run_execute(
    proxy: &Arc<Proxy>,
    txn: Option<&Txn>,
    st: &mut ExtState,
    out: &mut Vec<u8>,
    portal: &str,
    admitted: bool,
    deadline: Option<Instant>,
) -> bool {
    if !admitted {
        st.fail(
            out,
            "53400",
            "in-flight statement budget exhausted; retry later",
        );
        return true;
    }
    if deadline.is_some_and(|d| Instant::now() > d) {
        st.fail(
            out,
            "57014",
            "canceling statement due to queue-wait deadline",
        );
        return true;
    }
    let Some(p) = st.portals.get(portal).cloned() else {
        let message = format!("portal \"{portal}\" does not exist");
        st.fail(out, "34000", &message);
        return true;
    };
    let Some(ps) = p.stmt.prepared.as_ref() else {
        protocol::push_frame(out, b'I', &[]);
        return true;
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match txn {
        None => proxy.execute_prepared_within(ps, &p.params, INLINE_CELLS),
        Some(txn) => Some(proxy.execute_prepared_in(txn, ps, &p.params)),
    }));
    match result {
        Ok(None) => return false,
        Ok(Some(Ok(r))) => push_query_result(out, &command_verb(ps.sql()), &r),
        Ok(Some(Err(e))) => st.fail(out, sqlstate(&e), &e.to_string()),
        Err(_) => st.fail(out, "XX000", "statement execution panicked"),
    }
    true
}

/// Connection protocol phase (pre-session states are the handshake).
enum Phase {
    /// Waiting for a startup packet (possibly after an `SSLRequest`
    /// refusal — the client retries in the clear on the same socket).
    Startup,
    /// Startup accepted; waiting for the cleartext `PasswordMessage`.
    Password {
        /// The `user` startup parameter (the principal to log in).
        user: String,
    },
    /// Authenticated: the simple-query loop.
    Ready,
}

/// What a connection asks of its thread's next `poll(2)`.
struct Wait {
    /// `POLLIN` / `POLLOUT` mask; 0 = nothing (the fd is left out, so a
    /// hung-up peer cannot make the wait return at once, over and over).
    events: i16,
    /// The nearest instant at which the connection must be looked at
    /// again even if nothing happens on its socket.
    deadline: Option<Instant>,
    /// Look again without sleeping: parsing stopped at a bound that has
    /// since cleared.
    again: bool,
}

/// One multiplexed connection: socket, parse buffer, egress queue, and
/// the state machine the mux loop advances. Owned by exactly one mux
/// thread; only the [`Egress`] is shared (with responders).
pub(crate) struct Conn {
    id: u64,
    /// Accumulated unparsed input (at most one maximal frame plus one
    /// pump's reads, since parsing is greedy and reads pause under
    /// backpressure).
    rbuf: Vec<u8>,
    /// Parsing stopped at a backpressure bound with complete frames
    /// possibly still in `rbuf`.
    parse_stalled: bool,
    /// Extended-protocol messages decoded during the current parse
    /// pass, run as one batch when it ends (never held across a
    /// sleep).
    batch: Vec<ExtMsg>,
    egress: Arc<Egress>,
    /// Extended-protocol statement/portal maps (see [`ExtState`]).
    ext: Arc<Mutex<ExtState>>,
    phase: Phase,
    session: Option<StatementSession>,
    principal: Option<String>,
    logged_in: bool,
    opened: Instant,
    last_activity: Instant,
    /// The idle deadline passed while a statement was outstanding or a
    /// response was draining: no deadline is pending, the close fires
    /// as soon as the connection goes quiet.
    idle_overdue: bool,
    /// When the connection first went over its egress bound (slow
    /// consumer clock; cleared when it drains back under).
    egress_full_since: Option<Instant>,
    /// What the last `poll(2)` reported for the socket. A new
    /// connection starts out "readable": its startup packet is usually
    /// already there.
    revents: i16,
    read_closed: bool,
    /// Tear down once nothing is outstanding and egress has flushed.
    dying: bool,
    /// Torn down by force (eviction/abort): counted as aborted, not
    /// drained, and the socket is already shut.
    forced: bool,
    /// Accepted over the connection cap: the startup packet is read
    /// (so the refusal is delivered in-protocol, not lost to a TCP
    /// reset racing unread input) and answered with `FATAL` `53300`.
    pub(crate) doomed: bool,
    drain_marked: bool,
}

impl Conn {
    pub(crate) fn new(
        id: u64,
        stream: TcpStream,
        waker: Arc<WakeFd>,
        doomed: bool,
    ) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Ok(Conn {
            id,
            rbuf: Vec::new(),
            parse_stalled: false,
            batch: Vec::new(),
            egress: Arc::new(Egress::new(stream, waker)),
            ext: Arc::new(Mutex::new(ExtState::default())),
            phase: Phase::Startup,
            session: None,
            principal: None,
            logged_in: false,
            opened: now,
            last_activity: now,
            idle_overdue: false,
            egress_full_since: None,
            revents: POLLIN,
            read_closed: false,
            dying: false,
            forced: false,
            doomed,
            drain_marked: false,
        })
    }

    /// Advances the connection after a wake-up: acts on what `poll(2)`
    /// reported for its socket and on whatever other threads changed,
    /// then says what to wait for next.
    fn pump(&mut self, shared: &Arc<Shared>, scratch: &mut [u8]) -> Wait {
        if shared.draining.load(Ordering::Acquire) && !self.drain_marked {
            self.drain_marked = true;
            // Graceful drain: stop reading; statements already queued
            // finish and their responses flush, like a client-sent
            // Terminate.
            self.read_closed = true;
            self.dying = true;
        }
        // Errors and hang-ups are reported whatever was asked for; let
        // the read or write that was waiting surface them.
        let ready = std::mem::take(&mut self.revents);
        if ready & !POLLIN != 0 {
            self.egress.flush();
        }
        if ready & !POLLOUT != 0 {
            self.fill(shared, scratch);
        }
        self.parse(shared);
        self.check_deadlines(shared);
        if shared.drain_abort.load(Ordering::Acquire) && !self.finished() && !self.forced {
            shared.counters.aborted.fetch_add(1, Ordering::Relaxed);
            self.force_close();
        }
        // Ask for a wake-up before looking, so a ticket dropping in
        // between is either seen below or wakes the thread.
        let waiting = self.dying || self.idle_overdue || self.ingress_full(shared);
        self.egress
            .wake_on_progress
            .store(waiting, Ordering::SeqCst);
        let paused = self.backpressured(shared);
        let mut events = 0;
        if !self.read_closed && !self.dying && !paused {
            events |= POLLIN;
        }
        if self.egress.queued() > 0 {
            events |= POLLOUT;
        }
        Wait {
            events,
            deadline: self.next_deadline(&shared.limits),
            again: (self.parse_stalled && !self.dying && !paused)
                || (self.idle_overdue && self.quiet()),
        }
    }

    /// Nothing submitted is unanswered and every response has reached
    /// the socket.
    fn quiet(&self) -> bool {
        self.egress.outstanding() == 0 && self.egress.queued() == 0
    }

    fn ingress_full(&self, shared: &Arc<Shared>) -> bool {
        self.egress.outstanding() + self.batch.len() >= shared.limits.ingress_statements
    }

    /// True when reading must pause: the connection is at its ingress
    /// statement bound or its egress byte bound. Backpressure, not
    /// shedding — the bytes wait in the socket buffer and TCP flow
    /// control stalls the sender.
    fn backpressured(&self, shared: &Arc<Shared>) -> bool {
        self.egress.queued() >= shared.limits.egress_bytes || self.ingress_full(shared)
    }

    /// Reads available bytes into `rbuf` (bounded per pump so one
    /// firehose socket cannot starve its thread's other connections;
    /// what is left keeps the socket readable for the next `poll`).
    fn fill(&mut self, shared: &Arc<Shared>, scratch: &mut [u8]) {
        if self.read_closed || self.dying || self.backpressured(shared) {
            return;
        }
        let mut budget = 4usize;
        while budget > 0 {
            match (&self.egress.stream).read(scratch) {
                Ok(0) => {
                    self.on_disconnect();
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_activity = Instant::now();
                    budget -= 1;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.on_disconnect();
                    break;
                }
            }
        }
    }

    /// Closes the session: queued statements (and an unsubmitted
    /// batch) are dropped, the in-flight one completes.
    fn close_session(&mut self) {
        self.batch.clear();
        if let Some(s) = &self.session {
            s.close();
        }
    }

    /// Abrupt disconnect (EOF/reset): queued statements are dropped,
    /// the in-flight one completes before the principal logs out.
    fn on_disconnect(&mut self) {
        self.read_closed = true;
        self.dying = true;
        self.close_session();
    }

    /// Parses and dispatches complete frames from `rbuf`, stopping at
    /// an incomplete frame or a backpressure bound, then runs the
    /// extended-protocol messages it collected as one batch.
    fn parse(&mut self, shared: &Arc<Shared>) {
        self.parse_stalled = false;
        while !self.dying && !self.rbuf.is_empty() {
            if self.backpressured(shared) {
                self.parse_stalled = true;
                break;
            }
            let consumed = match &self.phase {
                Phase::Startup => {
                    match protocol::try_parse_startup(&self.rbuf, shared.limits.max_frame) {
                        Ok(None) => break,
                        Err(e) => {
                            self.fatal_close("08P01", &format!("malformed startup packet: {e}"));
                            break;
                        }
                        Ok(Some((startup, used))) => {
                            self.on_startup(startup);
                            used
                        }
                    }
                }
                Phase::Password { .. } | Phase::Ready => {
                    match protocol::try_parse_frame(&self.rbuf, shared.limits.max_frame) {
                        Ok(None) => break,
                        Err(e) => {
                            self.fatal_close("08P01", &format!("malformed frame: {e}"));
                            break;
                        }
                        Ok(Some((tag, body, used))) => {
                            self.on_frame(shared, tag, &body);
                            used
                        }
                    }
                }
            };
            // A dispatch that fatal_closed already cleared rbuf; cap
            // the drain so it cannot overrun the emptied buffer.
            self.rbuf.drain(..consumed.min(self.rbuf.len()));
        }
        self.submit_batch(shared);
    }

    fn on_startup(&mut self, startup: protocol::Startup) {
        match startup.protocol {
            protocol::SSL_REQUEST => self.egress.push(b"N".to_vec()),
            protocol::CANCEL_REQUEST => {
                self.read_closed = true;
                self.dying = true;
            }
            protocol::PROTOCOL_V3 if self.doomed => {
                // Admission shed, delivered only now that the startup
                // packet has been consumed: PostgreSQL's own refusal,
                // SQLSTATE 53300.
                self.fatal_close("53300", "sorry, too many clients already");
            }
            protocol::PROTOCOL_V3 => {
                let Some(user) = startup.get("user").map(str::to_string) else {
                    self.fatal_close("28000", "startup packet names no user");
                    return;
                };
                let mut out = Vec::new();
                protocol::push_frame(&mut out, b'R', &protocol::auth_cleartext_body());
                self.egress.push(out);
                self.phase = Phase::Password { user };
            }
            other => self.fatal_close("08P01", &format!("unsupported protocol {other}")),
        }
    }

    fn on_frame(&mut self, shared: &Arc<Shared>, tag: u8, body: &[u8]) {
        if !matches!(self.phase, Phase::Ready) {
            return match tag {
                b'p' => self.on_password(shared, body),
                _ => self.fatal_close("08P01", "expected cleartext PasswordMessage"),
            };
        }
        let decoded = match tag {
            b'P' => protocol::parse_parse_body(body)
                .map(|(name, sql, _oid_hints)| ExtMsg::Parse { name, sql })
                .map_err(|_| "Parse"),
            b'B' => protocol::parse_bind_body(body)
                .map(|(portal, stmt, params)| ExtMsg::Bind {
                    portal,
                    stmt,
                    params,
                })
                .map_err(|_| "Bind"),
            b'D' => protocol::parse_describe_body(body)
                .map(|(kind, name)| ExtMsg::Describe { kind, name })
                .map_err(|_| "Describe"),
            b'E' => protocol::parse_execute_body(body)
                .map(|(portal, _maxrows)| self.admit_execute(shared, portal))
                .map_err(|_| "Execute"),
            b'C' => protocol::parse_describe_body(body)
                .map(|(kind, name)| ExtMsg::Close { kind, name })
                .map_err(|_| "Close"),
            b'S' => Ok(ExtMsg::Sync),
            // Everything else keeps its place in line behind the
            // extended messages parsed before it.
            other => {
                self.submit_batch(shared);
                return match other {
                    b'Q' => self.on_query(shared, body),
                    // Graceful terminate. PostgreSQL processes messages
                    // in order, so statements pipelined BEFORE the
                    // Terminate still execute; the connection closes
                    // once they have responded and the responses
                    // flushed.
                    b'X' => {
                        self.read_closed = true;
                        self.dying = true;
                    }
                    t => self
                        .fatal_close("08P01", &format!("unexpected message type {:?}", t as char)),
                };
            }
        };
        match decoded {
            Ok(msg) => self.batch.push(msg),
            Err(what) => self.fatal_close("08P01", &format!("malformed {what} message")),
        }
    }

    /// `Execute` admission, at parse time like a simple statement's:
    /// the global in-flight budget and the queue-wait deadline.
    fn admit_execute(&self, shared: &Arc<Shared>, portal: String) -> ExtMsg {
        let admitted = InflightGuard::try_acquire(shared);
        if admitted.is_none() {
            shared
                .counters
                .rejected_statements
                .fetch_add(1, Ordering::Relaxed);
        }
        ExtMsg::Execute {
            portal,
            admitted,
            deadline: shared.limits.statement_deadline.map(|d| Instant::now() + d),
        }
    }

    /// Runs the collected extended-protocol messages in order against
    /// one response buffer, which is pushed — normally written — once.
    /// On a quiet connection the batch starts right here on the mux
    /// thread (see the module docs); whatever the thread may not run
    /// becomes ONE ordered session job.
    fn submit_batch(&mut self, shared: &Arc<Shared>) {
        if self.batch.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        let Some(session) = &self.session else { return };
        let max_prepared = shared.limits.max_prepared_statements;
        // Answers the mux thread produced; if it hands the rest of the
        // batch on, the job appends to them and pushes once.
        let mut out = Vec::new();
        // Quiet: no earlier response is still owed, so nothing can
        // overtake this one, and no job holds `ext`.
        if self.quiet() {
            let mut st = self.ext.lock().unwrap();
            let mut msgs = std::mem::take(&mut batch).into_iter();
            let mut executed = false;
            while let Some(msg) = msgs.next() {
                let is_execute = matches!(msg, ExtMsg::Execute { .. });
                let back = if executed && is_execute {
                    Some(msg)
                } else {
                    msg.run(&shared.proxy, None, &mut st, &mut out, max_prepared)
                };
                executed |= is_execute;
                if let Some(msg) = back {
                    batch = std::iter::once(msg).chain(msgs).collect();
                    break;
                }
            }
            drop(st);
            if batch.is_empty() {
                self.egress.push(out);
                return;
            }
        }
        let ticket = self.egress.ticket(batch.len());
        let ext = self.ext.clone();
        let egress = self.egress.clone();
        session.submit_job(move |proxy, txn| {
            let mut out = out;
            {
                let mut st = ext.lock().unwrap();
                for msg in batch {
                    msg.run(proxy, Some(txn), &mut st, &mut out, max_prepared);
                }
            }
            egress.push(out);
            drop(ticket);
        });
    }

    fn on_password(&mut self, shared: &Arc<Shared>, body: &[u8]) {
        let Phase::Password { user } = std::mem::replace(&mut self.phase, Phase::Startup) else {
            return;
        };
        let Ok(password) = protocol::parse_cstr_body(body) else {
            self.fatal_close("08P01", "malformed password message");
            return;
        };
        // A non-empty password names an external principal (§4.2): log
        // it in exactly as the cryptdb_active INSERT interception
        // would. An empty password runs the session in the master-key
        // context. Login runs on the mux thread — key derivation is
        // short and the connection cap bounds concurrent handshakes.
        if password.is_empty() {
            self.logged_in = false;
        } else if let Err(e) = shared.proxy.login(&user, &password) {
            self.fatal_close("28P01", &format!("login failed for {user}: {e}"));
            return;
        } else {
            self.logged_in = true;
        }
        self.principal = Some(user);
        let mut out = Vec::new();
        protocol::push_frame(&mut out, b'R', &protocol::auth_ok_body());
        let mut param = b"server_version\0".to_vec();
        param.extend_from_slice(b"cryptdb 0.1\0");
        protocol::push_frame(&mut out, b'S', &param);
        let mut keydata = Vec::new();
        keydata.extend_from_slice(&(self.id as i32).to_be_bytes());
        keydata.extend_from_slice(&0i32.to_be_bytes());
        protocol::push_frame(&mut out, b'K', &keydata);
        protocol::push_frame(&mut out, b'Z', &protocol::ready_body());
        self.egress.push(out);
        self.session = Some(StatementSession::new(shared.proxy.clone()));
        self.phase = Phase::Ready;
    }

    fn on_query(&mut self, shared: &Arc<Shared>, body: &[u8]) {
        let Ok(sql) = protocol::parse_cstr_body(body) else {
            self.fatal_close("08P01", "malformed query message");
            return;
        };
        let Some(session) = &self.session else { return };
        let ext = self.ext.clone();
        let egress = self.egress.clone();
        let ticket = egress.ticket(1);
        if sql.trim().is_empty() {
            // PostgreSQL answers an empty query string with
            // EmptyQueryResponse, not a zero-row SELECT or a syntax
            // error. Sequenced as an ordered job so pipelined
            // statements ahead of it still respond first.
            session.submit_job(move |_proxy, _txn| {
                // ReadyForQuery ends the cycle, which also resets the
                // extended protocol's error state (pgwire).
                ext.lock().unwrap().failed = false;
                let mut out = Vec::new();
                protocol::push_frame(&mut out, b'I', &[]);
                protocol::push_frame(&mut out, b'Z', &protocol::ready_body());
                egress.push(out);
                drop(ticket);
            });
            return;
        }
        let verb = command_verb(&sql);
        let is_write = !(verb.eq_ignore_ascii_case("SELECT")
            || verb.eq_ignore_ascii_case("BEGIN")
            || verb.eq_ignore_ascii_case("COMMIT")
            || verb.eq_ignore_ascii_case("ROLLBACK"));
        // Responders run in chain order on a pool worker: frame the
        // outcome, write (or queue) it, then give up the statement's
        // shares of the in-flight budget and the connection's ingress
        // bound. A responder dropped unrun releases both just the same.
        let respond = move |admitted: Option<InflightGuard>| {
            move |result: Result<QueryResult, ProxyError>, _service_ns: u64| {
                ext.lock().unwrap().failed = false;
                egress.push(respond_frames(&verb, result));
                drop(admitted);
                drop(ticket);
            }
        };
        // Degraded read-only mode: the WAL cannot accept appends, so
        // every write is doomed to fail inside the engine anyway. Shed
        // them here — before they consume in-flight budget or a crypto
        // worker — with SQLSTATE 53100, but let every
        // `DEGRADED_PROBE_EVERY`-th one through as a probe: a probe that
        // reaches a recovered disk succeeds, the engine clears its
        // degraded flag, and shedding stops without any restart. Reads
        // (SELECT) always pass, and so do transaction-control verbs:
        // a session with an open transaction must be able to ROLLBACK
        // while degraded, and shedding COMMIT before the engine sees it
        // would leave the transaction's state ambiguous to the client —
        // they go through unconditionally (acting as extra probes) and
        // the engine answers deterministically, 53100 with the
        // transaction intact if the disk is still down.
        if is_write && shared.proxy.engine().is_degraded() {
            let n = shared
                .counters
                .degraded_writes
                .fetch_add(1, Ordering::Relaxed);
            if !n.is_multiple_of(DEGRADED_PROBE_EVERY) {
                shared.counters.shed_writes.fetch_add(1, Ordering::Relaxed);
                session.submit_reject(
                    ProxyError::Degraded(
                        "wal unavailable (disk full or I/O error); writes are shed, reads still serve"
                            .into(),
                    ),
                    respond(None),
                );
                return;
            }
        }
        match InflightGuard::try_acquire(shared) {
            Some(guard) => {
                let deadline = shared.limits.statement_deadline.map(|d| Instant::now() + d);
                session.submit_with_deadline(sql, deadline, respond(Some(guard)));
            }
            None => {
                // Over the global budget: shed THIS statement with a
                // clean in-order error; the connection stays usable.
                shared
                    .counters
                    .rejected_statements
                    .fetch_add(1, Ordering::Relaxed);
                session.submit_reject(
                    ProxyError::Overloaded(
                        "in-flight statement budget exhausted; retry later".into(),
                    ),
                    respond(None),
                );
            }
        }
    }

    /// FATAL error + orderly close: the error frame flushes, nothing
    /// else does; queued statements are dropped, the in-flight one
    /// completes (its response is discarded by the sealed egress).
    fn fatal_close(&mut self, code: &str, message: &str) {
        let mut out = Vec::new();
        protocol::push_frame(
            &mut out,
            b'E',
            &protocol::error_body("FATAL", code, message),
        );
        self.egress.push(out);
        self.egress.seal();
        self.read_closed = true;
        self.dying = true;
        self.close_session();
        self.rbuf.clear();
    }

    /// Immediate teardown (slow-consumer eviction, drain abort): the
    /// socket shuts now, queued egress is dropped.
    fn force_close(&mut self) {
        self.forced = true;
        self.egress_full_since = None;
        self.egress.discard();
        self.egress.dead.store(true, Ordering::SeqCst);
        self.read_closed = true;
        self.dying = true;
        self.close_session();
        let _ = self.egress.stream.shutdown(Shutdown::Both);
        self.rbuf.clear();
    }

    /// Enforces the deadlines that have passed. Every deadline
    /// [`Conn::next_deadline`] can report is handled here by closing
    /// the connection or, for an idle deadline that finds it busy, by
    /// trading the timeout for a wake-up on progress (`idle_overdue`),
    /// so the thread never wakes for the same instant twice.
    fn check_deadlines(&mut self, shared: &Arc<Shared>) {
        let now = Instant::now();
        let limits = &shared.limits;
        // Slow consumer: at/over the egress bound past the grace
        // period. Checked even while dying — a terminated connection
        // flushing to a stalled client must not hold its fd forever.
        if self.egress.queued() >= limits.egress_bytes {
            let since = *self.egress_full_since.get_or_insert(now);
            if now.duration_since(since) >= limits.slow_consumer_grace {
                shared
                    .counters
                    .evicted_slow_consumers
                    .fetch_add(1, Ordering::Relaxed);
                self.force_close();
                return;
            }
        } else {
            self.egress_full_since = None;
        }
        if self.dying {
            return;
        }
        match self.phase {
            Phase::Ready => {
                let Some(idle) = limits.idle_deadline else {
                    return;
                };
                self.idle_overdue = now.duration_since(self.last_activity) >= idle;
                if self.idle_overdue && self.quiet() {
                    shared
                        .counters
                        .idle_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    self.fatal_close(
                        "57P05",
                        "terminating connection due to idle-session timeout",
                    );
                }
            }
            // Slowloris defense: the handshake (startup + auth) must
            // complete within its deadline. A stalled handshake pins
            // one fd and a buffer, never a thread.
            Phase::Startup | Phase::Password { .. } => {
                if now.duration_since(self.opened) >= limits.handshake_deadline {
                    shared
                        .counters
                        .handshake_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    self.fatal_close("08P01", "handshake deadline exceeded");
                }
            }
        }
    }

    /// The nearest instant [`Conn::check_deadlines`] has something to
    /// do, if any. A queued statement's `statement_deadline` is not
    /// among them: the session chain checks it when it pops the entry.
    fn next_deadline(&self, limits: &NetLimits) -> Option<Instant> {
        let evict = self
            .egress_full_since
            .and_then(|t| t.checked_add(limits.slow_consumer_grace));
        let phase = match self.phase {
            _ if self.dying => None,
            // Overdue: the wake-up is the last ticket dropping or the
            // socket turning writable, not a timeout.
            Phase::Ready if self.idle_overdue => None,
            Phase::Ready => limits
                .idle_deadline
                .and_then(|d| self.last_activity.checked_add(d)),
            Phase::Startup | Phase::Password { .. } => {
                self.opened.checked_add(limits.handshake_deadline)
            }
        };
        evict.into_iter().chain(phase).min()
    }

    /// True once teardown can complete: marked dying, every submitted
    /// statement has responded (or was dropped), and the responses
    /// reached the socket (or the socket is already dead).
    fn finished(&self) -> bool {
        self.dying
            && self.egress.outstanding() == 0
            && (self.egress.is_dead() || self.egress.queued() == 0)
    }

    /// Final non-blocking teardown: the logout (removing the
    /// principal's keys) is sequenced strictly after the last statement
    /// that could resolve through them, because `finished` required
    /// every ticket dropped first.
    fn finish(&mut self, shared: &Arc<Shared>) {
        self.egress.discard();
        if self.logged_in {
            if let Some(p) = &self.principal {
                shared.proxy.logout(p);
            }
            self.logged_in = false;
        }
        let _ = self.egress.stream.shutdown(Shutdown::Both);
    }

    /// Blocking teardown for abrupt server shutdown: close the session,
    /// wait out the in-flight statement, log out. Only called from a
    /// mux thread that is exiting (never from the readiness loop).
    fn teardown_blocking(&mut self, shared: &Arc<Shared>) {
        self.close_session();
        if let Some(s) = &self.session {
            s.wait_idle();
        }
        self.finish(shared);
    }
}

/// Hand-off queue from the acceptor to one mux thread, and the wake fd
/// every thread with news for that mux thread writes.
pub(crate) struct Inbox {
    pub(crate) queue: Mutex<Vec<Conn>>,
    pub(crate) waker: Arc<WakeFd>,
}

impl Inbox {
    pub(crate) fn new() -> io::Result<Inbox> {
        Ok(Inbox {
            queue: Mutex::new(Vec::new()),
            waker: Arc::new(WakeFd::new()?),
        })
    }
}

/// Releases a reaped connection's admission counts (shared with the
/// server-drop path, which reaps not-yet-adopted inbox connections).
pub(crate) fn release_counts(shared: &Shared, conn: &Conn) {
    if !conn.doomed {
        shared.counters.admitted.fetch_sub(1, Ordering::AcqRel);
    }
    shared.counters.live.fetch_sub(1, Ordering::AcqRel);
}

/// The mux thread body: sleep in `poll(2)`, then adopt handed-off
/// connections, pump each one, reap finished ones, and work out what to
/// sleep on next.
pub(crate) fn run_mux(shared: Arc<Shared>, inbox: Arc<Inbox>) {
    let mut conns: Vec<Conn> = Vec::new();
    // fds[0] is the wake fd; fds[i + 1] belongs to conns[i].
    let mut fds: Vec<PollFd> = vec![inbox.waker.poll_fd()];
    let mut scratch = vec![0u8; 16 * 1024];
    let mut timeout = None;
    loop {
        match poll::poll(&mut fds, timeout) {
            Ok(_) => {
                for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
                    conn.revents = fd.revents();
                }
            }
            // Nothing a connection did can make the call itself fail
            // (a dead fd is an event, not an error), so this is the
            // kernel out of memory: back off and try every socket.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                for conn in &mut conns {
                    conn.revents = POLLIN | POLLOUT;
                }
            }
        }
        shared
            .counters
            .reader_wakeups
            .fetch_add(1, Ordering::Relaxed);
        // Before looking at anything a waker may have published.
        if fds[0].revents() != 0 {
            inbox.waker.drain();
        }
        conns.append(&mut inbox.queue.lock().unwrap());
        if shared.shutdown.load(Ordering::Acquire) {
            for mut conn in conns.drain(..) {
                conn.teardown_blocking(&shared);
                release_counts(&shared, &conn);
            }
            return;
        }
        fds.truncate(1);
        let mut deadline: Option<Instant> = None;
        let mut again = false;
        let mut i = 0;
        while i < conns.len() {
            let wait = conns[i].pump(&shared, &mut scratch);
            if conns[i].finished() {
                let mut conn = conns.swap_remove(i);
                conn.finish(&shared);
                // Forced closes were counted as `aborted` when the
                // force happened; only clean drains are counted here.
                if shared.draining.load(Ordering::Acquire) && !conn.forced {
                    shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                }
                release_counts(&shared, &conn);
                continue;
            }
            let fd = if wait.events == 0 {
                -1
            } else {
                conns[i].egress.stream.as_raw_fd()
            };
            fds.push(PollFd::new(fd, wait.events));
            deadline = deadline.into_iter().chain(wait.deadline).min();
            again |= wait.again;
            i += 1;
        }
        timeout = if again {
            Some(Duration::ZERO)
        } else {
            deadline.map(|d| d.saturating_duration_since(Instant::now()))
        };
    }
}
