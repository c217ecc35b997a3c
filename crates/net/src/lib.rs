//! TCP wire front-end for the CryptDB proxy: a minimal PostgreSQL-wire
//! (protocol 3.0) subset over the `cryptdb-server` serving layer.
//!
//! The paper's deployment story (§2) is a *drop-in proxy between
//! unmodified clients and the DBMS*: applications keep speaking their
//! database's ordinary wire protocol and the trust boundary sits at a
//! network edge the client can see. [`NetServer`] supplies that edge:
//!
//! * **A small multiplexing core** (the private `mux` module): one
//!   acceptor thread owns
//!   the listening socket; a fixed pool of [`NetLimits::reader_threads`]
//!   multiplexer threads services *all* connections over non-blocking
//!   sockets, each thread asleep in one `poll(2)` until a socket is
//!   ready, another thread wakes it, or a deadline arrives. Parsed
//!   statements become statement-granular jobs on a
//!   [`StatementSession`](cryptdb_server::StatementSession) — the same
//!   chained-job machinery the in-process serving layer uses, on the
//!   proxy's shared crypto `WorkerPool`; the extended-protocol frames
//!   of one read (`Bind`+`Execute`+`Sync`) become one job — or, on a
//!   connection with nothing outstanding, run on the mux thread that
//!   read them, as far as they stay bounded: at most one prepared read
//!   whose bound values are all cached and whose scan fits a fixed cell
//!   budget. Mux threads never plan, write, compute a JOIN-ADJ tag or
//!   wait on the pool, and never block on one socket, so one stalled or
//!   hostile client cannot pin a thread the way a thread-per-connection
//!   design lets it.
//! * **Bounded queues and explicit shed points** ([`NetLimits`]):
//!   connections over the cap are refused with `FATAL` SQLSTATE `53300`;
//!   statements over the global in-flight budget draw `ERROR` `53400`
//!   in pipeline order; statements whose queue-wait deadline expires
//!   draw `ERROR` `57014`; write statements arriving while the engine
//!   is in degraded read-only mode (the WAL cannot accept appends — disk
//!   full or I/O error) draw `ERROR` `53100` without consuming in-flight
//!   budget, while reads keep serving and periodic probe writes detect
//!   recovery; handshakes and (optionally) idle sessions
//!   time out (the nearest such deadline is the `poll` timeout, so
//!   they fire on a silent server too); slow consumers — clients not
//!   draining their socket while responses pile up — are evicted after
//!   a grace period. Everything else is backpressure: a connection at
//!   its ingress or egress bound simply stops being read until it
//!   drains.
//! * **Responses are written in per-session order**: responders run in
//!   chain order, each batching its whole response
//!   (`RowDescription`/`DataRow…`/`CommandComplete`/`ReadyForQuery` or
//!   `ErrorResponse`) into one egress push — written to the socket by
//!   the responder itself unless the socket would block — so pipelined
//!   clients see answers in submission order.
//! * **The startup handshake names the principal** (§4.2): the `user`
//!   startup parameter plus a cleartext `PasswordMessage` map onto
//!   `Proxy::login` — exactly the `cryptdb_active` login the paper's
//!   proxy intercepts, moved to the connection edge. An empty password
//!   skips multi-principal login and runs the session against the
//!   master-key context (single-principal mode). A logged-in principal
//!   is logged out when its connection ends, sequenced strictly after
//!   its last in-flight statement.
//!
//! Failure containment: a malformed or truncated frame draws a `FATAL`
//! `ErrorResponse` and closes *that* connection only; an abrupt client
//! disconnect closes the session's chain (queued statements are
//! dropped, the in-flight one completes before any logout) without
//! wedging the shared pool; a graceful `Terminate` instead *drains*
//! statements pipelined ahead of it first, matching PostgreSQL's
//! in-order message processing. Statement errors (`ErrorResponse`
//! severity `ERROR`) keep the connection alive, as in PostgreSQL.
//!
//! Shutdown comes in two shapes: dropping the server tears everything
//! down abruptly (in-flight statements still complete), while
//! [`NetServer::drain`] performs the graceful sequence — stop
//! accepting, stop reading, let queued statements finish and responses
//! flush, force-close stragglers at the deadline, fsync the WAL, then
//! join every thread.
//!
//! The protocol subset: startup (+`SSLRequest` refused with `N`),
//! `AuthenticationCleartextPassword`/`AuthenticationOk`, simple query
//! `Q` (an empty query string answers `EmptyQueryResponse`),
//! `RowDescription`/`DataRow`/`CommandComplete`, `ErrorResponse`,
//! `ReadyForQuery`, `Terminate`, and the **extended protocol**:
//! `Parse`/`Bind`/`Describe`/`Execute`/`Close`/`Sync` over
//! [`Proxy::prepare`](cryptdb_core::proxy::Proxy::prepare)'s
//! parse-once rewrite-plan cache, with named statements and portals
//! per connection (bounded by
//! [`NetLimits::max_prepared_statements`]), text-format parameters
//! only, and pgwire error recovery (after an error, extended messages
//! are skipped until `Sync`). Documented deviations: `Execute`
//! responses include `RowDescription` (OIDs inferred from decrypted
//! values; `Describe` advertises text), `Execute`'s max-row count is
//! ignored (all rows return), and portals survive `Sync`. COPY and
//! cancellation are out of scope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;

mod client;
mod limits;
mod mux;

pub use client::{
    wire_canonical_dump, ConnectConfig, NetClient, WireError, WirePrepared, WireQueryResult,
};
pub use limits::NetLimits;

use cryptdb_core::proxy::Proxy;
use cryptdb_core::ProxyError;
use cryptdb_engine::{QueryResult, Value};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Point-in-time serving-edge statistics ([`NetServer::stats`]).
/// Counters are monotonic over the server's lifetime; `live_connections`
/// and `inflight_statements` are instantaneous.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Connections currently open (including handshakes in progress).
    pub live_connections: usize,
    /// Statements currently queued or executing across all connections.
    pub inflight_statements: usize,
    /// Connections refused over the cap (SQLSTATE 53300).
    pub shed_connections: usize,
    /// Statements rejected over the in-flight budget (SQLSTATE 53400).
    pub rejected_statements: usize,
    /// Connections evicted for not draining their responses.
    pub evicted_slow_consumers: usize,
    /// Connections closed for stalling the startup handshake.
    pub handshake_timeouts: usize,
    /// Connections closed by the idle deadline (SQLSTATE 57P05).
    pub idle_timeouts: usize,
    /// Whether the engine is currently in degraded read-only mode (the
    /// WAL cannot accept appends; writes are shed with SQLSTATE 53100).
    pub degraded: bool,
    /// Write statements shed while degraded (SQLSTATE 53100). Probe
    /// writes let through to test recovery are not counted here.
    pub shed_writes: usize,
    /// WAL append attempts that failed (each one flips or keeps the
    /// engine in degraded mode until an append succeeds).
    pub wal_append_failures: u64,
    /// Automatic snapshot attempts that failed (retried on a backoff;
    /// durability of acknowledged statements is unaffected).
    pub snapshot_failures: u64,
    /// Rewrite plans currently held by the proxy's prepared-statement
    /// plan cache.
    pub plans_cached: u64,
    /// `prepare` calls answered from the plan cache.
    pub plan_hits: u64,
    /// `prepare` calls that planned from scratch (key absent).
    pub plan_misses: u64,
    /// Cached plans discarded because the schema epoch moved under
    /// them (DDL or onion-layer adjustment) — each one was re-planned,
    /// never executed stale.
    pub plans_invalidated: u64,
    /// Times a multiplexer thread returned from its `poll(2)` wait,
    /// summed over the threads. Idle connections cost none.
    pub reader_wakeups: usize,
}

/// Outcome of a graceful [`NetServer::drain`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Connections that finished their in-flight statements and flushed
    /// cleanly within the deadline.
    pub drained_connections: usize,
    /// Connections force-closed at the deadline (their queued-but-
    /// unstarted statements were dropped unacknowledged; statements
    /// already executing still completed).
    pub aborted_connections: usize,
    /// Whether the final WAL fsync succeeded (vacuously true without an
    /// attached WAL).
    pub wal_synced: bool,
    /// Wall-clock the drain took.
    pub elapsed: Duration,
}

/// A TCP front-end serving the pgwire subset over one shared [`Proxy`].
///
/// Bind with [`NetServer::spawn`] (default [`NetLimits`]) or
/// [`NetServer::spawn_with`]; the server accepts connections until
/// dropped or drained. Dropping shuts the listener and every live
/// connection down abruptly and joins all threads;
/// [`NetServer::drain`] is the graceful alternative.
pub struct NetServer {
    proxy: Arc<Proxy>,
    addr: SocketAddr,
    shared: Arc<mux::Shared>,
    accept_closed: Arc<AtomicBool>,
    inboxes: Vec<Arc<mux::Inbox>>,
    acceptor: Option<JoinHandle<()>>,
    mux_threads: Vec<JoinHandle<()>>,
    /// Background housekeeping thread: drives snapshot retries while the
    /// statement path is quiet (a degraded engine that stopped seeing
    /// writes would otherwise never retry its overdue snapshot).
    janitor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// serving threads with default [`NetLimits`].
    pub fn spawn(proxy: Arc<Proxy>, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        NetServer::spawn_with(proxy, addr, NetLimits::default())
    }

    /// Binds `addr` with explicit limits (see [`NetLimits`] for every
    /// knob and its shed behaviour).
    pub fn spawn_with(
        proxy: Arc<Proxy>,
        addr: impl ToSocketAddrs,
        limits: NetLimits,
    ) -> io::Result<NetServer> {
        let limits = limits.validated();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(mux::Shared {
            proxy: proxy.clone(),
            limits,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_abort: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            counters: mux::Counters::default(),
        });
        let accept_closed = Arc::new(AtomicBool::new(false));
        let inboxes = (0..shared.limits.reader_threads)
            .map(|_| mux::Inbox::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let mux_threads = inboxes
            .iter()
            .map(|inbox| {
                let shared = shared.clone();
                let inbox = inbox.clone();
                std::thread::spawn(move || mux::run_mux(shared, inbox))
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            let inboxes = inboxes.clone();
            let accept_closed = accept_closed.clone();
            std::thread::spawn(move || accept_loop(listener, shared, inboxes, accept_closed))
        };
        let janitor = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let mut ticks: u64 = 0;
                while !shared.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(25));
                    ticks += 1;
                    if ticks.is_multiple_of(10) {
                        let _ = shared.proxy.engine().autosnapshot_tick();
                    }
                }
            })
        };
        Ok(NetServer {
            proxy,
            addr,
            shared,
            accept_closed,
            inboxes,
            acceptor: Some(acceptor),
            mux_threads,
            janitor: Some(janitor),
        })
    }

    /// Binds `addr` over a *durable* proxy rooted at `persist.dir`: an
    /// empty directory starts fresh, a directory holding a previous
    /// run's WAL/snapshot is recovered first, so a restarted server
    /// resumes serving exactly the acknowledged state of the previous
    /// run. Returns the server plus the recovery report.
    pub fn spawn_persistent(
        persist: &cryptdb_server::PersistConfig,
        mk: [u8; 32],
        config: cryptdb_core::proxy::ProxyConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<(NetServer, cryptdb_engine::EngineRecovery)> {
        NetServer::spawn_persistent_with(persist, mk, config, addr, NetLimits::default())
    }

    /// [`NetServer::spawn_persistent`] with explicit limits.
    pub fn spawn_persistent_with(
        persist: &cryptdb_server::PersistConfig,
        mk: [u8; 32],
        config: cryptdb_core::proxy::ProxyConfig,
        addr: impl ToSocketAddrs,
        limits: NetLimits,
    ) -> io::Result<(NetServer, cryptdb_engine::EngineRecovery)> {
        let (proxy, recovery) = cryptdb_server::open_persistent(persist, mk, config)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok((NetServer::spawn_with(proxy, addr, limits)?, recovery))
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy this front-end serves.
    pub fn proxy(&self) -> &Arc<Proxy> {
        &self.proxy
    }

    /// Current serving-edge statistics.
    pub fn stats(&self) -> NetStats {
        let c = &self.shared.counters;
        let durability = self.proxy.engine().durability_stats();
        let plans = self.proxy.plan_cache_stats();
        NetStats {
            live_connections: c.live.load(Ordering::Acquire),
            inflight_statements: self.shared.inflight.load(Ordering::Acquire),
            shed_connections: c.shed_connections.load(Ordering::Relaxed),
            rejected_statements: c.rejected_statements.load(Ordering::Relaxed),
            evicted_slow_consumers: c.evicted_slow_consumers.load(Ordering::Relaxed),
            handshake_timeouts: c.handshake_timeouts.load(Ordering::Relaxed),
            idle_timeouts: c.idle_timeouts.load(Ordering::Relaxed),
            degraded: durability.degraded,
            shed_writes: c.shed_writes.load(Ordering::Relaxed),
            wal_append_failures: durability.wal_append_failures,
            snapshot_failures: durability.snapshot_failures,
            plans_cached: plans.cached,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            plans_invalidated: plans.invalidated,
            reader_wakeups: c.reader_wakeups.load(Ordering::Relaxed),
        }
    }

    fn wake_all(&self) {
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
    }

    fn stop_accepting(&mut self) {
        self.accept_closed.store(true, Ordering::Release);
        // Poke the blocking accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Graceful drain shutdown: stop accepting, stop reading, let every
    /// queued statement finish and its response flush, then close. At
    /// `timeout`, stragglers are force-closed — their queued-but-
    /// unstarted statements are dropped *unacknowledged* (consistent
    /// with the WAL recovery oracle, which only promises acknowledged
    /// statements), while statements already executing run to
    /// completion. Finishes with a WAL fsync so every acknowledged
    /// statement is durable, then joins all serving threads.
    pub fn drain(mut self, timeout: Duration) -> DrainReport {
        let t0 = Instant::now();
        self.stop_accepting();
        self.shared.draining.store(true, Ordering::Release);
        self.wake_all();
        let deadline = t0 + timeout;
        while self.shared.counters.live.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.shared.counters.live.load(Ordering::Acquire) > 0 {
            self.shared.drain_abort.store(true, Ordering::Release);
            self.wake_all();
            // Bounded by the longest single executing statement: the
            // abort dropped everything still queued.
            while self.shared.counters.live.load(Ordering::Acquire) > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.wake_all();
        for h in self.mux_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.janitor.take() {
            let _ = h.join();
        }
        let wal_synced = self.proxy.engine().wal_sync().is_ok();
        DrainReport {
            drained_connections: self.shared.counters.drained.load(Ordering::Relaxed),
            aborted_connections: self.shared.counters.aborted.load(Ordering::Relaxed),
            wal_synced,
            elapsed: t0.elapsed(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_accepting();
        self.shared.shutdown.store(true, Ordering::Release);
        self.wake_all();
        for h in self.mux_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.janitor.take() {
            let _ = h.join();
        }
        // Connections handed off after their mux thread exited (the
        // acceptor raced shutdown): pre-handshake, no session, no
        // principal — dropping the stream is the whole teardown.
        for inbox in &self.inboxes {
            for conn in inbox.queue.lock().unwrap().drain(..) {
                mux::release_counts(&self.shared, &conn);
            }
        }
    }
}

/// The acceptor thread: admission control happens here. Under the cap a
/// connection is handed to `inboxes[id % N]`; over the cap it is still
/// adopted but *doomed* — the mux reads its startup packet and answers
/// `FATAL` SQLSTATE `53300` in-protocol. Only when doomed connections
/// themselves pile past the cap (a genuine accept flood) does the
/// acceptor fall back to writing the refusal straight into the socket.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<mux::Shared>,
    inboxes: Vec<Arc<mux::Inbox>>,
    accept_closed: Arc<AtomicBool>,
) {
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if accept_closed.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let live = shared.counters.live.load(Ordering::Acquire);
        let admitted = shared.counters.admitted.load(Ordering::Acquire);
        let doomed = admitted >= shared.limits.max_connections;
        if doomed {
            shared
                .counters
                .shed_connections
                .fetch_add(1, Ordering::Relaxed);
            if live >= shared.limits.max_connections * 2 {
                // Hard backstop: refuse without entering the mux.
                shed_raw(&shared, stream);
                continue;
            }
        }
        let id = next_id;
        next_id += 1;
        let inbox = &inboxes[(id as usize) % inboxes.len()];
        let Ok(conn) = mux::Conn::new(id, stream, inbox.waker.clone(), doomed) else {
            continue;
        };
        shared.counters.live.fetch_add(1, Ordering::AcqRel);
        if !doomed {
            shared.counters.admitted.fetch_add(1, Ordering::AcqRel);
        }
        inbox.queue.lock().unwrap().push(conn);
        inbox.waker.wake();
    }
}

/// Last-resort shed without parsing the startup packet: drain whatever
/// the client has already sent, write the refusal, and half-close.
/// Closing with unread bytes queued would turn the close into a TCP
/// reset racing the refusal, so the drain is what makes the shed
/// observable as a clean FATAL. The read is bounded by a short timeout
/// so a silent socket cannot pin the acceptor; the common shed path
/// still goes through a doomed mux connection.
fn shed_raw(shared: &mux::Shared, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.limits.write_timeout));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 1024];
    let _ = (&stream).read(&mut scratch);
    let mut out = Vec::new();
    protocol::push_frame(
        &mut out,
        b'E',
        &protocol::error_body("FATAL", "53300", "sorry, too many clients already"),
    );
    let _ = (&stream).write_all(&out);
    let _ = stream.shutdown(Shutdown::Write);
}

/// The command-tag verb for a statement: the leading keyword, plus the
/// object kind for CREATE/DROP (PostgreSQL tags are `CREATE TABLE`,
/// `INSERT 0 n`, `SELECT n`, ...).
fn command_verb(sql: &str) -> String {
    let mut words = sql.split_whitespace();
    let first = words.next().unwrap_or("OK").to_uppercase();
    if first == "CREATE" || first == "DROP" {
        if let Some(second) = words.next() {
            return format!("{first} {}", second.to_uppercase());
        }
    }
    first
}

/// SQLSTATE for a proxy error (the `C` field of `ErrorResponse`).
fn sqlstate(e: &ProxyError) -> &'static str {
    match e {
        ProxyError::Parse(_) => "42601",           // syntax_error
        ProxyError::Schema(_) => "42000",          // syntax_error_or_access_rule_violation
        ProxyError::NeedsPlaintext(_) => "0A000",  // feature_not_supported
        ProxyError::PolicyViolation(_) => "42501", // insufficient_privilege
        ProxyError::KeyUnavailable(_) => "28000",  // invalid_authorization_specification
        ProxyError::Canceled(_) => "57014",        // query_canceled (statement timeout)
        ProxyError::Overloaded(_) => "53400",      // configuration_limit_exceeded
        ProxyError::Degraded(_) => "53100",        // disk_full (degraded read-only mode)
        ProxyError::Conflict(_) => "40001",        // serialization_failure
        ProxyError::Aborted(_) => "25P02",         // in_failed_sql_transaction
        ProxyError::OutOfRange(_) => "22003",      // numeric_value_out_of_range
        ProxyError::Crypto(_) | ProxyError::Engine(_) => "XX000", // internal_error
    }
}

/// Renders one decrypted cell in PostgreSQL text format.
fn render_cell(v: &Value) -> Option<Vec<u8>> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(i.to_string().into_bytes()),
        Value::Str(s) => Some(s.clone().into_bytes()),
        Value::Bytes(b) => {
            let mut out = b"\\x".to_vec();
            for byte in b {
                out.extend_from_slice(format!("{byte:02x}").as_bytes());
            }
            Some(out)
        }
    }
}

/// Per-column type OID: inferred from the first non-NULL cell (the
/// engine's columns are homogeneously typed once decrypted).
fn infer_oids(columns: &[String], rows: &[Vec<Value>]) -> Vec<(String, i32)> {
    columns
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let oid = rows
                .iter()
                .find_map(|row| match row.get(i) {
                    Some(Value::Int(_)) => Some(protocol::OID_INT8),
                    Some(Value::Str(_)) => Some(protocol::OID_TEXT),
                    Some(Value::Bytes(_)) => Some(protocol::OID_BYTEA),
                    _ => None,
                })
                .unwrap_or(protocol::OID_TEXT);
            (name.clone(), oid)
        })
        .collect()
}

/// Frames one statement's result: `RowDescription` + `DataRow`s +
/// `CommandComplete`, or just the completion tag for writes/DDL.
fn push_query_result(out: &mut Vec<u8>, verb: &str, result: &QueryResult) {
    match result {
        QueryResult::Rows { columns, rows } => {
            let described = infer_oids(columns, rows);
            protocol::push_frame(out, b'T', &protocol::row_description_body(&described));
            for row in rows {
                let cells: Vec<Option<Vec<u8>>> = row.iter().map(render_cell).collect();
                protocol::push_frame(out, b'D', &protocol::data_row_body(&cells));
            }
            protocol::push_frame(
                out,
                b'C',
                &protocol::command_complete_body(&format!("SELECT {}", rows.len())),
            );
        }
        QueryResult::Affected(n) => {
            let tag = if verb == "INSERT" {
                format!("INSERT 0 {n}")
            } else {
                format!("{verb} {n}")
            };
            protocol::push_frame(out, b'C', &protocol::command_complete_body(&tag));
        }
        QueryResult::Ok => {
            protocol::push_frame(out, b'C', &protocol::command_complete_body(verb));
        }
    }
}
