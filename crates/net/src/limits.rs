//! Serving-edge resource limits ([`NetLimits`]).
//!
//! Every bound the wire front-end enforces lives here, with its shed
//! behaviour documented next to the knob. The defaults are sized for
//! the repo's own harnesses (hundreds of connections on a developer
//! machine); a deployment would tune them to its fd budget and worker
//! pool.

use std::time::Duration;

/// Resource limits and deadlines for the multiplexed wire front-end.
///
/// Construct with struct-update syntax over [`NetLimits::default`]:
///
/// ```
/// use cryptdb_net::NetLimits;
/// let limits = NetLimits {
///     max_connections: 64,
///     reader_threads: 2,
///     ..NetLimits::default()
/// };
/// ```
///
/// The shed points, in the order a statement meets them:
///
/// 1. **Connection cap** ([`max_connections`]): connections over the
///    cap are refused at accept time with `FATAL` SQLSTATE `53300`
///    ("too many connections") before the server reads a single byte.
/// 2. **Handshake deadline** ([`handshake_deadline`]): a connection
///    that has not completed startup + authentication in time is closed
///    with `FATAL` `08P01` — a slowloris dribbling its startup packet
///    pins no thread, only one fd and a small buffer.
/// 3. **Ingress bound** ([`ingress_statements`]): a pipelining client
///    with this many statements queued or executing stops being *read*
///    (TCP backpressure); nothing is dropped.
/// 4. **In-flight budget** ([`max_inflight_statements`]): statements
///    admitted past the global budget are answered with `ERROR` `53400`
///    ("configuration limit exceeded") in pipeline order; the
///    connection stays usable.
/// 5. **Statement deadline** ([`statement_deadline`]): a statement
///    still waiting in its session queue when its deadline expires is
///    answered with `ERROR` `57014` ("query canceled") without
///    executing. Statements already executing always run to completion.
/// 6. **Egress bound + slow-consumer grace** ([`egress_bytes`],
///    [`slow_consumer_grace`]): responses queue per connection; a
///    connection over its egress bound stops being read, and if it
///    stays over the bound past the grace period (the client is not
///    draining its socket) it is evicted outright.
/// 7. **Idle deadline** ([`idle_deadline`], off by default): an
///    authenticated connection with no traffic in this window is closed
///    with `FATAL` `57P05`.
/// 8. **Prepared-statement cap** ([`max_prepared_statements`]): a
///    `Parse` naming a new statement once the per-connection map is
///    full draws `ERROR` `53400` (and puts the extended protocol in its
///    error state until `Sync`); `Close` frees slots.
///
/// [`max_connections`]: NetLimits::max_connections
/// [`handshake_deadline`]: NetLimits::handshake_deadline
/// [`ingress_statements`]: NetLimits::ingress_statements
/// [`max_inflight_statements`]: NetLimits::max_inflight_statements
/// [`statement_deadline`]: NetLimits::statement_deadline
/// [`egress_bytes`]: NetLimits::egress_bytes
/// [`slow_consumer_grace`]: NetLimits::slow_consumer_grace
/// [`idle_deadline`]: NetLimits::idle_deadline
/// [`max_prepared_statements`]: NetLimits::max_prepared_statements
#[derive(Clone, Debug)]
pub struct NetLimits {
    /// Multiplexer threads servicing all connections (default 2). Each
    /// connection is pinned to one thread; the threads run no statement
    /// but a bounded prepared read, so a handful serve hundreds of
    /// sockets.
    pub reader_threads: usize,
    /// Admission cap on simultaneously open connections (default 256).
    /// Excess connections are shed with `FATAL` SQLSTATE `53300`.
    pub max_connections: usize,
    /// Global budget of statements queued or executing across all
    /// connections (default 128). Statements over budget are rejected
    /// with `ERROR` SQLSTATE `53400` in pipeline order.
    pub max_inflight_statements: usize,
    /// Per-connection bound on statements queued or executing before
    /// the multiplexer stops reading that socket (default 8). This is
    /// backpressure, not shedding: TCP flow control pushes the stall
    /// back to the client.
    pub ingress_statements: usize,
    /// Per-connection bound on buffered response bytes before the
    /// multiplexer stops reading that socket (default 4 MiB). A single
    /// response may burst past the bound (responders never block), so
    /// worst-case memory per connection is `ingress_statements` × the
    /// largest response, not `egress_bytes`.
    pub egress_bytes: usize,
    /// Largest accepted frame body (default 16 MiB, must fit `i32`). A
    /// declared length beyond this is a malformed frame (`FATAL`
    /// `08P01`), not an allocation request.
    pub max_frame: usize,
    /// Write timeout for the few remaining *blocking* writes (the
    /// admission-shed `ErrorResponse` written before a refused
    /// connection closes; default 30 s). Multiplexed connections do not
    /// use it — their write stalls are governed by
    /// [`NetLimits::slow_consumer_grace`].
    pub write_timeout: Duration,
    /// Deadline for completing startup + authentication (default 5 s).
    pub handshake_deadline: Duration,
    /// Close authenticated connections idle longer than this (default
    /// `None`: idle connections are legitimate and cost one fd).
    pub idle_deadline: Option<Duration>,
    /// Queue-wait deadline applied to every statement (default `None`).
    pub statement_deadline: Option<Duration>,
    /// How long a connection may stay at or over its egress bound
    /// before it is evicted as a slow consumer (default 2 s).
    pub slow_consumer_grace: Duration,
    /// Per-connection cap on named prepared statements held at once
    /// (default 64). A `Parse` that would grow the map past the cap is
    /// answered with `ERROR` SQLSTATE `53400`; the unnamed statement
    /// and redefinitions of an existing name never count against it.
    pub max_prepared_statements: usize,
}

impl Default for NetLimits {
    fn default() -> Self {
        NetLimits {
            reader_threads: 2,
            max_connections: 256,
            max_inflight_statements: 128,
            ingress_statements: 8,
            egress_bytes: 4 * 1024 * 1024,
            max_frame: crate::protocol::MAX_FRAME,
            write_timeout: Duration::from_secs(30),
            handshake_deadline: Duration::from_secs(5),
            idle_deadline: None,
            statement_deadline: None,
            slow_consumer_grace: Duration::from_secs(2),
            max_prepared_statements: 64,
        }
    }
}

impl NetLimits {
    /// Clamps nonsensical values into the representable range: at least
    /// one reader thread, one connection, one in-flight statement and
    /// one queued statement per connection; `max_frame` within
    /// `[64, i32::MAX - 4]` so declared lengths cannot overflow the
    /// wire format's `i32` length word.
    pub(crate) fn validated(mut self) -> Self {
        self.reader_threads = self.reader_threads.max(1);
        self.max_connections = self.max_connections.max(1);
        self.max_inflight_statements = self.max_inflight_statements.max(1);
        self.ingress_statements = self.ingress_statements.max(1);
        self.max_prepared_statements = self.max_prepared_statements.max(1);
        self.max_frame = self.max_frame.clamp(64, i32::MAX as usize - 4);
        self
    }
}
