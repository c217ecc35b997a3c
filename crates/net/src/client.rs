//! [`NetClient`]: a real-socket pgwire-subset client.
//!
//! This is the test/bench counterpart of [`NetServer`](crate::NetServer):
//! it performs the startup + cleartext-auth handshake and the simple-
//! query cycle over an actual `TcpStream`, so the end-to-end harness
//! (and its serial-oracle comparison) exercises the full wire path —
//! frame encoding, the per-connection reader, pool-chained execution,
//! and response framing — not an in-process shortcut.
//!
//! Every request is framed into one buffer and sent with one write:
//! the startup packet, the password, a `Q`, `Parse`+`Describe`+`Sync`,
//! `Bind`+`Execute`+`Sync`, `Close`+`Sync`, and `Terminate` each reach
//! the server as one segment, as a pipelining client library's would.

use crate::protocol;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Errors a wire client can observe.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server sent an `ErrorResponse`.
    Server {
        /// Severity field (`ERROR`, `FATAL`).
        severity: String,
        /// SQLSTATE code field.
        code: String,
        /// Human-readable message field.
        message: String,
    },
    /// The server sent a frame the subset client cannot interpret.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Server {
                severity,
                code,
                message,
            } => write!(f, "{severity} {code}: {message}"),
            WireError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One simple-query result decoded from the wire.
#[derive(Debug, Clone)]
pub struct WireQueryResult {
    /// `(name, type_oid)` per column from `RowDescription` (empty for
    /// writes/DDL, which send only `CommandComplete`).
    pub columns: Vec<(String, i32)>,
    /// Text-format cells; `None` is SQL NULL.
    pub rows: Vec<Vec<Option<String>>>,
    /// The `CommandComplete` tag (`SELECT 3`, `INSERT 0 1`, ...).
    pub command_tag: String,
}

impl WireQueryResult {
    /// Canonical text form mirroring
    /// `cryptdb_engine::QueryResult::canonical_text` byte-for-byte:
    /// `|`-joined cells, rows sorted, ints bare, strings quoted with
    /// `\\`/`\n`/`|` escaped, bytes as bare hex, NULL as `NULL`. Two
    /// logical states compare equal through the wire iff they compare
    /// equal in-process — the property the wire oracle gate rides.
    pub fn canonical_text(&self) -> String {
        let fmt_cell = |(cell, &(_, oid)): (&Option<String>, &(String, i32))| -> String {
            let Some(text) = cell else {
                return "NULL".into();
            };
            match oid {
                protocol::OID_INT8 => text.clone(),
                protocol::OID_BYTEA => text.strip_prefix("\\x").unwrap_or(text).to_string(),
                _ => format!(
                    "'{}'",
                    text.replace('\\', "\\\\")
                        .replace('\n', "\\n")
                        .replace('|', "\\|")
                ),
            }
        };
        let mut lines: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.columns)
                    .map(fmt_cell)
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        lines.sort_unstable();
        lines.join("\n")
    }
}

/// What the server advertised for a named statement at prepare time
/// ([`NetClient::prepare`]): `ParameterDescription` OIDs plus the
/// `RowDescription` (empty when the statement returns no rows —
/// `NoData`).
#[derive(Debug, Clone)]
pub struct WirePrepared {
    /// Parameter type OIDs, one per `$n` slot (20 = int8, 25 = text).
    pub param_oids: Vec<i32>,
    /// `(name, type_oid)` per result column; empty for writes/DDL and
    /// generic plans (`NoData`).
    pub columns: Vec<(String, i32)>,
}

/// Connection-establishment knobs: attempts, timeout, backoff.
///
/// The defaults (3 attempts, 1 s connect timeout, ~100 ms jittered
/// exponential backoff) ride out the window where a crashed server is
/// being restarted and recovering its WAL — exactly when clients
/// reconnect in a thundering herd, hence the jitter.
#[derive(Clone, Debug)]
pub struct ConnectConfig {
    /// Total connection attempts before giving up (min 1).
    pub attempts: u32,
    /// Per-attempt connect timeout.
    pub timeout: std::time::Duration,
    /// Base backoff between attempts; attempt `k` sleeps
    /// `base × 2^k` plus up to 50% random jitter.
    pub backoff: std::time::Duration,
}

impl Default for ConnectConfig {
    fn default() -> Self {
        ConnectConfig {
            attempts: 3,
            timeout: std::time::Duration::from_secs(1),
            backoff: std::time::Duration::from_millis(100),
        }
    }
}

/// A synchronous pgwire-subset client over one TCP connection. Each
/// request cycle is sent as one `write`.
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Resolves and connects with a per-attempt timeout, retrying with
/// jittered exponential backoff.
fn connect_retry(addr: impl ToSocketAddrs, cfg: &ConnectConfig) -> io::Result<TcpStream> {
    use rand::Rng;
    let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        ));
    }
    let attempts = cfg.attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        for a in &addrs {
            match TcpStream::connect_timeout(a, cfg.timeout) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        if attempt + 1 < attempts {
            let base = cfg.backoff.saturating_mul(1u32 << attempt.min(16));
            let jitter = 1.0 + rand::thread_rng().gen::<f64>() * 0.5;
            std::thread::sleep(base.mul_f64(jitter));
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
}

impl NetClient {
    /// Connects and completes the startup + cleartext-password
    /// handshake. `user` names the principal; a non-empty `password`
    /// logs it in server-side (§4.2), an empty one requests a
    /// master-key session. Uses the default [`ConnectConfig`] (3
    /// attempts, jittered exponential backoff, 1 s connect timeout).
    pub fn connect(
        addr: impl ToSocketAddrs,
        user: &str,
        password: &str,
    ) -> Result<NetClient, WireError> {
        Self::connect_with(addr, user, password, &ConnectConfig::default())
    }

    /// [`Self::connect`] with explicit retry/timeout/backoff knobs.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        user: &str,
        password: &str,
        cfg: &ConnectConfig,
    ) -> Result<NetClient, WireError> {
        let stream = connect_retry(addr, cfg)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = NetClient {
            writer: stream,
            reader,
        };
        let mut startup = Vec::new();
        protocol::write_startup(&mut startup, &[("user", user), ("database", "cryptdb")])?;
        client.writer.write_all(&startup)?;
        loop {
            let (tag, body) = protocol::read_frame(&mut client.reader)?;
            match tag {
                b'R' if body.len() >= 4 => {
                    let code = i32::from_be_bytes(body[0..4].try_into().unwrap());
                    match code {
                        3 => {
                            let mut pw = password.as_bytes().to_vec();
                            pw.push(0);
                            client.send(&[(b'p', &pw)])?;
                        }
                        0 => {}
                        other => {
                            return Err(WireError::Protocol(format!(
                                "unsupported auth request {other}"
                            )))
                        }
                    }
                }
                b'S' | b'K' | b'N' => {}
                b'Z' => return Ok(client),
                b'E' => {
                    let (severity, code, message) = protocol::parse_error_body(&body);
                    return Err(WireError::Server {
                        severity,
                        code,
                        message,
                    });
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected handshake frame {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    /// Runs one simple query (`Q`) and decodes the response cycle
    /// through `ReadyForQuery`. A server `ErrorResponse` becomes
    /// [`WireError::Server`] (the connection stays usable, as in
    /// PostgreSQL).
    pub fn simple_query(&mut self, sql: &str) -> Result<WireQueryResult, WireError> {
        let mut body = sql.as_bytes().to_vec();
        body.push(0);
        self.send(&[(b'Q', &body)])?;
        let mut result = WireQueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            command_tag: String::new(),
        };
        let mut error: Option<WireError> = None;
        loop {
            let (tag, body) = protocol::read_frame(&mut self.reader)?;
            match tag {
                b'T' => result.columns = parse_row_description(&body)?,
                b'D' => result.rows.push(parse_data_row(&body)?),
                b'C' => result.command_tag = protocol::parse_cstr_body(&body)?,
                b'E' => {
                    let (severity, code, message) = protocol::parse_error_body(&body);
                    let fatal = severity == "FATAL";
                    error = Some(WireError::Server {
                        severity,
                        code,
                        message,
                    });
                    if fatal {
                        // No ReadyForQuery follows a FATAL; the server
                        // is closing this connection.
                        return Err(error.unwrap());
                    }
                }
                // EmptyQueryResponse: an empty query string ran; the
                // result stays empty with an empty command tag.
                b'I' => {}
                b'N' | b'S' => {}
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(result),
                    }
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected frame {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    /// Prepares a named server-side statement over the extended
    /// protocol: sends `Parse` + `Describe`(statement) + `Sync` and
    /// decodes through `ReadyForQuery`. A server error (e.g. `42P05`
    /// duplicate name, `42601` syntax) is returned after the `Sync`
    /// cycle completes, so the connection stays usable.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<WirePrepared, WireError> {
        let mut parse = Vec::new();
        parse.extend_from_slice(name.as_bytes());
        parse.push(0);
        parse.extend_from_slice(sql.as_bytes());
        parse.push(0);
        parse.extend_from_slice(&0i16.to_be_bytes());
        let mut describe = vec![b'S'];
        describe.extend_from_slice(name.as_bytes());
        describe.push(0);
        self.send(&[(b'P', &parse), (b'D', &describe), (b'S', &[])])?;
        let mut prepared = WirePrepared {
            param_oids: Vec::new(),
            columns: Vec::new(),
        };
        let mut error: Option<WireError> = None;
        loop {
            let (tag, body) = protocol::read_frame(&mut self.reader)?;
            match tag {
                b'1' | b'n' | b'N' | b'S' => {}
                b't' => prepared.param_oids = parse_param_description(&body)?,
                b'T' => prepared.columns = parse_row_description(&body)?,
                b'E' => {
                    let (severity, code, message) = protocol::parse_error_body(&body);
                    let fatal = severity == "FATAL";
                    error = Some(WireError::Server {
                        severity,
                        code,
                        message,
                    });
                    if fatal {
                        return Err(error.unwrap());
                    }
                }
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(prepared),
                    }
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected frame {:?} in prepare cycle",
                        other as char
                    )))
                }
            }
        }
    }

    /// Executes a previously [`prepare`](Self::prepare)d statement:
    /// sends `Bind` (unnamed portal, text-format parameters; `None` is
    /// NULL) + `Execute` + `Sync` and decodes through `ReadyForQuery`.
    /// An empty prepared statement yields an empty result with an
    /// empty command tag (`EmptyQueryResponse`).
    pub fn execute_prepared(
        &mut self,
        name: &str,
        params: &[Option<String>],
    ) -> Result<WireQueryResult, WireError> {
        let mut bind = Vec::new();
        bind.push(0); // unnamed portal
        bind.extend_from_slice(name.as_bytes());
        bind.push(0);
        bind.extend_from_slice(&0i16.to_be_bytes()); // all-text param formats
        bind.extend_from_slice(&(params.len() as i16).to_be_bytes());
        for p in params {
            match p {
                None => bind.extend_from_slice(&(-1i32).to_be_bytes()),
                Some(text) => {
                    bind.extend_from_slice(&(text.len() as i32).to_be_bytes());
                    bind.extend_from_slice(text.as_bytes());
                }
            }
        }
        bind.extend_from_slice(&0i16.to_be_bytes()); // all-text result formats
        let mut execute = Vec::new();
        execute.push(0); // unnamed portal
        execute.extend_from_slice(&0i32.to_be_bytes()); // no row limit
        self.send(&[(b'B', &bind), (b'E', &execute), (b'S', &[])])?;
        let mut result = WireQueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            command_tag: String::new(),
        };
        let mut error: Option<WireError> = None;
        loop {
            let (tag, body) = protocol::read_frame(&mut self.reader)?;
            match tag {
                b'2' | b'I' | b'N' | b'S' => {}
                b'T' => result.columns = parse_row_description(&body)?,
                b'D' => result.rows.push(parse_data_row(&body)?),
                b'C' => result.command_tag = protocol::parse_cstr_body(&body)?,
                b'E' => {
                    let (severity, code, message) = protocol::parse_error_body(&body);
                    let fatal = severity == "FATAL";
                    error = Some(WireError::Server {
                        severity,
                        code,
                        message,
                    });
                    if fatal {
                        return Err(error.unwrap());
                    }
                }
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(result),
                    }
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected frame {:?} in execute cycle",
                        other as char
                    )))
                }
            }
        }
    }

    /// Closes a named server-side statement (`Close` + `Sync`). Absent
    /// names succeed — `Close` is idempotent on the wire.
    pub fn close_statement(&mut self, name: &str) -> Result<(), WireError> {
        let mut close = vec![b'S'];
        close.extend_from_slice(name.as_bytes());
        close.push(0);
        self.send(&[(b'C', &close), (b'S', &[])])?;
        let mut error: Option<WireError> = None;
        loop {
            let (tag, body) = protocol::read_frame(&mut self.reader)?;
            match tag {
                b'3' | b'N' | b'S' => {}
                b'E' => {
                    let (severity, code, message) = protocol::parse_error_body(&body);
                    let fatal = severity == "FATAL";
                    error = Some(WireError::Server {
                        severity,
                        code,
                        message,
                    });
                    if fatal {
                        return Err(error.unwrap());
                    }
                }
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected frame {:?} in close cycle",
                        other as char
                    )))
                }
            }
        }
    }

    /// Sends raw bytes down the socket (fault injection for the
    /// malformed-frame and abrupt-disconnect tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Frames one request into one buffer and sends it with one
    /// `write_all`: with `TCP_NODELAY` set, frames written separately
    /// would leave as separate segments, each waking the server's mux
    /// thread.
    fn send(&mut self, frames: &[(u8, &[u8])]) -> io::Result<()> {
        let mut out = Vec::new();
        for (tag, body) in frames {
            protocol::push_frame(&mut out, *tag, body);
        }
        self.writer.write_all(&out)
    }

    /// Reads one raw frame (test hook for asserting on server behaviour
    /// outside the simple-query cycle).
    pub fn read_raw_frame(&mut self) -> io::Result<(u8, Vec<u8>)> {
        protocol::read_frame(&mut self.reader)
    }

    /// Sends `Terminate` and closes the connection.
    pub fn terminate(mut self) -> io::Result<()> {
        self.send(&[(b'X', &[])])?;
        self.writer.shutdown(std::net::Shutdown::Both)
    }
}

/// Decrypted, order-insensitive dump of the given tables *through the
/// socket*: the wire twin of `cryptdb_server::canonical_dump`, built
/// from [`WireQueryResult::canonical_text`]. Both sides of the wire
/// oracle comparison use this, so byte-equality compares logical
/// database state end-to-end through the front-end.
pub fn wire_canonical_dump(
    client: &mut NetClient,
    tables: &[(String, Vec<String>)],
) -> Result<String, WireError> {
    let mut tables: Vec<_> = tables.to_vec();
    tables.sort();
    let mut out = String::new();
    for (table, columns) in &tables {
        let sql = format!("SELECT {} FROM {table}", columns.join(", "));
        let result = client.simple_query(&sql)?;
        out.push_str(&format!("== {table} ==\n"));
        out.push_str(&result.canonical_text());
        out.push('\n');
    }
    Ok(out)
}

fn parse_param_description(body: &[u8]) -> Result<Vec<i32>, WireError> {
    let malformed = || WireError::Protocol("malformed ParameterDescription".into());
    if body.len() < 2 {
        return Err(malformed());
    }
    let n = i16::from_be_bytes(body[0..2].try_into().unwrap());
    let mut oids = Vec::with_capacity(n.max(0) as usize);
    let mut rest = &body[2..];
    for _ in 0..n {
        if rest.len() < 4 {
            return Err(malformed());
        }
        oids.push(i32::from_be_bytes(rest[0..4].try_into().unwrap()));
        rest = &rest[4..];
    }
    Ok(oids)
}

fn parse_row_description(body: &[u8]) -> Result<Vec<(String, i32)>, WireError> {
    let malformed = || WireError::Protocol("malformed RowDescription".into());
    if body.len() < 2 {
        return Err(malformed());
    }
    let n = i16::from_be_bytes(body[0..2].try_into().unwrap());
    let mut columns = Vec::with_capacity(n.max(0) as usize);
    let mut rest = &body[2..];
    for _ in 0..n {
        let nul = rest.iter().position(|&b| b == 0).ok_or_else(malformed)?;
        let name = String::from_utf8(rest[..nul].to_vec()).map_err(|_| malformed())?;
        rest = &rest[nul + 1..];
        if rest.len() < 18 {
            return Err(malformed());
        }
        let oid = i32::from_be_bytes(rest[6..10].try_into().unwrap());
        columns.push((name, oid));
        rest = &rest[18..];
    }
    Ok(columns)
}

fn parse_data_row(body: &[u8]) -> Result<Vec<Option<String>>, WireError> {
    let malformed = || WireError::Protocol("malformed DataRow".into());
    if body.len() < 2 {
        return Err(malformed());
    }
    let n = i16::from_be_bytes(body[0..2].try_into().unwrap());
    let mut cells = Vec::with_capacity(n.max(0) as usize);
    let mut rest = &body[2..];
    for _ in 0..n {
        if rest.len() < 4 {
            return Err(malformed());
        }
        let len = i32::from_be_bytes(rest[0..4].try_into().unwrap());
        rest = &rest[4..];
        if len < 0 {
            cells.push(None);
            continue;
        }
        let len = len as usize;
        if rest.len() < len {
            return Err(malformed());
        }
        let text = String::from_utf8(rest[..len].to_vec()).map_err(|_| malformed())?;
        cells.push(Some(text));
        rest = &rest[len..];
    }
    Ok(cells)
}
