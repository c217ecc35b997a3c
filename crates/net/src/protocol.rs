//! Minimal PostgreSQL wire-format (protocol 3.0) codec, shared by the
//! server and the [`NetClient`](crate::NetClient) test helper.
//!
//! Only the subset the front-end speaks is implemented: the startup
//! handshake (plus `SSLRequest` refusal), cleartext-password
//! authentication, the simple-query cycle (`Q` →
//! `RowDescription`/`DataRow`/`CommandComplete`/`ErrorResponse` →
//! `ReadyForQuery`) and `Terminate`. All integers are big-endian; all
//! strings are NUL-terminated, per the PostgreSQL frontend/backend
//! protocol documentation.

use std::io::{self, Read, Write};

/// Protocol version 3.0 (`3 << 16`).
pub const PROTOCOL_V3: i32 = 196_608;
/// Magic "protocol version" of an `SSLRequest` startup packet.
pub const SSL_REQUEST: i32 = 80_877_103;
/// Magic "protocol version" of a `CancelRequest` startup packet.
pub const CANCEL_REQUEST: i32 = 80_877_102;

/// Hard cap on a frame body (bytes). A declared length beyond this is
/// treated as a malformed frame, not an allocation request — one broken
/// or adversarial client must not make the server balloon memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// `RowDescription` type OID for 64-bit integers (`int8`).
pub const OID_INT8: i32 = 20;
/// `RowDescription` type OID for `bytea`.
pub const OID_BYTEA: i32 = 17;
/// `RowDescription` type OID for `text`.
pub const OID_TEXT: i32 = 25;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_exact_buf(r: &mut impl Read, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_i32(r: &mut impl Read) -> io::Result<i32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(i32::from_be_bytes(b))
}

/// A parsed startup packet: protocol version + parameter pairs.
#[derive(Debug)]
pub struct Startup {
    /// Protocol version or request magic ([`PROTOCOL_V3`],
    /// [`SSL_REQUEST`], [`CANCEL_REQUEST`]).
    pub protocol: i32,
    /// `key → value` startup parameters (`user`, `database`, ...).
    pub params: Vec<(String, String)>,
}

impl Startup {
    /// The named startup parameter, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a startup packet (no leading type byte, unlike every later
/// frame). `SSLRequest`/`CancelRequest` packets carry no parameters.
pub fn read_startup(r: &mut impl Read) -> io::Result<Startup> {
    let len = read_i32(r)?;
    if !(8..=MAX_FRAME as i32 + 4).contains(&len) {
        return Err(bad(format!("startup length {len} out of range")));
    }
    let body = read_exact_buf(r, len as usize - 4)?;
    parse_startup_body(&body)
}

/// Decodes a startup packet body (everything after the length word).
fn parse_startup_body(body: &[u8]) -> io::Result<Startup> {
    if body.len() < 4 {
        return Err(bad("startup body too short"));
    }
    let protocol = i32::from_be_bytes(body[0..4].try_into().unwrap());
    let mut params = Vec::new();
    if protocol == PROTOCOL_V3 {
        let mut rest = &body[4..];
        loop {
            let (s, tail) = take_cstr(rest)?;
            if s.is_empty() {
                break;
            }
            let (v, tail) = take_cstr(tail)?;
            params.push((s, v));
            rest = tail;
        }
    }
    Ok(Startup { protocol, params })
}

/// Incremental twin of [`read_startup`] for the non-blocking mux loop:
/// attempts to decode one startup packet from the front of `buf`.
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some((startup,
/// consumed)))` on success (the caller drains `consumed` bytes), and
/// `Err` for malformed input (out-of-range length, bad strings).
/// `max_frame` bounds the declared packet length so an adversarial
/// 4-byte prefix cannot reserve gigabytes (`max_frame` must fit in
/// `i32`, which [`crate::NetLimits`] guarantees).
pub fn try_parse_startup(buf: &[u8], max_frame: usize) -> io::Result<Option<(Startup, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = i32::from_be_bytes(buf[0..4].try_into().unwrap());
    if !(8..=max_frame as i32 + 4).contains(&len) {
        return Err(bad(format!("startup length {len} out of range")));
    }
    let total = len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((parse_startup_body(&buf[4..total])?, total)))
}

/// Writes a protocol-3.0 startup packet with the given parameters.
pub fn write_startup(w: &mut impl Write, params: &[(&str, &str)]) -> io::Result<()> {
    let mut body = Vec::new();
    body.extend_from_slice(&PROTOCOL_V3.to_be_bytes());
    for (k, v) in params {
        body.extend_from_slice(k.as_bytes());
        body.push(0);
        body.extend_from_slice(v.as_bytes());
        body.push(0);
    }
    body.push(0);
    w.write_all(&(body.len() as i32 + 4).to_be_bytes())?;
    w.write_all(&body)
}

fn take_cstr(buf: &[u8]) -> io::Result<(String, &[u8])> {
    let nul = buf
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| bad("unterminated string"))?;
    let s = String::from_utf8(buf[..nul].to_vec()).map_err(|_| bad("non-UTF-8 string"))?;
    Ok((s, &buf[nul + 1..]))
}

/// Reads one typed frame: `(tag, body)`. Returns
/// [`io::ErrorKind::InvalidData`] for out-of-range lengths (malformed
/// frame) and ordinary I/O errors for truncation/disconnect.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let len = read_i32(r)?;
    if !(4..=MAX_FRAME as i32 + 4).contains(&len) {
        return Err(bad(format!("frame length {len} out of range")));
    }
    let body = read_exact_buf(r, len as usize - 4)?;
    Ok((tag[0], body))
}

/// Incremental twin of [`read_frame`] for the non-blocking mux loop:
/// attempts to decode one typed frame from the front of `buf`. Returns
/// `Ok(None)` when more bytes are needed, `Ok(Some((tag, body,
/// consumed)))` on success, and `Err` for a malformed length — the
/// declared length is validated against `max_frame` *before* the body
/// arrives, so a hostile 5-byte prefix is rejected without buffering.
pub fn try_parse_frame(buf: &[u8], max_frame: usize) -> io::Result<Option<(u8, Vec<u8>, usize)>> {
    if buf.len() < 5 {
        return Ok(None);
    }
    let tag = buf[0];
    let len = i32::from_be_bytes(buf[1..5].try_into().unwrap());
    if !(4..=max_frame as i32 + 4).contains(&len) {
        return Err(bad(format!("frame length {len} out of range")));
    }
    let total = 1 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((tag, buf[5..total].to_vec(), total)))
}

/// Appends one typed frame to an output buffer, so a whole request or
/// response goes out in one write.
pub fn push_frame(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(body.len() as i32 + 4).to_be_bytes());
    out.extend_from_slice(body);
}

/// `AuthenticationCleartextPassword` body.
pub fn auth_cleartext_body() -> Vec<u8> {
    3i32.to_be_bytes().to_vec()
}

/// `AuthenticationOk` body.
pub fn auth_ok_body() -> Vec<u8> {
    0i32.to_be_bytes().to_vec()
}

/// `ReadyForQuery` body (always idle: the front-end does not expose
/// multi-statement transactions' state).
pub fn ready_body() -> Vec<u8> {
    vec![b'I']
}

/// Builds a `RowDescription` body from `(name, type_oid)` columns.
/// Text format (format code 0) for every field.
pub fn row_description_body(columns: &[(String, i32)]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(columns.len() as i16).to_be_bytes());
    for (name, oid) in columns {
        body.extend_from_slice(name.as_bytes());
        body.push(0);
        body.extend_from_slice(&0i32.to_be_bytes()); // table OID
        body.extend_from_slice(&0i16.to_be_bytes()); // attribute number
        body.extend_from_slice(&oid.to_be_bytes());
        body.extend_from_slice(&(-1i16).to_be_bytes()); // type size
        body.extend_from_slice(&(-1i32).to_be_bytes()); // type modifier
        body.extend_from_slice(&0i16.to_be_bytes()); // format: text
    }
    body
}

/// Builds a `DataRow` body; `None` cells are SQL NULL.
pub fn data_row_body(cells: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(cells.len() as i16).to_be_bytes());
    for cell in cells {
        match cell {
            None => body.extend_from_slice(&(-1i32).to_be_bytes()),
            Some(bytes) => {
                body.extend_from_slice(&(bytes.len() as i32).to_be_bytes());
                body.extend_from_slice(bytes);
            }
        }
    }
    body
}

/// Builds a `CommandComplete` body from a tag like `SELECT 3`.
pub fn command_complete_body(tag: &str) -> Vec<u8> {
    let mut body = tag.as_bytes().to_vec();
    body.push(0);
    body
}

/// Builds an `ErrorResponse` body (severity, SQLSTATE code, message).
pub fn error_body(severity: &str, code: &str, message: &str) -> Vec<u8> {
    let mut body = Vec::new();
    for (field, value) in [(b'S', severity), (b'C', code), (b'M', message)] {
        body.push(field);
        body.extend_from_slice(value.as_bytes());
        body.push(0);
    }
    body.push(0);
    body
}

/// Parses an `ErrorResponse` body into (severity, code, message).
pub fn parse_error_body(body: &[u8]) -> (String, String, String) {
    let mut severity = String::new();
    let mut code = String::new();
    let mut message = String::new();
    let mut rest = body;
    while let Some((&field, tail)) = rest.split_first() {
        if field == 0 {
            break;
        }
        let Ok((value, tail)) = take_cstr(tail) else {
            break;
        };
        match field {
            b'S' => severity = value,
            b'C' => code = value,
            b'M' => message = value,
            _ => {}
        }
        rest = tail;
    }
    (severity, code, message)
}

/// Reads the single NUL-terminated string of a `PasswordMessage` or
/// `Query` body.
pub fn parse_cstr_body(body: &[u8]) -> io::Result<String> {
    let (s, _) = take_cstr(body)?;
    Ok(s)
}

// ---- extended-protocol frame bodies ----

fn take_i16(buf: &[u8]) -> io::Result<(i16, &[u8])> {
    if buf.len() < 2 {
        return Err(bad("truncated int16"));
    }
    Ok((i16::from_be_bytes(buf[0..2].try_into().unwrap()), &buf[2..]))
}

fn take_i32(buf: &[u8]) -> io::Result<(i32, &[u8])> {
    if buf.len() < 4 {
        return Err(bad("truncated int32"));
    }
    Ok((i32::from_be_bytes(buf[0..4].try_into().unwrap()), &buf[4..]))
}

/// Parses a `Parse` body: statement name, query text, and the client's
/// parameter-type OID hints (which this front-end accepts but ignores —
/// parameter types come from the rewrite plan).
pub fn parse_parse_body(body: &[u8]) -> io::Result<(String, String, Vec<i32>)> {
    let (name, rest) = take_cstr(body)?;
    let (sql, rest) = take_cstr(rest)?;
    let (n, mut rest) = take_i16(rest)?;
    if n < 0 {
        return Err(bad("negative parameter-type count"));
    }
    let mut oids = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (oid, tail) = take_i32(rest)?;
        oids.push(oid);
        rest = tail;
    }
    Ok((name, sql, oids))
}

/// Raw text-form parameter values from a `Bind` body (`None` = NULL).
pub type BindValues = Vec<Option<Vec<u8>>>;

/// Parses a `Bind` body: portal name, statement name, and the text-form
/// parameter values (`None` = NULL). Binary parameter or result format
/// codes are rejected — this front-end is text-only.
pub fn parse_bind_body(body: &[u8]) -> io::Result<(String, String, BindValues)> {
    let (portal, rest) = take_cstr(body)?;
    let (stmt, rest) = take_cstr(rest)?;
    let (nfmt, mut rest) = take_i16(rest)?;
    if nfmt < 0 {
        return Err(bad("negative format-code count"));
    }
    for _ in 0..nfmt {
        let (code, tail) = take_i16(rest)?;
        if code != 0 {
            return Err(bad("binary parameter format not supported"));
        }
        rest = tail;
    }
    let (nparams, mut rest) = take_i16(rest)?;
    if nparams < 0 {
        return Err(bad("negative parameter count"));
    }
    let mut params = Vec::with_capacity(nparams as usize);
    for _ in 0..nparams {
        let (len, tail) = take_i32(rest)?;
        if len < 0 {
            params.push(None);
            rest = tail;
        } else {
            let len = len as usize;
            if tail.len() < len {
                return Err(bad("truncated parameter value"));
            }
            params.push(Some(tail[..len].to_vec()));
            rest = &tail[len..];
        }
    }
    let (nres, mut rest) = take_i16(rest)?;
    if nres < 0 {
        return Err(bad("negative result-format count"));
    }
    for _ in 0..nres {
        let (code, tail) = take_i16(rest)?;
        if code != 0 {
            return Err(bad("binary result format not supported"));
        }
        rest = tail;
    }
    let _ = rest;
    Ok((portal, stmt, params))
}

/// Parses a `Describe` or `Close` body: target kind (`'S'` statement /
/// `'P'` portal) plus name.
pub fn parse_describe_body(body: &[u8]) -> io::Result<(u8, String)> {
    let Some((&kind, rest)) = body.split_first() else {
        return Err(bad("empty describe/close body"));
    };
    if kind != b'S' && kind != b'P' {
        return Err(bad("describe/close target must be 'S' or 'P'"));
    }
    let (name, _) = take_cstr(rest)?;
    Ok((kind, name))
}

/// Parses an `Execute` body: portal name plus max-row count (0 = all;
/// this front-end always returns all rows, per its documented subset).
pub fn parse_execute_body(body: &[u8]) -> io::Result<(String, i32)> {
    let (portal, rest) = take_cstr(body)?;
    let (maxrows, _) = take_i32(rest)?;
    Ok((portal, maxrows))
}

/// Builds a `ParameterDescription` body from parameter type OIDs.
pub fn param_description_body(oids: &[i32]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(oids.len() as i16).to_be_bytes());
    for oid in oids {
        body.extend_from_slice(&oid.to_be_bytes());
    }
    body
}
