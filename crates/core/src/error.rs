//! Proxy errors.

use cryptdb_engine::EngineError;
use cryptdb_sqlparser::ParseError;
use std::fmt;

/// Errors surfaced by the CryptDB proxy.
#[derive(Debug)]
pub enum ProxyError {
    /// SQL failed to parse.
    Parse(ParseError),
    /// The DBMS rejected a (rewritten) statement.
    Engine(EngineError),
    /// The query needs a computation CryptDB cannot run over ciphertext
    /// (§8.2 "needs plaintext"): string/date manipulation, bitwise ops,
    /// arithmetic-and-compare on one column, LIKE with a column pattern...
    NeedsPlaintext(String),
    /// The adjustment would expose a layer below the developer's minimum
    /// onion layer for the column (§3.5.1).
    PolicyViolation(String),
    /// Multi-principal key chain cannot reach the required key (no
    /// authorised user is logged in).
    KeyUnavailable(String),
    /// Ciphertext failed to decrypt or decode.
    Crypto(String),
    /// Schema inconsistency (unknown table/column, duplicate, ...).
    Schema(String),
    /// The statement was cancelled before execution (deadline expired or
    /// the session was torn down while it was still queued).
    Canceled(String),
    /// The serving edge refused the statement up front because an
    /// admission budget (in-flight statement cap, queue bound) was
    /// exhausted; the client may retry once load drops.
    Overloaded(String),
    /// The statement could not run without breaking another open
    /// transaction — a row-lock wait failed (which also aborted this
    /// session's transaction) or an onion adjustment would strand an
    /// open transaction's before-images. Retry the transaction
    /// (SQLSTATE 40001).
    Conflict(String),
    /// A lock conflict aborted this session's transaction: writes are
    /// refused until `ROLLBACK` (SQLSTATE 25P02).
    Aborted(String),
    /// An integer result left the 64-bit range (SQLSTATE 22003).
    OutOfRange(String),
    /// The durability layer cannot log writes (disk full or I/O error):
    /// the engine is in degraded read-only mode. Reads keep serving;
    /// writes are shed and resume automatically once log appends
    /// succeed — no restart required.
    Degraded(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Parse(e) => write!(f, "{e}"),
            ProxyError::Engine(e) => write!(f, "engine: {e}"),
            ProxyError::NeedsPlaintext(m) => write!(f, "needs plaintext: {m}"),
            ProxyError::PolicyViolation(m) => write!(f, "policy violation: {m}"),
            ProxyError::KeyUnavailable(m) => write!(f, "key unavailable: {m}"),
            ProxyError::Crypto(m) => write!(f, "crypto: {m}"),
            ProxyError::Schema(m) => write!(f, "schema: {m}"),
            ProxyError::Canceled(m) => write!(f, "canceled: {m}"),
            ProxyError::Overloaded(m) => write!(f, "overloaded: {m}"),
            ProxyError::Conflict(m) => write!(f, "could not serialize access: {m}"),
            ProxyError::Aborted(m) => write!(f, "{m}"),
            ProxyError::OutOfRange(m) => write!(f, "out of range: {m}"),
            ProxyError::Degraded(m) => write!(f, "degraded: {m}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<ParseError> for ProxyError {
    fn from(e: ParseError) -> Self {
        ProxyError::Parse(e)
    }
}

impl From<EngineError> for ProxyError {
    fn from(e: EngineError) -> Self {
        match e {
            // Keep the degraded class visible across the layer boundary
            // so the serving edge maps it to SQLSTATE 53100 and the shed
            // machinery can tell it from an engine-side statement error.
            EngineError::Degraded(m) => ProxyError::Degraded(m),
            // Likewise the transaction classes a client must tell apart
            // (retry, or end the aborted block) and numeric overflow.
            EngineError::Conflict(m) => ProxyError::Conflict(m),
            e @ EngineError::TxnAborted => ProxyError::Aborted(e.to_string()),
            EngineError::Overflow(m) => ProxyError::OutOfRange(m),
            other => ProxyError::Engine(other),
        }
    }
}
