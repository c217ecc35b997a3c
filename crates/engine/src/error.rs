//! Engine errors.

use std::fmt;

/// Errors produced by the SQL engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    TableNotFound(String),
    TableExists(String),
    ColumnNotFound(String),
    AmbiguousColumn(String),
    ArityMismatch {
        expected: usize,
        found: usize,
    },
    TypeMismatch(String),
    UnknownFunction(String),
    Udf(String),
    Unsupported(String),
    NoActiveTransaction,
    /// The statement could not run without breaking another open
    /// transaction (SQLSTATE 40001): a row lock outlasted the wait bound
    /// or waiting would deadlock — either aborts the writer's own
    /// transaction — or an onion adjustment would strand an open
    /// transaction's before-images.
    Conflict(String),
    /// A lock conflict rolled this session's transaction back; writes
    /// fail until the session ends the block (SQLSTATE 25P02).
    TxnAborted,
    /// An integer aggregate left the 64-bit range (SQLSTATE 22003).
    Overflow(String),
    /// Write-ahead-log failure (I/O, injected fault, or a record the
    /// replay codec cannot decode).
    Wal(String),
    /// The engine could not log this write (disk full or I/O error) and
    /// is in degraded read-only mode: the statement had no effect, reads
    /// keep serving, and writes are accepted again automatically once
    /// log appends succeed.
    Degraded(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TableNotFound(t) => write!(f, "table not found: {t}"),
            EngineError::TableExists(t) => write!(f, "table already exists: {t}"),
            EngineError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            EngineError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            EngineError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            EngineError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EngineError::UnknownFunction(n) => write!(f, "unknown function: {n}"),
            EngineError::Udf(m) => write!(f, "UDF error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::NoActiveTransaction => write!(f, "no active transaction"),
            EngineError::Conflict(m) => write!(f, "could not serialize access: {m}"),
            EngineError::TxnAborted => write!(
                f,
                "current transaction is aborted, writes are refused until ROLLBACK"
            ),
            EngineError::Overflow(m) => write!(f, "out of range: {m}"),
            EngineError::Wal(m) => write!(f, "wal: {m}"),
            EngineError::Degraded(m) => write!(f, "degraded: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<cryptdb_wal::WalError> for EngineError {
    fn from(e: cryptdb_wal::WalError) -> Self {
        EngineError::Wal(e.to_string())
    }
}
