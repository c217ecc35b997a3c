//! An in-memory SQL DBMS with user-defined functions.
//!
//! This crate is the substitute for the paper's unmodified MySQL/Postgres
//! server (see DESIGN.md). CryptDB's architecture demands only two things
//! of the DBMS: standard SQL processing, and the ability to register UDFs
//! that compute on ciphertexts (`DECRYPT_RND`, `HOM_SUM`, `SEARCH_MATCH`,
//! `JOIN_ADJ`, ...). The engine is therefore completely CryptDB-agnostic —
//! it stores opaque values, maintains B-tree indexes over them, and calls
//! whatever UDFs the proxy registered, exactly like the paper's server-side
//! deployment.
//!
//! Features:
//!
//! * tables with `Int`/`Text` columns storing [`Value`]s (`NULL`, integer,
//!   string, raw bytes — ciphertexts are bytes),
//! * secondary B-tree indexes used for equality and range predicates
//!   (indexes over DET/OPE ciphertexts work; over RND they are useless,
//!   which is why the proxy peels onions for predicates, §3.2),
//! * a query executor with selection push-down, hash equi-joins, grouping
//!   and aggregates, `ORDER BY`/`LIMIT`, `DISTINCT`,
//! * scalar and aggregate UDF registries,
//! * hash-sharded row storage with per-shard reader/writer locks (the
//!   table lock is only a schema/DDL lock), so multi-core throughput
//!   scales even when every writer targets the same table (Fig. 10's
//!   shape without the single-table write cliff),
//! * snapshot transactions (`BEGIN`/`COMMIT`/`ROLLBACK`).

#![forbid(unsafe_code)]

mod engine;
mod error;
mod exec;
mod table;
mod txn;
mod udf;
mod value;
mod wal_store;

pub use engine::{DurabilityStats, Engine, EngineRecovery, QueryResult};
pub use error::EngineError;
pub use table::{ColumnMeta, RowIter, ShardWriteSet, Table, TableView};
pub use txn::{Txn, LOCK_WAIT};
pub use udf::{AggregateUdf, ScalarUdf, UdfRegistry};
pub use value::Value;
pub use wal_store::WalOp;
// Durability configuration types, re-exported so callers configure
// persistence without depending on cryptdb-wal directly.
pub use cryptdb_wal::{FaultPlan, FsyncPolicy, RecoveryReport, TailState, WalConfig, WalStats};
