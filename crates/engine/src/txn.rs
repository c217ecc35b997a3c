//! Transactions owned by the sessions that run them: handles, undo
//! logs, and the registry row-lock waits go through.

use crate::error::EngineError;
use crate::table::Table;
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a write waits for another transaction's row lock before
/// it fails with [`EngineError::Conflict`].
pub const LOCK_WAIT: Duration = Duration::from_secs(2);

/// A session's transaction handle: passed to
/// [`Engine::execute_in`](crate::Engine::execute_in) with every
/// statement the session runs. Idle until `BEGIN`; statements run on an
/// idle handle autocommit.
///
/// `BEGIN` opens a transaction with a fresh id and an empty undo log;
/// every write it then makes records its inverse (the before-image the
/// statement already computes for its own atomicity) and takes a write
/// lock on each row it touches, kept beside the row in its shard until
/// the transaction ends. `COMMIT` drops the log; `ROLLBACK` applies it
/// in reverse. Nothing is copied at `BEGIN`, so a transaction costs
/// what it writes.
///
/// A write to a row another open transaction holds waits for that
/// transaction to end, up to [`LOCK_WAIT`], holding no engine lock while
/// it waits. A wait that would close a cycle, or outlasts the bound,
/// fails with [`EngineError::Conflict`] (SQLSTATE 40001) and aborts the
/// waiter's transaction: its writes then fail with
/// [`EngineError::TxnAborted`] until `ROLLBACK` (or `COMMIT`) ends the
/// block. Reads never wait and see uncommitted writes.
///
/// Dropping a handle with an open transaction leaves it open: end it
/// with [`Engine::end_session`](crate::Engine::end_session).
#[derive(Default)]
pub struct Txn {
    /// Held shared for the whole of a write, exclusively by `BEGIN`,
    /// `COMMIT` and `ROLLBACK`: threads sharing one handle never see a
    /// transaction end in the middle of a statement.
    pub(crate) slot: RwLock<Slot>,
}

impl Txn {
    /// A handle with no transaction open.
    pub fn new() -> Txn {
        Txn::default()
    }

    /// True between `BEGIN` and the `COMMIT`/`ROLLBACK` that ends it
    /// (an aborted transaction counts as open until then).
    pub fn is_open(&self) -> bool {
        !matches!(*self.slot.read(), Slot::Idle)
    }
}

#[derive(Default)]
pub(crate) enum Slot {
    #[default]
    Idle,
    Open(Arc<OpenTxn>),
    /// A lock conflict rolled the transaction back: writes fail until
    /// the session ends the block with `ROLLBACK` or `COMMIT`.
    Aborted,
}

/// One open transaction.
pub(crate) struct OpenTxn {
    pub(crate) id: u64,
    pub(crate) log: Mutex<TxnLog>,
}

impl OpenTxn {
    pub(crate) fn new(id: u64) -> OpenTxn {
        OpenTxn {
            id,
            log: Mutex::new(TxnLog::default()),
        }
    }
}

#[derive(Default)]
pub(crate) struct TxnLog {
    /// The inverse of every write that reached the log, oldest first.
    pub(crate) undo: Vec<Undo>,
    /// A WAL record carries this transaction's id, so its end must be
    /// logged too.
    pub(crate) logged: bool,
}

/// The inverse of one applied op. Tables are named as the statement
/// named them and resolved when undone.
pub(crate) enum Undo {
    Inserted {
        table: String,
        rowid: u64,
    },
    Updated {
        table: String,
        rowid: u64,
        col: usize,
        old: Value,
    },
    Deleted {
        table: String,
        rowid: u64,
        row: Vec<Value>,
    },
    Created {
        table: String,
    },
    Dropped {
        table: String,
        handle: Arc<RwLock<Table>>,
    },
    Indexed {
        table: String,
        column: String,
    },
}

impl Undo {
    /// The row whose write lock this entry holds.
    pub(crate) fn row(&self) -> Option<(&str, u64)> {
        match self {
            Undo::Inserted { table, rowid }
            | Undo::Updated { table, rowid, .. }
            | Undo::Deleted { table, rowid, .. } => Some((table, *rowid)),
            _ => None,
        }
    }
}

/// Registry of open transactions and of which one waits for which.
#[derive(Default)]
pub(crate) struct Txns {
    next_id: AtomicU64,
    table: std::sync::Mutex<TxnTable>,
    /// Notified whenever a transaction ends.
    ended: std::sync::Condvar,
}

#[derive(Default)]
struct TxnTable {
    open: HashMap<u64, Arc<OpenTxn>>,
    /// Waiter → owner whose row lock it waits for (acyclic: a wait that
    /// would close a cycle fails instead).
    waits_for: HashMap<u64, u64>,
}

impl Txns {
    fn table(&self) -> std::sync::MutexGuard<'_, TxnTable> {
        self.table.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a transaction with a fresh id.
    pub(crate) fn begin(&self) -> Arc<OpenTxn> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let open = Arc::new(OpenTxn::new(id));
        self.table().open.insert(id, open.clone());
        open
    }

    /// Ids handed out from now on exceed `id` (recovery: never reuse an id
    /// the log already carries).
    pub(crate) fn reserve(&self, id: u64) {
        self.next_id.fetch_max(id, Ordering::Relaxed);
    }

    /// Forgets an ended transaction and wakes its waiters.
    pub(crate) fn end(&self, id: u64) {
        self.table().open.remove(&id);
        self.ended.notify_all();
    }

    pub(crate) fn is_open(&self, id: u64) -> bool {
        self.table().open.contains_key(&id)
    }

    /// True if some open transaction has a record in the log — a
    /// snapshot now could not be rolled back past.
    pub(crate) fn any_logged(&self) -> bool {
        self.table().open.values().any(|t| t.log.lock().logged)
    }

    /// True if an open transaction updated one of `cols` of `table` or
    /// deleted a row from it: its undo log holds
    /// before-images an adjustment of those columns would strand.
    pub(crate) fn wrote_any(&self, table: &str, cols: &[usize]) -> bool {
        self.table().open.values().any(|t| {
            t.log.lock().undo.iter().any(|u| match u {
                Undo::Updated { table: t, col, .. } => {
                    t.eq_ignore_ascii_case(table) && cols.contains(col)
                }
                Undo::Deleted { table: t, .. } => t.eq_ignore_ascii_case(table),
                _ => false,
            })
        })
    }

    /// Blocks until transaction `owner` ends. `waiter` is the waiting
    /// transaction's id (0 for an autocommit statement, which holds no
    /// row locks and so can close no cycle). Fails with a conflict if
    /// waiting would deadlock or `owner` outlasts [`LOCK_WAIT`].
    pub(crate) fn wait_for(&self, waiter: u64, owner: u64) -> Result<(), EngineError> {
        let deadline = Instant::now() + LOCK_WAIT;
        let mut t = self.table();
        if waiter != 0 {
            let mut at = owner;
            while let Some(&next) = t.waits_for.get(&at) {
                if next == waiter {
                    return Err(EngineError::Conflict(format!(
                        "deadlock: transaction {waiter} waits for {owner}, which waits for it"
                    )));
                }
                at = next;
            }
            t.waits_for.insert(waiter, owner);
        }
        let result = loop {
            if !t.open.contains_key(&owner) {
                break Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(EngineError::Conflict(format!(
                    "row locked by transaction {owner} for longer than {LOCK_WAIT:?}"
                )));
            }
            t = self
                .ended
                .wait_timeout(t, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        };
        t.waits_for.remove(&waiter);
        result
    }
}
