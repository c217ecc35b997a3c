//! The proxy's secret schema state.
//!
//! The proxy stores "the database schema, and the current encryption
//! layers of all columns", while "the DBMS server sees an anonymized
//! schema (in which table and column names are replaced by opaque
//! identifiers)" (§3).

use crate::colcrypt::OnionSet;
use crate::error::ProxyError;
use crate::onion::{EqLevel, OrdLevel, SecLevel};
use cryptdb_sqlparser::{ColumnType, EncFor, SpeaksFor};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Proxy-side state of one column.
#[derive(Clone, Debug)]
pub struct ColumnState {
    pub name: String,
    /// The column's own table (lowercase) — the stable key-derivation
    /// path component, unaffected by join re-keying.
    pub table: String,
    pub ty: ColumnType,
    /// Anonymised base name (`c3`); onion columns are `c3_eq`, `c3_ord`,
    /// `c3_add`, `c3_srch`, and the shared IV `c3_iv`.
    pub anon: String,
    /// False = stored in plaintext (§3.5.2 developer annotations).
    pub sensitive: bool,
    /// Multi-principal annotation, if any (§4.1 step 2).
    pub enc_for: Option<EncFor>,
    pub onions: OnionSet,
    pub eq_level: EqLevel,
    pub ord_level: OrdLevel,
    /// `(table, column)` whose JOIN-ADJ key currently keys this column's
    /// tags — initially itself; changed by join adjustments (§3.4).
    pub join_owner: (String, String),
    /// Set when an increment UPDATE made the Eq/Ord/Search onions stale
    /// (§3.3, write queries); reads are served from Add until refresh.
    pub stale: bool,
    /// Developer's minimum onion layer (§3.5.1).
    pub min_level: Option<SecLevel>,
    /// Range-join group (shared OPE key), if declared ahead of time (§3.4).
    pub ope_group: Option<String>,
    /// False when the adjustable JOIN layer was discarded for this column
    /// (§3.5.2 "discard onion layers that are not needed"): Eq blobs then
    /// carry only the DET ciphertext, and joins are refused.
    pub has_jtag: bool,
    /// True once a query actually used the Search onion. Unused onions are
    /// discarded in steady-state accounting (§3.5.2), so SEARCH counts
    /// toward MinEnc only when exercised.
    pub search_used: bool,
}

impl ColumnState {
    /// Anonymised onion column names.
    pub fn anon_iv(&self) -> String {
        format!("{}_iv", self.anon)
    }
    pub fn anon_eq(&self) -> String {
        format!("{}_eq", self.anon)
    }
    pub fn anon_ord(&self) -> String {
        format!("{}_ord", self.anon)
    }
    pub fn anon_add(&self) -> String {
        format!("{}_add", self.anon)
    }
    pub fn anon_srch(&self) -> String {
        format!("{}_srch", self.anon)
    }
    /// Every anonymised column an encrypted column may occupy: the IV
    /// and the four onions.
    pub fn anon_columns(&self) -> Vec<String> {
        vec![
            self.anon_iv(),
            self.anon_eq(),
            self.anon_ord(),
            self.anon_add(),
            self.anon_srch(),
        ]
    }

    /// The weakest scheme currently exposed on any onion — the paper's
    /// MinEnc metric (§8.3).
    pub fn min_enc(&self) -> SecLevel {
        if !self.sensitive {
            return SecLevel::Plain;
        }
        if self.onions.ord && self.ord_level == OrdLevel::Ope {
            return SecLevel::Ope;
        }
        if self.onions.eq && self.eq_level == EqLevel::Det {
            return SecLevel::Det;
        }
        if self.onions.search && self.search_used {
            return SecLevel::Search;
        }
        SecLevel::Rnd
    }

    /// Whether the column already offers what `need` asks of it, so no
    /// adjustment is due. The rewriter records a requirement only for a
    /// need this denies, and each adjustment returns early on it.
    pub(crate) fn offers(&self, need: Need<'_>) -> bool {
        match need {
            Need::Det => !self.sensitive || !self.onions.eq || self.eq_level == EqLevel::Det,
            Need::Ope => !self.sensitive || !self.onions.ord || self.ord_level == OrdLevel::Ope,
            Need::Search => !self.sensitive || self.search_used,
            Need::Fresh => !self.stale,
            Need::Stale => self.stale,
            Need::JoinWith(other) => self.join_owner == other.join_owner,
        }
    }

    /// Enforces the §3.5.1 minimum-layer floor for a prospective exposure.
    pub fn check_floor(&self, target: SecLevel) -> Result<(), ProxyError> {
        if let Some(floor) = self.min_level {
            if target.strength() < floor.strength() {
                return Err(ProxyError::PolicyViolation(format!(
                    "column {} must stay at {floor} or above; query needs {target}",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// What a rewritten statement relies on a column offering (§3.2).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Need<'a> {
    /// The Eq onion peeled to DET.
    Det,
    /// The Ord onion peeled to OPE.
    Ope,
    /// The Search onion counted as used.
    Search,
    /// Eq and Ord onions current (no increment since the last refresh).
    Fresh,
    /// Eq and Ord onions marked stale, as an increment leaves them.
    Stale,
    /// JOIN-ADJ tags under the same key as this column's (§3.4).
    JoinWith(&'a ColumnState),
}

/// Proxy-side state of one table.
#[derive(Clone, Debug)]
pub struct TableState {
    pub name: String,
    /// Anonymised table name (`table1`).
    pub anon: String,
    pub columns: Vec<ColumnState>,
    /// SPEAKS-FOR annotations attached to this table (§4.1 step 3).
    pub speaks_for: Vec<SpeaksFor>,
    /// Monotone row counter backing the hidden `rid` column the proxy
    /// adds to every encrypted table (used for stale-column refresh).
    ///
    /// Shared (`Arc`) and atomic, so every schema version and every
    /// clone of this table state allocates from one counter: rid
    /// allocation never needs a schema change.
    pub next_rid: Arc<AtomicI64>,
}

impl TableState {
    /// Atomically allocates `n` consecutive rids, returning the first.
    /// Callable on any clone of the table state — the counter is shared.
    pub fn alloc_rids(&self, n: i64) -> i64 {
        self.next_rid.fetch_add(n, Ordering::Relaxed)
    }

    /// Case-insensitive column lookup.
    pub fn column(&self, name: &str) -> Option<&ColumnState> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Mutable column lookup.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut ColumnState> {
        self.columns
            .iter_mut()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// The whole proxy schema: plaintext name → table state.
#[derive(Clone, Debug, Default)]
pub struct EncSchema {
    tables: HashMap<String, TableState>,
    next_table_id: usize,
    /// Mirror of the principal types registered with the key manager
    /// (`PRINCTYPE` statements), `(name, external)`. Kept here so schema
    /// metadata serialized to the WAL is sufficient to rebuild the access
    /// graph's type registry on recovery.
    princ_types: Vec<(String, bool)>,
}

impl EncSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next anonymised table name.
    pub fn next_anon_table(&mut self) -> String {
        self.next_table_id += 1;
        format!("table{}", self.next_table_id)
    }

    /// Registers a table.
    pub fn insert(&mut self, table: TableState) -> Result<(), ProxyError> {
        let key = table.name.to_lowercase();
        if self.tables.contains_key(&key) {
            return Err(ProxyError::Schema(format!(
                "table {} already exists",
                table.name
            )));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Removes a table, returning it.
    pub fn remove(&mut self, name: &str) -> Option<TableState> {
        self.tables.remove(&name.to_lowercase())
    }

    /// Case-insensitive table lookup.
    pub fn table(&self, name: &str) -> Result<&TableState, ProxyError> {
        self.tables
            .get(&name.to_lowercase())
            .ok_or_else(|| ProxyError::Schema(format!("unknown table {name}")))
    }

    /// Mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableState, ProxyError> {
        self.tables
            .get_mut(&name.to_lowercase())
            .ok_or_else(|| ProxyError::Schema(format!("unknown table {name}")))
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &TableState> {
        self.tables.values()
    }

    /// Records a registered principal type (idempotent).
    pub fn register_princ_type(&mut self, name: &str, external: bool) {
        if !self.princ_types.iter().any(|(n, _)| n == name) {
            self.princ_types.push((name.to_string(), external));
        }
    }

    /// Principal types registered so far, `(name, external)`.
    pub fn princ_types(&self) -> &[(String, bool)] {
        &self.princ_types
    }

    /// Anonymised-table-name counter, for metadata serialization.
    pub fn next_table_id(&self) -> usize {
        self.next_table_id
    }

    /// Restores the anonymised-table-name counter (recovery only).
    pub fn set_next_table_id(&mut self, id: usize) {
        self.next_table_id = self.next_table_id.max(id);
    }

    /// Columns currently sharing a JOIN-ADJ key owner — the §3.4
    /// transitivity group of `(table, col)`.
    pub fn join_group_members(&self, owner: &(String, String)) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for t in self.tables.values() {
            for c in &t.columns {
                if &c.join_owner == owner {
                    out.push((t.name.clone(), c.name.clone()));
                }
            }
        }
        out
    }
}

/// One published schema version: an immutable [`EncSchema`] and its
/// number. A statement walks, binds and decrypts against one version.
#[derive(Clone, Debug)]
pub(crate) struct SchemaVersion {
    pub schema: Arc<EncSchema>,
    pub epoch: u64,
}

impl Deref for SchemaVersion {
    type Target = EncSchema;

    fn deref(&self) -> &EncSchema {
        &self.schema
    }
}

/// The proxy's schema, published copy-on-write.
///
/// `current` holds the live version; its lock is held only to clone or
/// swap the pointer, so no reader waits behind a schema change.
/// `writer` orders schema changes against cell writers: a change holds
/// it exclusively ([`Self::write`]) from its first read to its publish,
/// and a statement that writes cells holds it shared ([`Self::shared`])
/// while the version its cells were encrypted under is still the live
/// one, through its engine call, so no adjustment re-encodes a column
/// in between. Neither side is reentrant.
pub(crate) struct SchemaCell {
    current: RwLock<SchemaVersion>,
    writer: RwLock<()>,
}

impl SchemaCell {
    pub fn new() -> Self {
        SchemaCell {
            current: RwLock::new(SchemaVersion {
                schema: Arc::new(EncSchema::new()),
                epoch: 0,
            }),
            writer: RwLock::new(()),
        }
    }

    /// The live version.
    pub fn snapshot(&self) -> SchemaVersion {
        self.current.read().clone()
    }

    /// The live version's number.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Holds off every schema change until the guard drops.
    pub fn shared(&self) -> RwLockReadGuard<'_, ()> {
        self.writer.read()
    }

    /// Starts a schema change, once every other change and every shared
    /// holder is done.
    pub fn write(&self) -> SchemaWriter<'_> {
        let guard = self.writer.write();
        let live = self.snapshot();
        SchemaWriter {
            cell: self,
            _guard: guard,
            base_epoch: live.epoch,
            accepted: live.schema,
            changed: false,
        }
    }
}

/// One exclusive schema-change section. Edits go to a [`Self::draft`];
/// a draft whose change reached the log is [`Self::accept`]ed. Dropping
/// the section publishes the last accepted draft as the next version:
/// once however many drafts it accepted, and not at all if none.
pub(crate) struct SchemaWriter<'a> {
    cell: &'a SchemaCell,
    _guard: RwLockWriteGuard<'a, ()>,
    base_epoch: u64,
    accepted: Arc<EncSchema>,
    changed: bool,
}

impl SchemaWriter<'_> {
    /// What the section will publish: the last accepted draft, numbered.
    pub fn version(&self) -> SchemaVersion {
        SchemaVersion {
            schema: self.accepted.clone(),
            epoch: self.base_epoch + u64::from(self.changed),
        }
    }

    /// The last accepted draft (the live schema until one is accepted).
    pub fn schema(&self) -> &EncSchema {
        &self.accepted
    }

    /// A copy of [`Self::schema`] to edit.
    pub fn draft(&self) -> EncSchema {
        (*self.accepted).clone()
    }

    /// Takes `draft` as the schema to publish.
    pub fn accept(&mut self, draft: EncSchema) {
        self.accepted = Arc::new(draft);
        self.changed = true;
    }
}

impl Drop for SchemaWriter<'_> {
    fn drop(&mut self) {
        if self.changed {
            *self.cell.current.write() = self.version();
        }
    }
}
