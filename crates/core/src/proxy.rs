//! The CryptDB proxy: rewriting, adjustable encryption, result decryption.
//!
//! Query processing follows the paper's four steps (§3): (1) intercept and
//! rewrite — anonymise names, encrypt constants; (2) adjust onion layers
//! server-side via UDFs when a new computation class appears (§3.2);
//! (3) execute standard SQL on the DBMS; (4) decrypt results.

use crate::colcrypt::{
    self, decrypt_add, decrypt_eq, decrypt_ord, encrypt_eq_constant, encrypt_ord_constant,
    ColumnKeys, EncryptedCell, OnionSet,
};
use crate::error::ProxyError;
use crate::memo::ShardedMemo;
use crate::multiprincipal::{MultiPrincipal, Principal};
use crate::onion::{EqLevel, OpClass, OrdLevel, SecLevel};
use crate::schema::{
    ColumnState, EncSchema, Need, SchemaCell, SchemaVersion, SchemaWriter, TableState,
};
use crate::training::Usage;
use crate::udfs::register_udfs;
use cryptdb_bignum::Ubig;
use cryptdb_crypto::prf::{derive_key, Key};
use cryptdb_crypto::rng::Drbg;
use cryptdb_ecgroup::JoinAdj;
use cryptdb_engine::{Engine, EngineError, QueryResult, Txn, Value};
use cryptdb_ope::Ope;
use cryptdb_paillier::PaillierPrivate;
use cryptdb_runtime::{BlindingPool, BlindingStats, TaskHandle, WorkerPool};
use cryptdb_sqlparser::{
    parse, BinOp, ColumnDef, ColumnRef, CreateTable, Delete, Expr, Insert, Literal, OrderBy,
    Select, SelectItem, SpeakerRef, Stmt, TableRef, Update,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use self::prepared::{Param, PlanCacheStats, PreparedStatement};
pub use cryptdb_sqlparser::ColumnType;

/// Which columns get encrypted.
#[derive(Clone, Debug)]
pub enum EncryptionPolicy {
    /// Encrypt every column (single-principal TPC-C, §8).
    All,
    /// Encrypt only `ENC FOR`-annotated columns (multi-principal apps).
    AnnotatedOnly,
    /// Encrypt annotated columns plus an explicit sensitive set:
    /// table (lowercase) → column names (lowercase).
    Explicit(HashMap<String, Vec<String>>),
}

/// Proxy construction knobs.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// Which columns get encrypted.
    pub policy: EncryptionPolicy,
    /// Paillier modulus bits (the paper uses 1024 → 2048-bit ciphertexts).
    pub paillier_bits: usize,
    /// Crypto-runtime worker threads (0 = size to the machine, capped).
    pub runtime_threads: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            policy: EncryptionPolicy::All,
            paillier_bits: 1024,
            runtime_threads: 0,
        }
    }
}

/// The CryptDB database proxy.
///
/// # Examples
///
/// ```
/// use cryptdb_core::proxy::{Proxy, ProxyConfig};
/// use cryptdb_engine::{Engine, Value};
/// use std::sync::Arc;
///
/// let engine = Arc::new(Engine::new());
/// let mut cfg = ProxyConfig::default();
/// cfg.paillier_bits = 256; // Small key for a fast doctest.
/// let proxy = Proxy::new(engine, [7u8; 32], cfg);
/// proxy.execute("CREATE TABLE emp (id int, name text)").unwrap();
/// proxy.execute("INSERT INTO emp (id, name) VALUES (1, 'alice')").unwrap();
/// let r = proxy.execute("SELECT name FROM emp WHERE id = 1").unwrap();
/// assert_eq!(r.rows()[0][0], Value::Str("alice".into()));
/// ```
pub struct Proxy {
    engine: Arc<Engine>,
    config: ProxyConfig,
    mk: Key,
    /// The secret schema, published as immutable versions; the version
    /// number is the schema epoch. Prepared plans capture the epoch they
    /// were rewritten under and refuse to execute against a newer one,
    /// so a cached plan never outlives its schema.
    schema: SchemaCell,
    paillier: Arc<PaillierPrivate>,
    joinadj: JoinAdj,
    key_cache: RwLock<HashMap<(String, String, Key), Arc<ColumnKeys>>>,
    /// Long-lived crypto worker pool: blinding refills, OPE cache
    /// warming and the serving layer's session statements run here
    /// instead of spawning threads per query. Dropped (and joined) with
    /// the proxy.
    runtime: WorkerPool,
    /// §3.5.2 blinding-factor pool with background watermark refills.
    hom_pool: BlindingPool<Ubig>,
    /// Equality-constant memo (§3.5.2 "caching … encryptions of
    /// frequently used constants"): sharded so concurrent sessions'
    /// lookups don't serialise on one proxy-global lock, and bounded
    /// (like the OPE result cache) so a long-running workload with
    /// many distinct constants cannot grow it without limit.
    eq_memo: ShardedMemo<EqMemoKey, Value>,
    /// Multi-principal state: read lock for key resolution (the
    /// per-query path), write lock for login/logout/delegation.
    mp: RwLock<MultiPrincipal>,
    /// Bounded sharded cache of prepared rewrite plans keyed by the
    /// normalized statement text (the same `ShardedMemo` pattern as
    /// `eq_memo`): repeated `Parse` of one statement shape pays the
    /// parse → rewrite pipeline once.
    plan_cache: ShardedMemo<String, Arc<prepared::PlanEntry>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plans_invalidated: AtomicU64,
    /// The transaction handle [`Proxy::execute`] and
    /// [`Proxy::execute_prepared`] share; sessions bring their own.
    implicit: Txn,
}

/// Cache key for equality-constant encryptions: the column plus the
/// current JOIN-ADJ key owner (re-keying a column naturally invalidates
/// its cached constants).
type EqMemoKey = (String, String, String, String, Value);

/// Bound on memoised equality-constant encryptions — the paper's
/// §3.5.2 "most common values" working set, matching `OpeCached`'s
/// default result cap.
const EQ_MEMO_CAP: usize = 30_000;

/// Blinding-pool watermark floors: a background refill is scheduled as
/// soon as the pool drops below the low mark and tops it back up to the
/// high mark (raised by [`Proxy::precompute_hom`]). The pool sizes both
/// from the observed INSERT take rate × refill lead time, so a demand
/// surge grows them toward the ceiling before the pool can run dry and
/// calm periods settle back to the floors.
const HOM_LOW_WATER: usize = 32;
const HOM_HIGH_WATER: usize = 128;
/// Upper bound on the demand-sized blinding-pool watermarks.
const HOM_WATER_CEILING: usize = 1024;

/// Bound on cached prepared plans. An application's set of distinct
/// statement *shapes* is small (the literals are parameters), so this
/// comfortably covers real workloads while capping memory for an
/// adversarial stream of one-off shapes.
const PLAN_CACHE_CAP: usize = 1024;

impl Proxy {
    /// Creates a proxy in front of `engine` with master key `mk`.
    ///
    /// # Panics
    ///
    /// If the engine cannot create the multi-principal key tables, which
    /// only a failing WAL can cause; [`Self::open_persistent`] returns
    /// that error instead.
    pub fn new(engine: Arc<Engine>, mk: Key, config: ProxyConfig) -> Self {
        MultiPrincipal::create_key_tables(&engine).expect("key tables");
        Self::over(engine, mk, config)
    }

    /// [`Self::new`] over an engine that already holds the key tables.
    fn over(engine: Arc<Engine>, mk: Key, config: ProxyConfig) -> Self {
        // Deterministic Paillier key from the master key: the whole
        // encrypted database is reconstructible from MK alone.
        let mut kdf_rng = Drbg::from_seed(&derive_key(&mk, &["paillier", "keygen"]));
        let paillier = Arc::new(PaillierPrivate::keygen(&mut kdf_rng, config.paillier_bits));
        register_udfs(&engine, paillier.public().clone());
        let joinadj = JoinAdj::new(derive_key(&mk, &["joinadj", "k0"]));
        let runtime = if config.runtime_threads == 0 {
            WorkerPool::with_default_size(8)
        } else {
            WorkerPool::new(config.runtime_threads)
        };
        let hom_pool = {
            let paillier = paillier.clone();
            BlindingPool::new(
                &runtime,
                HOM_LOW_WATER,
                HOM_HIGH_WATER,
                HOM_WATER_CEILING,
                move |n| {
                    let mut rng = rand::thread_rng();
                    paillier.precompute_blinding_batch(&mut rng, n)
                },
            )
        };
        Proxy {
            engine,
            config,
            mk,
            schema: SchemaCell::new(),
            paillier,
            joinadj,
            key_cache: RwLock::new(HashMap::new()),
            runtime,
            hom_pool,
            eq_memo: ShardedMemo::new(EQ_MEMO_CAP),
            mp: RwLock::new(MultiPrincipal::default()),
            plan_cache: ShardedMemo::new(PLAN_CACHE_CAP),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plans_invalidated: AtomicU64::new(0),
            implicit: Txn::new(),
        }
    }

    /// The current schema generation (see [`Self::plan_cache_stats`]).
    /// Every published schema change moves it by one; prepared plans
    /// built under an older epoch are invalidated before their next
    /// execution.
    pub fn schema_epoch(&self) -> u64 {
        self.schema.epoch()
    }

    /// The underlying DBMS (what an adversary at the server sees).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The proxy configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// Read access to the proxy's secret schema state (for reports):
    /// `f` reads the live version and holds no lock.
    pub fn with_schema<R>(&self, f: impl FnOnce(&EncSchema) -> R) -> R {
        f(&self.schema.snapshot())
    }

    /// Registers a named SQL predicate for `SPEAKS FOR ... IF name(...)`
    /// annotations (e.g. HotCRP's NoConflict). `$1`, `$2`, ... in the
    /// template are replaced by the annotation's argument values.
    pub fn register_predicate(&self, name: &str, sql_template: &str) {
        self.mp.write().register_predicate(name, sql_template);
    }

    /// Sets the §3.5.1 minimum onion layer for a column.
    pub fn set_min_level(
        &self,
        table: &str,
        column: &str,
        level: SecLevel,
    ) -> Result<(), ProxyError> {
        let mut w = self.schema.write();
        let mut draft = w.draft();
        draft
            .table_mut(table)?
            .column_mut(column)
            .ok_or_else(|| ProxyError::Schema(format!("unknown column {column}")))?
            .min_level = Some(level);
        self.log_draft(&mut w, draft)
    }

    /// §3.5.2 "discard onion layers that are not needed": drops the
    /// adjustable JOIN layer from every *empty* sensitive column whose
    /// join transitivity group is still a singleton (i.e. the trained
    /// query set never joins it). Inserts then skip the elliptic-curve
    /// JOIN-ADJ tag entirely. Returns the number of columns affected.
    pub fn discard_unused_join_layers(&self) -> usize {
        let mut w = self.schema.write();
        let schema = w.schema();
        let mut targets = Vec::new();
        for t in schema.tables() {
            let empty = self
                .engine
                .with_table(&t.anon, |tab| tab.row_count() == 0)
                .unwrap_or(false);
            if !empty {
                continue;
            }
            for c in &t.columns {
                if c.sensitive
                    && c.has_jtag
                    && c.onions.eq
                    && schema.join_group_members(&c.join_owner).len() <= 1
                {
                    targets.push((t.name.to_lowercase(), c.name.clone()));
                }
            }
        }
        if targets.is_empty() {
            return 0;
        }
        let mut draft = w.draft();
        for (t, c) in &targets {
            if let Ok(col) = rewrite::locked_col_mut(&mut draft, t, c) {
                col.has_jtag = false;
            }
        }
        // Rows inserted after the discard carry no JOIN-ADJ tag, so the
        // flag flip is published only once it is durable.
        match self.log_draft(&mut w, draft) {
            Ok(()) => targets.len(),
            Err(_) => 0,
        }
    }

    /// Pre-computes Paillier blinding factors (§3.5.2) until at least
    /// `n` are pooled, and raises the pool's refill target to `n` so
    /// background refills maintain that level from now on. The batch
    /// runs on the CRT fast path (the proxy knows p and q), so a refill
    /// costs a third of the seed's full-width exponentiations.
    pub fn precompute_hom(&self, n: usize) {
        self.hom_pool.warm(n);
    }

    /// Number of pre-computed blinding factors currently pooled.
    pub fn hom_pool_len(&self) -> usize {
        self.hom_pool.len()
    }

    /// Blinding-pool counters (watermark refills, dry-pool fallbacks).
    pub fn hom_pool_stats(&self) -> BlindingStats {
        self.hom_pool.stats()
    }

    /// Blocks until no background blinding refill is in flight (so
    /// benches can separate warm-pool latency from refill throughput).
    pub fn hom_pool_wait_ready(&self) {
        self.hom_pool.wait_ready()
    }

    /// The proxy's crypto runtime (persistent worker pool): blinding
    /// refills run on its priority lane, and the serving layer runs
    /// session statements on its bulk lane. Result decryption never
    /// uses it — a statement decrypts its own result on the thread that
    /// runs it, so no pool job blocks on another.
    pub fn runtime(&self) -> &WorkerPool {
        &self.runtime
    }

    /// §3.5.2 cache warming: pre-walks the OPE batch-encryption cache
    /// for a column's expected value set (e.g. the distinct values a
    /// training trace inserts) on the runtime pool, off the query path.
    /// Returns a handle resolving to the number of values warmed; drop
    /// it to warm fully in the background.
    pub fn warm_ope(
        &self,
        table: &str,
        column: &str,
        values: &[i64],
    ) -> Result<TaskHandle<usize>, ProxyError> {
        let keys = self.master_col_keys_for(table, column)?;
        let encoded: Vec<u64> = values.iter().map(|&v| Ope::encode_i64(v)).collect();
        Ok(self.runtime.submit(move || {
            encoded
                .iter()
                .filter(|&&m| keys.ope_encrypt(m, true).is_ok())
                .count()
        }))
    }

    /// Looks a column up in the encrypted schema and returns its
    /// master-key `ColumnKeys` (shared by [`Self::warm_ope`] and the
    /// cache observability hook, so both always address the same keys).
    fn master_col_keys_for(
        &self,
        table: &str,
        column: &str,
    ) -> Result<Arc<ColumnKeys>, ProxyError> {
        let schema = self.schema.snapshot();
        let c = rewrite::locked_col(&schema, table, column)?;
        Ok(self.master_col_keys(c, &table.to_lowercase()))
    }

    /// Number of fully-memoised OPE results cached for a column (the
    /// §3.5.2 cache observability hook the warm-from-training e2e rides).
    pub fn ope_cached_results(&self, table: &str, column: &str) -> Result<usize, ProxyError> {
        Ok(self
            .master_col_keys_for(table, column)?
            .ope_cached_results())
    }

    /// Logs a user in (equivalent to
    /// `INSERT INTO cryptdb_active (username, password) VALUES (...)`).
    pub fn login(&self, username: &str, password: &str) -> Result<(), ProxyError> {
        let mut rng = rand::thread_rng();
        self.mp
            .write()
            .login(&self.engine, username, password, &mut rng)
    }

    /// Logs a user out (equivalent to `DELETE FROM cryptdb_active ...`).
    pub fn logout(&self, username: &str) {
        self.mp.write().logout(username);
    }

    /// Parses and executes a string of statements, returning the last
    /// result. Runs in the proxy's own transaction handle, which every
    /// direct caller shares.
    pub fn execute(&self, sql: &str) -> Result<QueryResult, ProxyError> {
        self.execute_in(&self.implicit, sql)
    }

    /// [`Self::execute`] in `txn`, a session's own transaction handle.
    pub fn execute_in(&self, txn: &Txn, sql: &str) -> Result<QueryResult, ProxyError> {
        let stmts = parse(sql)?;
        let mut last = QueryResult::Ok;
        for stmt in &stmts {
            last = self.execute_noting(txn, stmt, None)?;
        }
        Ok(last)
    }

    /// Ends a session: rolls back its open transaction, if any.
    pub fn end_session(&self, txn: &Txn) -> Result<(), ProxyError> {
        Ok(self.engine.end_session(txn)?)
    }

    /// The proxy's own transaction handle.
    pub(crate) fn implicit_txn(&self) -> &Txn {
        &self.implicit
    }

    /// Executes one statement in `txn`, noting into `usage` what the
    /// statement's rewrite resolved — training mode's view of a
    /// statement.
    pub(crate) fn execute_noting(
        &self,
        txn: &Txn,
        stmt: &Stmt,
        usage: Option<&std::cell::RefCell<Usage>>,
    ) -> Result<QueryResult, ProxyError> {
        // cryptdb_active interception (§4.2) — the password must never
        // reach the DBMS.
        if let Some(r) = self.try_intercept_active(stmt)? {
            return Ok(r);
        }
        match stmt {
            Stmt::PrincType { names, external } => {
                // The durable schema meta carries the registration, so
                // recovery can rebuild the key manager's type registry.
                let mut w = self.schema.write();
                let mut draft = w.draft();
                for n in names {
                    draft.register_princ_type(&n.to_lowercase(), *external);
                }
                let logged = self.log_draft(&mut w, draft);
                self.register_princ_types(w.schema());
                logged.map(|()| QueryResult::Ok)
            }
            Stmt::CreateTable(ct) => self.create_table(ct),
            Stmt::CreateIndex { table, column } => self.create_index(table, column),
            Stmt::DropTable { name } => {
                // Composite record: the engine DROP's WAL record carries
                // the schema without the table.
                let mut w = self.schema.write();
                let mut draft = w.draft();
                let anon = draft
                    .remove(name)
                    .ok_or_else(|| ProxyError::Schema(format!("unknown table {name}")))?
                    .anon;
                self.commit_draft(&mut w, draft, |meta| {
                    self.engine
                        .execute_with_meta(&Stmt::DropTable { name: anon }, meta)
                })
            }
            Stmt::Insert(ins) => self.insert(txn, ins),
            Stmt::Select(sel) => self.select(sel, usage),
            Stmt::Update(upd) => self.update(txn, upd, usage),
            Stmt::Delete(del) => self.delete(txn, del, usage),
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
                Ok(self.engine.execute_in(txn, stmt, None)?)
            }
        }
    }

    fn try_intercept_active(&self, stmt: &Stmt) -> Result<Option<QueryResult>, ProxyError> {
        match stmt {
            Stmt::Insert(ins) if ins.table.eq_ignore_ascii_case("cryptdb_active") => {
                for row in &ins.rows {
                    let mut user = None;
                    let mut pass = None;
                    for (c, e) in ins.columns.iter().zip(row) {
                        let v = const_fold(e)?;
                        if c.eq_ignore_ascii_case("username") {
                            user = v.as_str().map(str::to_string);
                        } else if c.eq_ignore_ascii_case("password") {
                            pass = v.as_str().map(str::to_string);
                        }
                    }
                    let (Some(u), Some(p)) = (user, pass) else {
                        return Err(ProxyError::Schema(
                            "cryptdb_active needs (username, password)".into(),
                        ));
                    };
                    self.login(&u, &p)?;
                }
                Ok(Some(QueryResult::Ok))
            }
            Stmt::Delete(del) if del.table.eq_ignore_ascii_case("cryptdb_active") => {
                let Some(sel) = &del.selection else {
                    return Err(ProxyError::Schema(
                        "DELETE FROM cryptdb_active needs WHERE username = ...".into(),
                    ));
                };
                let Some(Value::Str(user)) = extract_eq_const(sel, "username") else {
                    return Err(ProxyError::Schema(
                        "DELETE FROM cryptdb_active needs WHERE username = ...".into(),
                    ));
                };
                self.logout(&user);
                Ok(Some(QueryResult::Ok))
            }
            _ => Ok(None),
        }
    }

    // ---- key & crypto helpers ----

    fn col_keys(
        &self,
        table: &str,
        column: &str,
        root: &Key,
        ope_group: Option<&str>,
    ) -> Arc<ColumnKeys> {
        let cache_key = (table.to_lowercase(), column.to_lowercase(), *root);
        if let Some(k) = self.key_cache.read().get(&cache_key) {
            return k.clone();
        }
        // Derive outside the write lock (it builds OPE instances), then
        // re-check: concurrent sessions racing on a cold column must
        // converge on ONE `ColumnKeys` — its interior OPE caches are
        // per-instance, so a per-session duplicate would silently lose
        // the shared-cache hit rate (and the derivation work).
        let keys = Arc::new(ColumnKeys::derive(
            root,
            &cache_key.0,
            &cache_key.1,
            ope_group,
        ));
        let mut cache = self.key_cache.write();
        cache.entry(cache_key).or_insert(keys).clone()
    }

    /// Number of memoised equality-constant encryptions (observability
    /// for the §3.5.2 memo bound).
    pub fn eq_memo_len(&self) -> usize {
        self.eq_memo.len()
    }

    fn master_col_keys(&self, col: &ColumnState, table: &str) -> Arc<ColumnKeys> {
        self.col_keys(table, &col.name, &self.mk, col.ope_group.as_deref())
    }

    fn take_blinding(&self) -> Ubig {
        // The pool refills itself in the background once it drops below
        // the low-water mark (generated in CRT batches on the runtime,
        // outside the pool lock), so a steady-state INSERT pops a
        // pre-computed factor and never exponentiates inline; only a
        // fully dry pool (cold start, or a burst outrunning the refill)
        // generates synchronously.
        self.hom_pool.take()
    }

    /// OPE with the §3.5.2 cache: the per-column `OpeCached` inside
    /// `ColumnKeys` memoises both full results and interior tree nodes,
    /// so no proxy-level memo is needed on top.
    fn ope_encrypt_cached(&self, keys: &ColumnKeys, v: &Value) -> Result<Value, ProxyError> {
        encrypt_ord_constant(keys, v)
    }

    fn encrypt_cell_for(
        &self,
        table: &str,
        col: &ColumnState,
        root: &Key,
        join_owner_keys: &ColumnKeys,
        v: &Value,
    ) -> Result<EncryptedCell, ProxyError> {
        let keys = self.col_keys(table, &col.name, root, col.ope_group.as_deref());
        let mut rng = rand::thread_rng();
        let blinding = self.take_blinding();
        let mut onions = col.onions;
        let mut cell = colcrypt::encrypt_cell(
            &keys,
            &self.joinadj,
            &join_owner_keys.join,
            &self.paillier,
            Some(&blinding),
            v,
            col.ty,
            &{
                // Leave the Ord onion for the cached path below.
                onions.ord = false;
                onions
            },
            (col.eq_level, col.ord_level),
            col.has_jtag,
            &mut rng,
        )?;
        if col.onions.ord {
            let ope = if v.is_null() {
                Value::Null
            } else {
                let ope_plain = self.ope_encrypt_cached(&keys, v)?;
                match col.ord_level {
                    OrdLevel::Ope => ope_plain,
                    OrdLevel::Rnd => {
                        let iv = cell
                            .iv
                            .as_ref()
                            .and_then(Value::as_bytes)
                            .ok_or_else(|| ProxyError::Crypto("missing IV".into()))?;
                        let Value::Bytes(pt) = ope_plain else {
                            return Err(ProxyError::Crypto("OPE output must be bytes".into()));
                        };
                        Value::Bytes(keys.wrap_ord_rnd(iv, &pt))
                    }
                }
            };
            cell.ord = Some(ope);
        }
        Ok(cell)
    }

    // ---- durability (ciphertext WAL + schema meta) ----

    /// Serializes the secret schema for attachment to an engine WAL
    /// record. `None` when the engine has no WAL attached, so the
    /// in-memory-only configuration pays no encoding cost.
    pub(crate) fn meta_blob(&self, schema: &EncSchema) -> Option<Vec<u8>> {
        self.engine.has_wal().then(|| crate::meta::encode(schema))
    }

    /// The durable step of a schema change: runs `step` with `draft`'s
    /// meta attached to its WAL record, and accepts the draft into `w`
    /// once that meta reached the log (without a WAL, once the step
    /// succeeded). A draft that did not reach the log is dropped, so the
    /// published schema is always the logged one.
    pub(crate) fn commit_draft<T>(
        &self,
        w: &mut SchemaWriter<'_>,
        draft: EncSchema,
        step: impl FnOnce(Option<&[u8]>) -> Result<T, EngineError>,
    ) -> Result<T, ProxyError> {
        let meta = self.meta_blob(&draft);
        let result = step(meta.as_deref());
        if result.is_ok() || meta.is_some_and(|m| self.engine.meta_reached_log(&m)) {
            w.accept(draft);
        }
        Ok(result?)
    }

    /// [`Self::commit_draft`] for a change that touches no engine state:
    /// a meta-only WAL record.
    pub(crate) fn log_draft(
        &self,
        w: &mut SchemaWriter<'_>,
        draft: EncSchema,
    ) -> Result<(), ProxyError> {
        self.commit_draft(w, draft, |meta| match meta {
            Some(m) => self.engine.log_meta(m),
            None => Ok(()),
        })
    }

    /// Registers `schema`'s principal types with the key manager, which
    /// mirrors what the log holds.
    fn register_princ_types(&self, schema: &EncSchema) {
        let mut mp = self.mp.write();
        for (name, external) in schema.princ_types() {
            mp.register_types(std::slice::from_ref(name), *external);
        }
    }

    /// Opens a durable proxy over `dir`: recovers the engine's ciphertext
    /// state from the snapshot + WAL (an empty directory starts fresh),
    /// then restores the proxy's secret schema from the last meta blob in
    /// the log. Rowid/rid counters are rebuilt from the recovered tables;
    /// login sessions do NOT survive a restart (active keys live only in
    /// proxy memory, §2.2).
    pub fn open_persistent(
        dir: &std::path::Path,
        mk: Key,
        config: ProxyConfig,
        wal_cfg: cryptdb_engine::WalConfig,
    ) -> Result<(Proxy, cryptdb_engine::EngineRecovery), ProxyError> {
        let (engine, recovery) = cryptdb_engine::Engine::recover(dir, wal_cfg)?;
        MultiPrincipal::create_key_tables(&engine)?;
        let proxy = Proxy::over(Arc::new(engine), mk, config);
        if let Some(meta) = &recovery.meta {
            proxy.restore_meta(meta)?;
        }
        Ok((proxy, recovery))
    }

    /// Installs a recovered schema meta blob: decode, re-register
    /// principal types with the key manager, rebuild per-table rid
    /// counters from the engine's hidden `rid` column, and drop any
    /// orphan anonymized engine tables a partial DDL batch left behind.
    fn restore_meta(&self, meta: &[u8]) -> Result<(), ProxyError> {
        let restored = crate::meta::decode(meta)?;
        let mut w = self.schema.write();
        self.register_princ_types(&restored);
        let mut anon_known = std::collections::HashSet::new();
        for t in restored.tables() {
            anon_known.insert(t.anon.to_lowercase());
            // The rid counter is authoritative in the engine: column 0 of
            // every anonymized table is the plaintext rid.
            let max_rid = self
                .engine
                .execute_sql(&format!("SELECT MAX(rid) FROM {}", t.anon))?
                .scalar()
                .and_then(Value::as_int)
                .unwrap_or(0);
            t.next_rid
                .store(max_rid + 1, std::sync::atomic::Ordering::Relaxed);
        }
        // A crash between a partial DDL batch and its meta can leave an
        // anonymized engine table with no schema entry. Drop it (logged)
        // so the namespaces stay aligned.
        for name in self.engine.table_names() {
            let orphan = name
                .strip_prefix("table")
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()));
            if orphan && !anon_known.contains(&name) {
                self.engine
                    .execute_with_meta(&Stmt::DropTable { name }, None)?;
            }
        }
        w.accept(restored);
        Ok(())
    }
}

// ---- small expression utilities ----

/// Error raised wherever the rewriter meets a `$n` placeholder in a
/// position it cannot turn into a typed parameter slot. [`prepared`]'s
/// plan builder recognises it (see [`is_param_fallback`]) and falls back
/// to the generic substitute-then-rewrite plan; on the simple-query path
/// it surfaces as an ordinary error, since simple queries carry no
/// bindings.
pub(crate) fn param_fallback() -> ProxyError {
    ProxyError::NeedsPlaintext(PARAM_FALLBACK_MARKER.into())
}

pub(crate) const PARAM_FALLBACK_MARKER: &str =
    "parameter placeholders must be bound through the prepared-statement API";

pub(crate) fn is_param_fallback(e: &ProxyError) -> bool {
    matches!(e, ProxyError::NeedsPlaintext(msg) if msg == PARAM_FALLBACK_MARKER)
}

/// Folds a constant expression to a value (literals, arithmetic, unary
/// minus). Errors on column references.
pub(crate) fn const_fold(e: &Expr) -> Result<Value, ProxyError> {
    match e {
        Expr::Literal(l) => Ok(match l {
            Literal::Int(v) => Value::Int(*v),
            Literal::Str(s) => Value::Str(s.clone()),
            Literal::Bytes(b) => Value::Bytes(b.clone()),
            Literal::Null => Value::Null,
        }),
        Expr::Neg(inner) => match const_fold(inner)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            _ => Err(ProxyError::NeedsPlaintext("negation of non-integer".into())),
        },
        Expr::Binary { op, left, right } if op.is_arithmetic() => {
            let (Value::Int(a), Value::Int(b)) = (const_fold(left)?, const_fold(right)?) else {
                return Err(ProxyError::NeedsPlaintext(
                    "constant arithmetic on non-integers".into(),
                ));
            };
            Ok(Value::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(ProxyError::NeedsPlaintext("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(ProxyError::NeedsPlaintext("mod by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!("arithmetic checked"),
            }))
        }
        // A placeholder is a constant whose value arrives at Bind time;
        // callers that can carry a slot check for `Expr::Param` before
        // folding, so reaching it here means this position cannot be a
        // typed slot and the statement takes the generic prepared path.
        Expr::Param(_) => Err(param_fallback()),
        other => Err(ProxyError::NeedsPlaintext(format!(
            "expected a constant, found {other}"
        ))),
    }
}

fn value_to_literal(v: Value) -> Expr {
    Expr::Literal(match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Str(s) => Literal::Str(s),
        Value::Bytes(b) => Literal::Bytes(b),
    })
}

/// Finds a `col = const` conjunct for `col` in a predicate.
pub(crate) fn extract_eq_const(e: &Expr, col: &str) -> Option<Value> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => extract_eq_const(left, col).or_else(|| extract_eq_const(right, col)),
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (c, lit) = match (&**left, &**right) {
                (Expr::Column(c), other) => (c, other),
                (other, Expr::Column(c)) => (c, other),
                _ => return None,
            };
            if c.column.eq_ignore_ascii_case(col) {
                const_fold(lit).ok()
            } else {
                None
            }
        }
        _ => None,
    }
}

/// A LIKE pattern the SEARCH onion can serve: `%word%`, `% word %`, or a
/// bare word. Returns the word, or `None` when the pattern needs plaintext.
pub(crate) fn like_pattern_word(pattern: &str) -> Option<String> {
    let trimmed = pattern.trim_matches('%').trim();
    if trimmed.is_empty() || trimmed.contains('%') || trimmed.contains('_') {
        return None;
    }
    // Multiple words cannot be matched by single-word SEARCH tokens.
    if trimmed.split_whitespace().count() != 1 {
        return None;
    }
    Some(trimmed.to_string())
}

mod prepared;
mod rewrite;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A statement that only reads the schema completes while a schema
    /// change holds the writer lock; a cell writer waits the change out.
    #[test]
    fn reads_complete_while_a_schema_change_holds_the_writer_lock() {
        let cfg = ProxyConfig {
            paillier_bits: 256,
            ..Default::default()
        };
        let p = Proxy::new(Arc::new(Engine::new()), [3u8; 32], cfg);
        for sql in [
            "CREATE TABLE emp (id int, name text)",
            "INSERT INTO emp (id, name) VALUES (2, 'Bob')",
            "SELECT name FROM emp WHERE id = 2",
        ] {
            p.execute(sql).unwrap();
        }
        let ps = p.prepare("SELECT name FROM emp WHERE id = $1").unwrap();
        p.execute_prepared(&ps, &[Value::Int(2)]).unwrap();
        let bob = vec![vec![Value::Str("Bob".into())]];
        let wait = Duration::from_secs(5);
        let (p, ps) = (&p, &ps);
        std::thread::scope(|s| {
            let writer = p.schema.write();
            let (tx, select) = mpsc::channel();
            s.spawn(move || tx.send(p.execute("SELECT name FROM emp WHERE id = 2")));
            let (tx, within) = mpsc::channel();
            s.spawn(move || tx.send(p.execute_prepared_within(ps, &[Value::Int(2)], 64)));
            let (tx, insert) = mpsc::channel();
            s.spawn(move || tx.send(p.execute("INSERT INTO emp (id, name) VALUES (3, 'Cy')")));
            let got = select
                .recv_timeout(wait)
                .expect("a SELECT waited for a schema change");
            assert_eq!(got.unwrap().rows(), bob);
            let got = within
                .recv_timeout(wait)
                .expect("a bounded prepared read waited for a schema change")
                .expect("the warm bounded read runs");
            assert_eq!(got.unwrap().rows(), bob);
            assert!(
                insert.recv_timeout(Duration::from_millis(200)).is_err(),
                "an INSERT wrote cells during a schema change"
            );
            drop(writer);
            insert.recv_timeout(wait).unwrap().unwrap();
        });
        let count = p.execute("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(count.scalar(), Some(&Value::Int(2)));
    }
}
