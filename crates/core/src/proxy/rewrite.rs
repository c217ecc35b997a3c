//! Query rewriting, onion adjustment, and result decryption.

use super::*;
use cryptdb_paillier::PaillierScratch;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Maps visible table names (aliases) in a query to schema tables.
#[derive(Clone, Debug)]
pub(crate) struct Resolver {
    /// `(visible name lowercase, real table name lowercase)` in FROM order.
    pub scopes: Vec<(String, String)>,
}

impl Resolver {
    pub fn from_select(schema: &EncSchema, sel: &Select) -> Result<Resolver, ProxyError> {
        let mut scopes = Vec::new();
        for tref in sel.from.iter().chain(sel.joins.iter().map(|j| &j.table)) {
            schema.table(&tref.name)?; // Validate.
            let visible = tref.alias.clone().unwrap_or_else(|| tref.name.clone());
            scopes.push((visible.to_lowercase(), tref.name.to_lowercase()));
        }
        Ok(Resolver { scopes })
    }

    pub fn for_table(schema: &EncSchema, name: &str) -> Result<Resolver, ProxyError> {
        schema.table(name)?;
        Ok(Resolver {
            scopes: vec![(name.to_lowercase(), name.to_lowercase())],
        })
    }

    /// Resolves a column reference to `(visible alias, table, column)`.
    pub fn resolve<'s>(
        &self,
        schema: &'s EncSchema,
        c: &ColumnRef,
    ) -> Result<(String, &'s TableState, &'s ColumnState), ProxyError> {
        let mut found: Option<(String, &TableState, &ColumnState)> = None;
        for (visible, table) in &self.scopes {
            if let Some(want) = &c.table {
                if want.to_lowercase() != *visible {
                    continue;
                }
            }
            let t = schema.table(table)?;
            if let Some(col) = t.column(&c.column) {
                if found.is_some() {
                    return Err(ProxyError::Schema(format!("ambiguous column {c}")));
                }
                found = Some((visible.clone(), t, col));
            }
        }
        found.ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))
    }
}

/// One adjustment a rewrite relied on that the schema did not yet offer
/// (§3.2), over `(table, column)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Req {
    Det(String, String),
    Ope(String, String),
    Search(String, String),
    Fresh(String, String),
    /// The statement increments the column (§3.3): its Eq and Ord
    /// onions are marked stale before the `HOM_ADD` runs.
    Stale(String, String),
    Join((String, String), (String, String)),
}

/// Bound on [`Proxy::plan_walk`]'s adjust-then-walk rounds, like
/// `execute_prepared`'s three re-plans. The walk after an adjustment
/// runs in the adjustment's writer section, so one round suffices (two
/// when a refresh precedes a stale mark).
const MAX_ADJUSTMENTS: usize = 3;

impl Proxy {
    /// The one pipeline of every rewritten statement (§3.2): `walk`
    /// rewrites it against a schema version and returns the requirements
    /// it relied on that the version does not offer yet. A walk with
    /// none is the plan, taken on the live version with no lock held.
    /// Otherwise a writer section meets the requirements and walks the
    /// statement again on its draft, so nothing moves between the
    /// adjustment and the plan. A refusal returns before any adjustment:
    /// a refused statement adjusts nothing.
    ///
    /// Returns the plan and the epoch it is valid under. A stale mark
    /// records the statement's own effect, so it is made last and the
    /// walk before it is the plan, valid under the version the mark
    /// publishes.
    fn plan_walk<T>(
        &self,
        mut walk: impl FnMut(&SchemaVersion) -> Result<(T, Vec<Req>), ProxyError>,
    ) -> Result<(T, u64), ProxyError> {
        let live = self.schema.snapshot();
        let (mut plan, mut reqs) = walk(&live)?;
        if reqs.is_empty() {
            return Ok((plan, live.epoch));
        }
        let mut w = self.schema.write();
        if w.version().epoch != live.epoch {
            (plan, reqs) = walk(&w.version())?;
        }
        for _ in 0..MAX_ADJUSTMENTS {
            if reqs.iter().all(|r| matches!(r, Req::Stale(..))) {
                self.adjust_locked(&mut w, &reqs)?;
                return Ok((plan, w.version().epoch));
            }
            reqs.retain(|r| !matches!(r, Req::Stale(..)));
            self.adjust_locked(&mut w, &reqs)?;
            (plan, reqs) = walk(&w.version())?;
        }
        Err(ProxyError::Schema(
            "onion adjustment did not converge".into(),
        ))
    }

    // ---- adjustments (§3.2, §3.4) ----

    /// Applies every adjustment `reqs` demands: RND peeling via
    /// `DECRYPT_RND`, join-group merging via `JOIN_ADJ`, stale refresh,
    /// then the marks that touch no engine state. Every floor they would
    /// cross is checked before the first one, so a statement a floor
    /// refuses adjusts nothing. An adjustment that fails part-way keeps
    /// the steps that reached the log: the section publishes them.
    fn adjust_locked(&self, w: &mut SchemaWriter<'_>, reqs: &[Req]) -> Result<(), ProxyError> {
        for req in reqs {
            check_floors(w.schema(), req)?;
        }
        let mut marks = Vec::new();
        for req in reqs {
            match req {
                Req::Fresh(t, c) => self.refresh_stale_locked(w, t, c)?,
                Req::Det(t, c) => self.peel_rnd_locked(w, t, c, Need::Det)?,
                Req::Ope(t, c) => self.peel_rnd_locked(w, t, c, Need::Ope)?,
                Req::Join(a, b) => self.merge_join_groups_locked(w, a, b)?,
                Req::Search(t, c) | Req::Stale(t, c) => marks.push((req, t, c)),
            }
        }
        if marks.is_empty() {
            return Ok(());
        }
        // `search_used` affects only MinEnc accounting and `stale` only
        // how a column is read, but both must survive a restart like
        // every other schema bit: one meta-only record carries them.
        let mut draft = w.draft();
        let mut marked = false;
        for (req, t, c) in marks {
            let col = locked_col_mut(&mut draft, t, c)?;
            let bit = match req {
                Req::Search(..) => &mut col.search_used,
                _ => &mut col.stale,
            };
            marked |= !*bit;
            *bit = true;
        }
        if marked {
            self.log_draft(w, draft)?;
        }
        Ok(())
    }

    /// The durable step of one column adjustment: `edit` the column in a
    /// draft and run `updates` as one composite WAL record carrying the
    /// draft's meta, so the re-encoded cells and the schema bits land
    /// together at recovery. The engine refuses it (40001) while an open
    /// transaction holds writes to any of the column's onions.
    fn adjust_column(
        &self,
        w: &mut SchemaWriter<'_>,
        col: &ColumnState,
        updates: &[Update],
        edit: impl FnOnce(&mut ColumnState),
    ) -> Result<(), ProxyError> {
        let mut draft = w.draft();
        edit(locked_col_mut(&mut draft, &col.table, &col.name)?);
        self.commit_draft(w, draft, |meta| {
            self.engine
                .execute_adjustment(updates, &col.anon_columns(), meta)
        })?;
        Ok(())
    }

    /// Peels a column's Eq onion (`Need::Det`) or Ord onion
    /// (`Need::Ope`) off its RND layer:
    /// `UPDATE table SET c_x = DECRYPT_RND(K, c_x, c_iv)` (§3.2).
    fn peel_rnd_locked(
        &self,
        w: &mut SchemaWriter<'_>,
        t: &str,
        c: &str,
        need: Need<'_>,
    ) -> Result<(), ProxyError> {
        let col = locked_col(w.schema(), t, c)?.clone();
        if col.offers(need) {
            return Ok(());
        }
        let keys = self.master_col_keys(&col, t);
        let (onion, key) = match need {
            Need::Det => (col.anon_eq(), keys.rnd_eq_key),
            _ => (col.anon_ord(), keys.rnd_ord_key),
        };
        let upd = Update {
            table: w.schema().table(t)?.anon.clone(),
            sets: vec![(
                onion.clone(),
                Expr::Func {
                    name: "DECRYPT_RND".into(),
                    args: vec![
                        Expr::Literal(Literal::Bytes(key.to_vec())),
                        Expr::col(onion),
                        Expr::col(col.anon_iv()),
                    ],
                    star: false,
                    distinct: false,
                },
            )],
            selection: None,
        };
        self.adjust_column(w, &col, &[upd], |c| match need {
            Need::Det => c.eq_level = EqLevel::Det,
            _ => c.ord_level = OrdLevel::Ope,
        })
    }

    /// Merges the join transitivity groups of `a` and `b` (§3.4): all
    /// members are re-keyed to the lexicographically first column's key,
    /// one composite record per member, so a crash mid-merge leaves the
    /// already re-keyed members durable with the matching owner bits.
    fn merge_join_groups_locked(
        &self,
        w: &mut SchemaWriter<'_>,
        a: &(String, String),
        b: &(String, String),
    ) -> Result<(), ProxyError> {
        let schema = w.schema();
        let (col_a, col_b) = (
            locked_col(schema, &a.0, &a.1)?,
            locked_col(schema, &b.0, &b.1)?,
        );
        if col_a.offers(Need::JoinWith(col_b)) {
            return Ok(());
        }
        let mut members = schema.join_group_members(&col_a.join_owner);
        members.extend(schema.join_group_members(&col_b.join_owner));
        let base_member = members
            .iter()
            .min_by_key(|(t, c)| (t.to_lowercase(), c.to_lowercase()))
            .expect("groups are non-empty")
            .clone();
        let base_col = locked_col(schema, &base_member.0, &base_member.1)?;
        let base_keys = self.master_col_keys(base_col, &base_col.table);
        for (t, c) in members {
            let schema = w.schema();
            let col = locked_col(schema, &t, &c)?.clone();
            if col.join_owner == base_member {
                continue;
            }
            let owner_col = locked_col(schema, &col.join_owner.0, &col.join_owner.1)?;
            let owner_keys = self.master_col_keys(owner_col, &owner_col.table);
            let delta = JoinAdj::delta(&owner_keys.join, &base_keys.join);
            let upd = Update {
                table: schema.table(&t)?.anon.clone(),
                sets: vec![(
                    col.anon_eq(),
                    Expr::Func {
                        name: "JOIN_ADJ".into(),
                        args: vec![
                            Expr::col(col.anon_eq()),
                            Expr::Literal(Literal::Bytes(delta.to_bytes().to_vec())),
                        ],
                        star: false,
                        distinct: false,
                    },
                )],
                selection: None,
            };
            self.adjust_column(w, &col, &[upd], |c| c.join_owner = base_member.clone())?;
        }
        Ok(())
    }

    /// Re-encrypts a stale column from its (authoritative) Add onion —
    /// the paper's SELECT-then-UPDATE strategy for incremented columns
    /// that are later compared (§3.3). Every re-encrypted row and the
    /// cleared stale bit travel in one record, so recovery lands before
    /// or after the refresh, never between (the Add onion stays
    /// authoritative either way).
    fn refresh_stale_locked(
        &self,
        w: &mut SchemaWriter<'_>,
        t: &str,
        c: &str,
    ) -> Result<(), ProxyError> {
        let schema = w.schema();
        let col = locked_col(schema, t, c)?.clone();
        if col.offers(Need::Fresh) {
            return Ok(());
        }
        let anon_t = schema.table(t)?.anon.clone();
        let rows = self
            .engine
            .execute_sql(&format!("SELECT rid, {} FROM {anon_t}", col.anon_add()))?
            .rows()
            .to_vec();
        let owner_col = locked_col(schema, &col.join_owner.0, &col.join_owner.1)?;
        let owner_keys = self.master_col_keys(owner_col, &col.join_owner.0);
        let mut updates = Vec::with_capacity(rows.len());
        for row in rows {
            let rid = row[0]
                .as_int()
                .ok_or_else(|| ProxyError::Crypto("rid missing during stale refresh".into()))?;
            let v = decrypt_add(&self.paillier, &row[1])?;
            let cell = self.encrypt_cell_for(t, &col, &self.mk, &owner_keys, &v)?;
            updates.push(cell_update(&anon_t, &col, rid, cell));
        }
        self.adjust_column(w, &col, &updates, |c| c.stale = false)
    }
}

/// `UPDATE anon_t SET <the cell's IV and Eq/Ord onions> WHERE rid = rid`.
fn cell_update(anon_t: &str, col: &ColumnState, rid: i64, cell: EncryptedCell) -> Update {
    Update {
        table: anon_t.to_string(),
        sets: cell_sets(col, cell, false),
        selection: Some(Expr::binary(BinOp::Eq, Expr::col("rid"), Expr::int(rid))),
    }
}

/// The assignments that store an encrypted cell: its IV and the Eq and
/// Ord onions it carries, plus its Add and Search onions with `all`.
pub(crate) fn cell_sets(col: &ColumnState, cell: EncryptedCell, all: bool) -> Vec<(String, Expr)> {
    let mut onions = vec![
        (col.anon_iv(), Some(cell.iv.unwrap_or(Value::Null))),
        (col.anon_eq(), cell.eq),
        (col.anon_ord(), cell.ord),
    ];
    if all {
        onions.push((col.anon_add(), cell.add));
        onions.push((col.anon_srch(), cell.srch));
    }
    onions
        .into_iter()
        .filter_map(|(name, v)| Some((name, value_to_literal(v?))))
        .collect()
}

impl Proxy {
    /// §3.5.1 "onion re-encryption": re-encrypts a column's exposed Eq/Ord
    /// onions back to RND after an infrequent low-layer query, reducing
    /// leakage to attacks that happen while the layer is exposed. The
    /// proxy reads every row, decrypts, and writes fresh RND ciphertexts.
    ///
    /// Returns the number of rows re-encrypted.
    pub fn seal_column(&self, table: &str, column: &str) -> Result<usize, ProxyError> {
        let mut w = self.schema.write();
        let col = locked_col(w.schema(), table, column)?.clone();
        if !col.sensitive || col.enc_for.is_some() {
            return Err(ProxyError::Schema(format!(
                "cannot re-seal {column}: not a single-principal encrypted column"
            )));
        }
        if col.eq_level == EqLevel::Rnd && col.ord_level == OrdLevel::Rnd {
            return Ok(0);
        }
        if col.stale {
            self.refresh_stale_locked(&mut w, &col.table, &col.name)?;
        }
        let schema = w.schema();
        let anon_t = schema.table(table)?.anon.clone();
        let keys = self.master_col_keys(&col, &col.table);
        // The Eq onion is always decryptable (with the row IV when still
        // at RND), so read plaintexts back through it.
        let projections = ["rid".to_string(), col.anon_iv(), col.anon_eq()];
        let rows = self
            .engine
            .execute_sql(&format!("SELECT {} FROM {anon_t}", projections.join(", ")))?
            .rows()
            .to_vec();
        // Decrypt each row from whatever layer is exposed, then rebuild a
        // fresh cell at full RND depth.
        let owner_col = locked_col(schema, &col.join_owner.0, &col.join_owner.1)?;
        let owner_keys = self.col_keys(&owner_col.table, &owner_col.name, &self.mk, None);
        let mut sealed_col = col.clone();
        sealed_col.eq_level = EqLevel::Rnd;
        sealed_col.ord_level = OrdLevel::Rnd;
        let n = rows.len();
        // Precompute every row's fresh RND cell first — no engine write
        // happens until the whole batch is ready.
        let mut updates = Vec::with_capacity(n);
        for row in rows {
            let rid = row[0]
                .as_int()
                .ok_or_else(|| ProxyError::Crypto("rid missing during seal".into()))?;
            let v = decrypt_eq(
                &keys,
                col.eq_level,
                col.ty,
                &row[2],
                Some(&row[1]),
                col.has_jtag,
            )?;
            let cell = self.encrypt_cell_for(&col.table, &sealed_col, &self.mk, &owner_keys, &v)?;
            updates.push(cell_update(&anon_t, &col, rid, cell));
        }
        // Crash atomicity: every re-encrypted cell and the level flip
        // travel in one composite record, so recovery lands either fully
        // pre-seal or fully sealed, never a torn mix of RND cells under
        // an exposed-level schema.
        self.adjust_column(&mut w, &col, &updates, |c| {
            c.eq_level = EqLevel::Rnd;
            c.ord_level = OrdLevel::Rnd;
        })?;
        Ok(n)
    }
}

/// Refuses `req` if meeting it would expose a layer below a column's
/// §3.5.1 floor — for a join, below the floor of any member of either
/// transitivity group, since the merge re-keys them all.
fn check_floors(schema: &EncSchema, req: &Req) -> Result<(), ProxyError> {
    let floor = |t: &str, c: &str, need: Need<'_>, level: SecLevel| {
        let col = locked_col(schema, t, c)?;
        if col.offers(need) {
            Ok(())
        } else {
            col.check_floor(level)
        }
    };
    match req {
        Req::Fresh(..) | Req::Stale(..) => Ok(()),
        Req::Det(t, c) => floor(t, c, Need::Det, SecLevel::Det),
        Req::Ope(t, c) => floor(t, c, Need::Ope, SecLevel::Ope),
        Req::Search(t, c) => floor(t, c, Need::Search, SecLevel::Search),
        Req::Join(a, b) => {
            let (col_a, col_b) = (
                locked_col(schema, &a.0, &a.1)?,
                locked_col(schema, &b.0, &b.1)?,
            );
            if col_a.offers(Need::JoinWith(col_b)) {
                return Ok(());
            }
            let mut members = schema.join_group_members(&col_a.join_owner);
            members.extend(schema.join_group_members(&col_b.join_owner));
            for (t, c) in members {
                locked_col(schema, &t, &c)?.check_floor(SecLevel::Join)?;
            }
            Ok(())
        }
    }
}

pub(crate) fn locked_col<'s>(
    schema: &'s EncSchema,
    t: &str,
    c: &str,
) -> Result<&'s ColumnState, ProxyError> {
    schema
        .table(t)?
        .column(c)
        .ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))
}

pub(crate) fn locked_col_mut<'s>(
    schema: &'s mut EncSchema,
    t: &str,
    c: &str,
) -> Result<&'s mut ColumnState, ProxyError> {
    schema
        .table_mut(t)?
        .column_mut(c)
        .ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))
}

// ---- DDL ----

impl Proxy {
    pub(crate) fn create_table(&self, ct: &CreateTable) -> Result<QueryResult, ProxyError> {
        let mut w = self.schema.write();
        // Validate principal types referenced by annotations before any
        // state (schema or engine) changes.
        {
            let mp = self.mp.read();
            for cd in &ct.columns {
                if let Some(ef) = &cd.enc_for {
                    if !mp.has_type(&ef.princ_type) {
                        return Err(ProxyError::Schema(format!(
                            "ENC FOR references unknown PRINCTYPE {}",
                            ef.princ_type
                        )));
                    }
                }
            }
        }
        let mut draft = w.draft();
        let anon = draft.next_anon_table();
        let mut columns = Vec::with_capacity(ct.columns.len());
        let tlow = ct.name.to_lowercase();
        for (i, cd) in ct.columns.iter().enumerate() {
            let sensitive = match &self.config.policy {
                EncryptionPolicy::All => true,
                EncryptionPolicy::AnnotatedOnly => cd.enc_for.is_some(),
                EncryptionPolicy::Explicit(map) => {
                    cd.enc_for.is_some()
                        || map.get(&tlow).is_some_and(|cols| {
                            cols.iter().any(|c| c.eq_ignore_ascii_case(&cd.name))
                        })
                }
            };
            let mut onions = OnionSet::for_type(cd.ty);
            if cd.enc_for.is_some() {
                // Per-principal columns: no server-side computation across
                // principals (§6), so only the projection-serving Eq onion
                // and (for text) the per-principal Search onion remain.
                onions.ord = false;
                onions.add = false;
            }
            columns.push(ColumnState {
                name: cd.name.clone(),
                table: tlow.clone(),
                ty: cd.ty,
                anon: format!("c{i}"),
                sensitive,
                enc_for: cd.enc_for.clone(),
                onions,
                eq_level: EqLevel::Rnd,
                ord_level: OrdLevel::Rnd,
                join_owner: (tlow.clone(), cd.name.clone()),
                stale: false,
                min_level: None,
                ope_group: None,
                has_jtag: true,
                search_used: false,
            });
        }
        // Server-side DDL: hidden rid + onion columns.
        let mut server_cols = vec![ColumnDef {
            name: "rid".into(),
            ty: ColumnType::Int,
            enc_for: None,
        }];
        for col in &columns {
            if !col.sensitive {
                server_cols.push(ColumnDef {
                    name: col.anon.clone(),
                    ty: col.ty,
                    enc_for: None,
                });
                continue;
            }
            let mut push = |name: String| {
                server_cols.push(ColumnDef {
                    name,
                    ty: ColumnType::Text,
                    enc_for: None,
                })
            };
            push(col.anon_iv());
            if col.onions.eq {
                push(col.anon_eq());
            }
            if col.onions.ord {
                push(col.anon_ord());
            }
            if col.onions.add {
                push(col.anon_add());
            }
            if col.onions.search {
                push(col.anon_srch());
            }
        }
        // Composite record: the anonymized CREATE TABLE + rid index run
        // as ONE batched WAL record carrying the draft's meta — the
        // encrypted schema entry, the server table, and its rid index
        // stand or fall together.
        draft.insert(TableState {
            name: ct.name.clone(),
            anon: anon.clone(),
            columns,
            speaks_for: ct.speaks_for.clone(),
            next_rid: std::sync::Arc::new(std::sync::atomic::AtomicI64::new(1)),
        })?;
        let batch = [
            Stmt::CreateTable(CreateTable {
                name: anon.clone(),
                columns: server_cols,
                speaks_for: Vec::new(),
            }),
            Stmt::CreateIndex {
                table: anon,
                column: "rid".into(),
            },
        ];
        self.commit_draft(&mut w, draft, |meta| {
            self.engine.execute_batch_with_meta(&batch, meta)
        })?;
        Ok(QueryResult::Ok)
    }

    pub(crate) fn create_index(
        &self,
        table: &str,
        column: &str,
    ) -> Result<QueryResult, ProxyError> {
        let schema = self.schema.snapshot();
        let anon_t = schema.table(table)?.anon.clone();
        let col = locked_col(&schema, table, column)?;
        // Index DDL commits on its own, outside any session's
        // transaction, like every proxy DDL statement.
        let index = |column: String| {
            self.engine.execute_with_meta(
                &Stmt::CreateIndex {
                    table: anon_t.clone(),
                    column,
                },
                None,
            )
        };
        if !col.sensitive {
            index(col.anon.clone())?;
            return Ok(QueryResult::Ok);
        }
        // §3.3: indexes go on the DET/JOIN and OPE onion columns; RND,
        // HOM and SEARCH are not indexable.
        if col.onions.eq {
            index(col.anon_eq())?;
        }
        if col.onions.ord {
            index(col.anon_ord())?;
        }
        Ok(QueryResult::Ok)
    }
}

// ---- SELECT rewriting ----

/// How to post-process one engine output column.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    /// Copy through (plaintext columns, COUNT results, IV/key columns).
    Raw,
    /// Decrypt the Eq onion.
    Eq {
        table: String,
        col: String,
        level: EqLevel,
        iv: Option<usize>,
        enc_for: Option<(String, usize)>,
    },
    /// Decrypt the Add onion (HOM).
    Add,
    /// Decrypt the Ord onion (OPE; used for MIN/MAX results).
    Ord { table: String, col: String },
    /// HOM sum at this position; divide by COUNT at `count`.
    AvgPair {
        table: String,
        col: String,
        count: usize,
    },
}

/// The decryption plan for a rewritten SELECT.
#[derive(Clone, Debug)]
pub(crate) struct SelectPlan {
    pub slots: Vec<Slot>,
    pub visible: usize,
    pub names: Vec<String>,
    pub proxy_sort: Vec<(usize, bool)>,
}

/// How one `$n` occurrence must be encrypted at Bind time.
#[derive(Clone, Debug)]
pub(crate) enum ParamSlot {
    /// Plaintext position (non-sensitive column, plain expression).
    Plain,
    /// Equality comparison against this column's Eq onion (DET/JOIN).
    Eq { table: String, col: String },
    /// Order comparison against this column's Ord onion (OPE).
    Ord { table: String, col: String },
}

/// One `$n` occurrence inside a rewritten SELECT: the user-visible
/// 1-based parameter number plus the encryption the hole demands. The
/// rewritten AST stores `Expr::Param(occurrence-index)` (0-based), so the
/// same `$n` used twice gets two independently encrypted ciphertexts.
#[derive(Clone, Debug)]
pub(crate) struct ParamOcc {
    pub n: u32,
    pub slot: ParamSlot,
}

/// A fully rewritten SELECT, reusable across executions: the encrypted
/// statement (with parameter holes), its decryption plan, the hole
/// descriptors, and the schema version it was built against, which its
/// binds and decryptions read too.
#[derive(Clone, Debug)]
pub(crate) struct CachedSelect {
    pub stmt: Select,
    pub plan: SelectPlan,
    pub occ: Vec<ParamOcc>,
    pub version: SchemaVersion,
}

/// Outcome of running a cached plan against the live schema.
pub(crate) enum RunOutcome {
    Done(QueryResult),
    /// The schema epoch moved since the plan was built; re-plan.
    Stale,
    /// Bounded run only: a bound value is not in the §3.5.2 caches, or
    /// the engine scan would visit more rows than allowed; nothing ran.
    Declined,
}

struct SelectRw<'a> {
    proxy: &'a Proxy,
    schema: &'a EncSchema,
    resolver: &'a Resolver,
    /// Qualify rewritten column refs with the visible alias (SELECT); DML
    /// statements execute against the bare anonymised table and must not.
    qualify: bool,
    /// Whether `$n` placeholders may become bind-time holes. DML rewrites
    /// and the simple-query path refuse them instead (the generic
    /// prepared path substitutes plaintext before rewriting).
    allow_params: bool,
    /// Parameter occurrences recorded while rewriting (interior mutability
    /// because predicate rewriting takes `&self`).
    params: RefCell<Vec<ParamOcc>>,
    /// Adjustments the rewrite relied on that the schema lacks.
    reqs: RefCell<Vec<Req>>,
    /// Training mode's record of what the walk resolved.
    usage: Option<&'a RefCell<Usage>>,
    vis_items: Vec<SelectItem>,
    vis_slots: Vec<Slot>,
    vis_cols: Vec<Option<(String, String)>>,
    names: Vec<String>,
    hid_items: Vec<SelectItem>,
    hid_slots: Vec<Slot>,
}

impl<'a> SelectRw<'a> {
    fn new(
        proxy: &'a Proxy,
        schema: &'a EncSchema,
        resolver: &'a Resolver,
        qualify: bool,
        allow_params: bool,
        usage: Option<&'a RefCell<Usage>>,
    ) -> Self {
        SelectRw {
            proxy,
            schema,
            resolver,
            qualify,
            allow_params,
            params: RefCell::new(Vec::new()),
            reqs: RefCell::new(Vec::new()),
            usage,
            vis_items: Vec::new(),
            vis_slots: Vec::new(),
            vis_cols: Vec::new(),
            names: Vec::new(),
            hid_items: Vec::new(),
            hid_slots: Vec::new(),
        }
    }

    /// Records a `$n` occurrence and returns the hole to splice into the
    /// rewritten AST (`Expr::Param` carrying the 0-based occurrence id).
    fn param_hole(&self, n: u32, slot: ParamSlot) -> Result<Expr, ProxyError> {
        if !self.allow_params {
            return Err(param_fallback());
        }
        let mut params = self.params.borrow_mut();
        let occ = params.len() as u32;
        params.push(ParamOcc { n, slot });
        Ok(Expr::Param(occ))
    }

    /// Relies on `col` offering `need`, recording a requirement when the
    /// schema this walk reads does not offer it yet.
    fn rely(&self, col: &ColumnState, need: Need<'_>) {
        if col.offers(need) {
            return;
        }
        let key = |c: &ColumnState| (c.table.clone(), c.name.clone());
        let (t, c) = key(col);
        self.reqs.borrow_mut().push(match need {
            Need::Det => Req::Det(t, c),
            Need::Ope => Req::Ope(t, c),
            Need::Search => Req::Search(t, c),
            Need::Fresh => Req::Fresh(t, c),
            Need::Stale => Req::Stale(t, c),
            Need::JoinWith(other) => Req::Join((t, c), key(other)),
        });
    }

    /// Relies on the server computing `class` over `col` (§3.2):
    /// refuses what a per-principal column or a missing onion cannot
    /// serve, then relies on the layers the class reads. A no-op for a
    /// plaintext column.
    fn serve(&self, col: &ColumnState, class: OpClass) -> Result<(), ProxyError> {
        if !col.sensitive {
            return Ok(());
        }
        if col.enc_for.is_some() {
            return Err(ProxyError::NeedsPlaintext(format!(
                "column {}.{} is encrypted per-principal; server-side {class:?} is impossible \
                 (§6: no server computation across principals)",
                col.table, col.name
            )));
        }
        if matches!(class, OpClass::Eq | OpClass::Ord | OpClass::Join) {
            self.rely(col, Need::Fresh);
        }
        match class {
            OpClass::Eq | OpClass::Join => self.rely(col, Need::Det),
            OpClass::Ord => self.rely(col, Need::Ope),
            OpClass::Search => {
                if !col.onions.search {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "column {}.{} has no Search onion",
                        col.table, col.name
                    )));
                }
                self.rely(col, Need::Search);
                self.note(|u| &mut u.search, col);
            }
            OpClass::Add => {
                if !col.onions.add {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "column {}.{} has no Add onion (HOM is for integers)",
                        col.table, col.name
                    )));
                }
                self.note(|u| &mut u.hom, col);
            }
            OpClass::None => {}
        }
        Ok(())
    }

    fn note(&self, set: fn(&mut Usage) -> &mut BTreeSet<(String, String)>, col: &ColumnState) {
        if let Some(usage) = self.usage {
            set(&mut usage.borrow_mut())
                .insert((col.table.to_lowercase(), col.name.to_lowercase()));
        }
    }

    /// Passes `r` through; when it refuses clause `e` as needing
    /// plaintext, first notes the encrypted columns `e` reads.
    fn clause<T>(&self, e: &Expr, r: Result<T, ProxyError>) -> Result<T, ProxyError> {
        if let (Some(_), Err(err @ ProxyError::NeedsPlaintext(_))) = (self.usage, &r) {
            if !is_param_fallback(err) {
                e.walk(&mut |n| {
                    if let Expr::Column(c) = n {
                        if let Ok((_, _, col)) = self.resolver.resolve(self.schema, c) {
                            if col.sensitive {
                                self.note(|u| &mut u.plaintext, col);
                            }
                        }
                    }
                });
            }
        }
        r
    }

    fn into_reqs(self) -> Vec<Req> {
        self.reqs.into_inner()
    }

    fn push_hidden(&mut self, item: SelectItem, slot: Slot) -> usize {
        self.hid_items.push(item);
        self.hid_slots.push(slot);
        self.hid_items.len() - 1
    }

    fn qcol(&self, visible: &str, name: String) -> Expr {
        Expr::Column(ColumnRef {
            table: self.qualify.then(|| visible.to_string()),
            column: name,
        })
    }

    /// Builds the engine projection + slot for one plaintext column.
    /// Hidden helpers (IV, principal key column) are appended as needed;
    /// their indices are *hidden-relative* and fixed up at finalise time.
    fn project_column(
        &mut self,
        visible: &str,
        t: &TableState,
        col: &ColumnState,
    ) -> Result<(SelectItem, Slot), ProxyError> {
        if !col.sensitive {
            return Ok((
                SelectItem::Expr {
                    expr: self.qcol(visible, col.anon.clone()),
                    alias: None,
                },
                Slot::Raw,
            ));
        }
        if col.stale {
            // Serve from the authoritative Add onion (§3.3).
            return Ok((
                SelectItem::Expr {
                    expr: self.qcol(visible, col.anon_add()),
                    alias: None,
                },
                Slot::Add,
            ));
        }
        let iv = if col.eq_level == EqLevel::Rnd {
            Some(self.push_hidden(
                SelectItem::Expr {
                    expr: self.qcol(visible, col.anon_iv()),
                    alias: None,
                },
                Slot::Raw,
            ))
        } else {
            None
        };
        let enc_for = match &col.enc_for {
            None => None,
            Some(ef) => {
                let keycol = t.column(&ef.key_column).ok_or_else(|| {
                    ProxyError::Schema(format!("ENC FOR key column {} missing", ef.key_column))
                })?;
                if keycol.sensitive {
                    return Err(ProxyError::PolicyViolation(format!(
                        "ENC FOR key column {} must be plaintext in this implementation",
                        ef.key_column
                    )));
                }
                let idx = self.push_hidden(
                    SelectItem::Expr {
                        expr: self.qcol(visible, keycol.anon.clone()),
                        alias: None,
                    },
                    Slot::Raw,
                );
                Some((ef.princ_type.to_lowercase(), idx))
            }
        };
        Ok((
            SelectItem::Expr {
                expr: self.qcol(visible, col.anon_eq()),
                alias: None,
            },
            Slot::Eq {
                table: t.name.to_lowercase(),
                col: col.name.clone(),
                level: col.eq_level,
                iv,
                enc_for,
            },
        ))
    }

    /// Rewrites all column references in a plaintext-only expression.
    fn map_plain_expr(&self, e: &Expr) -> Result<Expr, ProxyError> {
        Ok(match e {
            Expr::Column(c) => {
                let (visible, _, col) = self.resolver.resolve(self.schema, c)?;
                if col.sensitive {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "expression over encrypted column {c}"
                    )));
                }
                self.qcol(&visible, col.anon.clone())
            }
            Expr::Literal(_) => e.clone(),
            Expr::Param(n) => self.param_hole(*n, ParamSlot::Plain)?,
            Expr::Binary { op, left, right } => {
                Expr::binary(*op, self.map_plain_expr(left)?, self.map_plain_expr(right)?)
            }
            Expr::Not(inner) => Expr::Not(Box::new(self.map_plain_expr(inner)?)),
            Expr::Neg(inner) => Expr::Neg(Box::new(self.map_plain_expr(inner)?)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(self.map_plain_expr(expr)?),
                pattern: Box::new(self.map_plain_expr(pattern)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.map_plain_expr(expr)?),
                list: list
                    .iter()
                    .map(|x| self.map_plain_expr(x))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.map_plain_expr(expr)?),
                low: Box::new(self.map_plain_expr(low)?),
                high: Box::new(self.map_plain_expr(high)?),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.map_plain_expr(expr)?),
                negated: *negated,
            },
            Expr::Func {
                name,
                args,
                star,
                distinct,
            } => Expr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|x| self.map_plain_expr(x))
                    .collect::<Result<_, _>>()?,
                star: *star,
                distinct: *distinct,
            },
        })
    }

    /// [`Self::map_plain_expr`], refusing with `what` when `e` reads an
    /// encrypted column.
    fn plain_or(&self, e: &Expr, what: &str) -> Result<Expr, ProxyError> {
        self.map_plain_expr(e).map_err(|err| match err {
            ProxyError::NeedsPlaintext(_) if !is_param_fallback(&err) => {
                ProxyError::NeedsPlaintext(format!("{what}: {e}"))
            }
            other => other,
        })
    }

    /// Rewrites a predicate into its encrypted form (§3.3).
    fn rw_pred(&self, e: &Expr) -> Result<Expr, ProxyError> {
        match e {
            Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
                Ok(Expr::binary(*op, self.rw_pred(left)?, self.rw_pred(right)?))
            }
            Expr::Not(inner) => Ok(Expr::Not(Box::new(self.rw_pred(inner)?))),
            clause => self.clause(clause, self.rw_clause(clause)),
        }
    }

    /// Rewrites one predicate clause: a comparison, LIKE, IN, BETWEEN,
    /// IS NULL, or a plaintext-only expression.
    fn rw_clause(&self, e: &Expr) -> Result<Expr, ProxyError> {
        const COMPUTES: &str =
            "computation and comparison cannot combine over an encrypted column (§6)";
        match e {
            Expr::Binary { op, left, right } if op.is_comparison() => match (&**left, &**right) {
                (Expr::Column(a), Expr::Column(b)) => self.rw_col_col(*op, a, b),
                (Expr::Column(c), other) => self.rw_col_cmp(*op, c, other),
                (other, Expr::Column(c)) => self.rw_col_cmp(flip_cmp(*op), c, other),
                _ => self.plain_or(e, COMPUTES),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let Expr::Column(c) = &**expr else {
                    return self.plain_or(e, "LIKE over an expression");
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
                let pat = match &**pattern {
                    Expr::Literal(Literal::Str(pat)) => pat,
                    // Whether a pattern is an equality or a SEARCH
                    // depends on its wildcards, unknown until Bind —
                    // the statement takes the generic prepared path.
                    Expr::Param(_) => return Err(param_fallback()),
                    _ => {
                        return Err(ProxyError::NeedsPlaintext(
                            "LIKE with a column pattern (the banned-list idiom, §8.2)".into(),
                        ))
                    }
                };
                let test = if !pat.contains('%') && !pat.contains('_') {
                    // Exact-match LIKE is an equality check.
                    self.serve(col, OpClass::Eq)?;
                    let enc = self.encrypt_eq_const(col, &Value::Str(pat.clone()))?;
                    Expr::binary(
                        BinOp::Eq,
                        self.qcol(&visible, col.anon_eq()),
                        value_to_literal(enc),
                    )
                } else {
                    let word = like_pattern_word(pat).ok_or_else(|| {
                        ProxyError::NeedsPlaintext(format!(
                            "LIKE pattern '{pat}' is not a full-word search (§3.1 SEARCH)"
                        ))
                    })?;
                    self.serve(col, OpClass::Search)?;
                    let keys = self.col_keys_of(col);
                    let token = colcrypt::search_token_bytes(&keys, &word);
                    Expr::Func {
                        name: "SEARCH_MATCH".into(),
                        args: vec![
                            self.qcol(&visible, col.anon_srch()),
                            Expr::Literal(Literal::Bytes(token)),
                        ],
                        star: false,
                        distinct: false,
                    }
                };
                Ok(if *negated {
                    Expr::Not(Box::new(test))
                } else {
                    test
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let Expr::Column(c) = &**expr else {
                    return self.plain_or(e, "IN over an expression");
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
                self.serve(col, OpClass::Eq)?;
                let enc_list = list
                    .iter()
                    .map(|x| {
                        if let Expr::Param(n) = x {
                            return self.param_hole(
                                *n,
                                ParamSlot::Eq {
                                    table: col.table.clone(),
                                    col: col.name.clone(),
                                },
                            );
                        }
                        let v = const_fold(x)?;
                        Ok(value_to_literal(self.encrypt_eq_const(col, &v)?))
                    })
                    .collect::<Result<Vec<_>, ProxyError>>()?;
                Ok(Expr::InList {
                    expr: Box::new(self.qcol(&visible, col.anon_eq())),
                    list: enc_list,
                    negated: *negated,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let Expr::Column(c) = &**expr else {
                    return self.plain_or(e, "BETWEEN over an expression");
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
                self.serve(col, OpClass::Ord)?;
                let bound = |e: &Expr| -> Result<Expr, ProxyError> {
                    if let Expr::Param(n) = e {
                        return self.param_hole(
                            *n,
                            ParamSlot::Ord {
                                table: col.table.clone(),
                                col: col.name.clone(),
                            },
                        );
                    }
                    let keys = self.col_keys_of(col);
                    let enc = self.proxy.ope_encrypt_cached(&keys, &const_fold(e)?)?;
                    Ok(value_to_literal(enc))
                };
                let lo = bound(low)?;
                let hi = bound(high)?;
                Ok(Expr::Between {
                    expr: Box::new(self.qcol(&visible, col.anon_ord())),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: *negated,
                })
            }
            Expr::IsNull { expr, negated } => {
                let Expr::Column(c) = &**expr else {
                    return self.plain_or(e, COMPUTES);
                };
                // NULLs are stored unencrypted (§3.3): no layer is read.
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                let target = if col.sensitive {
                    self.qcol(&visible, col.anon_eq())
                } else {
                    self.qcol(&visible, col.anon.clone())
                };
                Ok(Expr::IsNull {
                    expr: Box::new(target),
                    negated: *negated,
                })
            }
            other => self.plain_or(other, COMPUTES),
        }
    }

    /// Column-vs-column comparison: plaintext as is, an encrypted
    /// equi-join on the JOIN-ADJ tags (§3.4), or a range join within a
    /// declared OPE group.
    fn rw_col_col(&self, op: BinOp, a: &ColumnRef, b: &ColumnRef) -> Result<Expr, ProxyError> {
        let (va, _ta, ca) = self.resolver.resolve(self.schema, a)?;
        let (vb, _tb, cb) = self.resolver.resolve(self.schema, b)?;
        match (ca.sensitive, cb.sensitive) {
            (false, false) => Ok(Expr::binary(
                op,
                self.qcol(&va, ca.anon.clone()),
                self.qcol(&vb, cb.anon.clone()),
            )),
            (true, true) if op == BinOp::Eq || op == BinOp::NotEq => {
                self.serve(ca, OpClass::Join)?;
                self.serve(cb, OpClass::Join)?;
                if !ca.has_jtag || !cb.has_jtag {
                    return Err(ProxyError::PolicyViolation(format!(
                        "join between {} and {} refused: the adjustable \
                         JOIN layer was discarded (§3.5.2)",
                        ca.name, cb.name
                    )));
                }
                self.rely(ca, Need::JoinWith(cb));
                let jt = |v: &str, c: &ColumnState| Expr::Func {
                    name: "JOINTAG".into(),
                    args: vec![self.qcol(v, c.anon_eq())],
                    star: false,
                    distinct: false,
                };
                Ok(Expr::binary(op, jt(&va, ca), jt(&vb, cb)))
            }
            (true, true) => {
                if ca.ope_group.is_none() || ca.ope_group != cb.ope_group {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "range join between {} and {} requires a \
                         pre-declared OPE-JOIN group (§3.4)",
                        ca.name, cb.name
                    )));
                }
                self.serve(ca, OpClass::Ord)?;
                self.serve(cb, OpClass::Ord)?;
                Ok(Expr::binary(
                    op,
                    self.qcol(&va, ca.anon_ord()),
                    self.qcol(&vb, cb.anon_ord()),
                ))
            }
            _ => Err(ProxyError::NeedsPlaintext(
                "comparison between encrypted and plaintext columns".into(),
            )),
        }
    }

    /// `c op other` with `other` column-free on an encrypted column: the
    /// constant is encrypted to the layer `op` reads, and a bare `$n`
    /// becomes a typed bind-time hole (a `$n` buried in arithmetic
    /// falls back to the generic prepared path). On a plaintext column
    /// `other` may be any plaintext expression.
    fn rw_col_cmp(&self, op: BinOp, c: &ColumnRef, other: &Expr) -> Result<Expr, ProxyError> {
        let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
        if !col.sensitive {
            let rhs = match const_fold(other) {
                Ok(v) => value_to_literal(v),
                Err(_) => self.plain_or(other, "comparison against an encrypted expression")?,
            };
            return Ok(Expr::binary(op, self.qcol(&visible, col.anon.clone()), rhs));
        }
        let table = col.table.clone();
        let name = col.name.clone();
        if op.is_order() {
            self.serve(col, OpClass::Ord)?;
            let rhs = match other {
                Expr::Param(n) => self.param_hole(*n, ParamSlot::Ord { table, col: name })?,
                _ => {
                    let keys = self.col_keys_of(col);
                    value_to_literal(self.proxy.ope_encrypt_cached(&keys, &const_fold(other)?)?)
                }
            };
            Ok(Expr::binary(op, self.qcol(&visible, col.anon_ord()), rhs))
        } else {
            self.serve(col, OpClass::Eq)?;
            let rhs = match other {
                Expr::Param(n) => self.param_hole(*n, ParamSlot::Eq { table, col: name })?,
                _ => value_to_literal(self.encrypt_eq_const(col, &const_fold(other)?)?),
            };
            Ok(Expr::binary(op, self.qcol(&visible, col.anon_eq()), rhs))
        }
    }

    /// One GROUP BY key: an encrypted column groups on its DET layer.
    fn group_key(&self, g: &Expr) -> Result<Expr, ProxyError> {
        let Expr::Column(c) = g else {
            return self.plain_or(g, "GROUP BY over an encrypted expression");
        };
        let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
        self.serve(col, OpClass::Eq)?;
        Ok(if col.sensitive {
            self.qcol(&visible, col.anon_eq())
        } else {
            self.qcol(&visible, col.anon.clone())
        })
    }

    /// Rewrites a HAVING clause: COUNT compared with a constant only —
    /// the server cannot compare a HOM ciphertext (§3.5.1).
    fn rw_having(&self, e: &Expr) -> Result<Expr, ProxyError> {
        match e {
            Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => Ok(
                Expr::binary(*op, self.rw_having(left)?, self.rw_having(right)?),
            ),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.clause(e, self.rw_having_cmp(*op, left, right))
            }
            _ => Err(ProxyError::NeedsPlaintext(
                "unsupported HAVING clause".into(),
            )),
        }
    }

    fn rw_having_cmp(&self, op: BinOp, left: &Expr, right: &Expr) -> Result<Expr, ProxyError> {
        let (func, bound, func_left) = match (left, right) {
            (f @ Expr::Func { .. }, b) => (f, b, true),
            (b, f @ Expr::Func { .. }) => (f, b, false),
            _ => {
                return Err(ProxyError::NeedsPlaintext(
                    "HAVING supports aggregate comparisons only".into(),
                ))
            }
        };
        let Expr::Func {
            name,
            args,
            star,
            distinct,
        } = func
        else {
            unreachable!("matched a function")
        };
        if name != "COUNT" {
            return Err(ProxyError::NeedsPlaintext(format!(
                "HAVING over {name}: comparing a HOM ciphertext is impossible; \
                 process in the proxy instead (§3.5.1)"
            )));
        }
        let count = if *star {
            func.clone()
        } else {
            let Some(Expr::Column(c)) = args.first() else {
                return Err(ProxyError::NeedsPlaintext(
                    "HAVING COUNT over an expression".into(),
                ));
            };
            let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
            if *distinct {
                self.serve(col, OpClass::Eq)?;
            }
            let arg = if col.sensitive {
                self.qcol(&visible, col.anon_eq())
            } else {
                self.qcol(&visible, col.anon.clone())
            };
            Expr::Func {
                name: "COUNT".into(),
                args: vec![arg],
                star: false,
                distinct: *distinct,
            }
        };
        let bound = value_to_literal(const_fold(bound)?);
        Ok(if func_left {
            Expr::binary(op, count, bound)
        } else {
            Expr::binary(op, bound, count)
        })
    }

    fn col_keys_of(&self, col: &ColumnState) -> Arc<ColumnKeys> {
        // A column's own layer keys always derive from its own table/name
        // path, regardless of any JOIN-ADJ re-keying.
        self.proxy.col_keys(
            &col.table,
            &col.name,
            &self.proxy.mk,
            col.ope_group.as_deref(),
        )
    }

    /// Encrypts an equality constant with the column's current effective
    /// JOIN-ADJ key (which may belong to another column after re-keying).
    /// Results are cached per (column, join owner, value) — the §3.5.2
    /// "caching ... encryptions of frequently used constants", which also
    /// skips the elliptic-curve JOIN-ADJ tag on repeats.
    fn encrypt_eq_const(&self, col: &ColumnState, v: &Value) -> Result<Value, ProxyError> {
        self.proxy.encrypt_eq_const_in(self.schema, col, v)
    }
}

impl Proxy {
    /// Equality-constant encryption against a given schema snapshot; the
    /// shared body behind both the rewrite-time and Bind-time paths.
    pub(crate) fn encrypt_eq_const_in(
        &self,
        schema: &EncSchema,
        col: &ColumnState,
        v: &Value,
    ) -> Result<Value, ProxyError> {
        let memo_key = eq_memo_key(col, v);
        if let Some(hit) = self.eq_memo.get(&memo_key) {
            return Ok(hit);
        }
        let own_keys = self.col_keys(&col.table, &col.name, &self.mk, None);
        let owner_col = locked_col(schema, &col.join_owner.0, &col.join_owner.1)?;
        let owner_keys = self.col_keys(&owner_col.table, &owner_col.name, &self.mk, None);
        let out = encrypt_eq_constant(
            &own_keys,
            &self.joinadj,
            &owner_keys.join,
            v,
            col.ty,
            col.has_jtag,
        )?;
        self.eq_memo.insert(memo_key, out.clone());
        Ok(out)
    }
}

fn eq_memo_key(col: &ColumnState, v: &Value) -> EqMemoKey {
    (
        col.table.clone(),
        col.name.to_lowercase(),
        col.join_owner.0.clone(),
        col.join_owner.1.to_lowercase(),
        v.clone(),
    )
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

impl Proxy {
    pub(crate) fn select(
        &self,
        sel: &Select,
        usage: Option<&RefCell<Usage>>,
    ) -> Result<QueryResult, ProxyError> {
        if sel.from.is_empty() {
            return Ok(self.engine.execute(&Stmt::Select(sel.clone()))?);
        }
        let cs = self.plan_select(sel, false, usage)?;
        match self.run_select_plan(&cs, &[], false, None)? {
            RunOutcome::Done(r) => Ok(r),
            RunOutcome::Stale | RunOutcome::Declined => {
                unreachable!("neither epoch nor budget checked on the simple path")
            }
        }
    }

    /// Steps 1–2 of the paper's pipeline (§3.2): rewrite, adjusting
    /// onions first when the rewrite relies on a layer not yet exposed
    /// ([`Self::plan_walk`]). The result is reusable — `run_select_plan`
    /// performs the per-execution work (bind, execute, decrypt).
    pub(crate) fn plan_select(
        &self,
        sel: &Select,
        allow_params: bool,
        usage: Option<&RefCell<Usage>>,
    ) -> Result<CachedSelect, ProxyError> {
        let (cs, _) = self.plan_walk(|version| {
            let resolver = Resolver::from_select(version, sel)?;
            let rw = SelectRw::new(self, version, &resolver, true, allow_params, usage);
            self.rewrite_select(rw, sel, version)
        })?;
        Ok(cs)
    }

    /// Binds parameters (encrypting each occurrence per its slot),
    /// executes the cached rewritten SELECT, and decrypts the results,
    /// all against the plan's own schema version. With `check_epoch`,
    /// reports `Stale` instead of executing when the schema moved since
    /// the plan was built. With `max_rows` the run is bounded: it reports `Declined` instead
    /// of executing when a bound value would need a fresh encryption (a
    /// JOIN-ADJ tag or an OPE tree walk — only the §3.5.2 caches are
    /// read) or the engine scan would visit more rows
    /// ([`cryptdb_engine::Engine::select_within`]).
    pub(crate) fn run_select_plan(
        &self,
        cs: &CachedSelect,
        params: &[Value],
        check_epoch: bool,
        max_rows: Option<usize>,
    ) -> Result<RunOutcome, ProxyError> {
        if check_epoch && self.schema_epoch() != cs.version.epoch {
            return Ok(RunOutcome::Stale);
        }
        let schema = &cs.version;
        let stmt = {
            if cs.occ.is_empty() {
                cs.stmt.clone()
            } else {
                let mut bound = Vec::with_capacity(cs.occ.len());
                for occ in &cs.occ {
                    let v = params
                        .get((occ.n as usize).wrapping_sub(1))
                        .ok_or_else(|| {
                            ProxyError::Schema(format!("parameter ${} not bound", occ.n))
                        })?;
                    let enc = match &occ.slot {
                        ParamSlot::Plain => Some(v.clone()),
                        ParamSlot::Eq { table, col } => {
                            let col = locked_col(schema, table, col)?;
                            if max_rows.is_some() {
                                self.eq_memo.get(&eq_memo_key(col, v))
                            } else {
                                Some(self.encrypt_eq_const_in(schema, col, v)?)
                            }
                        }
                        ParamSlot::Ord { table, col } => {
                            let col = locked_col(schema, table, col)?;
                            let keys = self.col_keys(
                                &col.table,
                                &col.name,
                                &self.mk,
                                col.ope_group.as_deref(),
                            );
                            if max_rows.is_some() {
                                colcrypt::cached_ord_constant(&keys, v)?
                            } else {
                                Some(self.ope_encrypt_cached(&keys, v)?)
                            }
                        }
                    };
                    let Some(enc) = enc else {
                        return Ok(RunOutcome::Declined);
                    };
                    bound.push(value_to_literal(enc));
                }
                super::prepared::subst_select(&cs.stmt, &|occ| bound[occ as usize].clone())
            }
        };
        let result = match max_rows {
            None => self.engine.execute(&Stmt::Select(stmt))?,
            Some(cap) => match self.engine.select_within(&stmt, cap)? {
                Some(r) => r,
                None => return Ok(RunOutcome::Declined),
            },
        };
        self.decrypt_results(&cs.plan, schema, result)
            .map(RunOutcome::Done)
    }

    /// Rewrites `sel` under the schema `rw` reads, returning the plan and
    /// the adjustments it relied on that the schema lacks.
    fn rewrite_select(
        &self,
        mut rw: SelectRw<'_>,
        sel: &Select,
        version: &SchemaVersion,
    ) -> Result<(CachedSelect, Vec<Req>), ProxyError> {
        let (schema, resolver) = (rw.schema, rw.resolver);
        // Projections. DISTINCT compares every projected encrypted
        // column for equality.
        for item in &sel.projections {
            match item {
                SelectItem::Wildcard => {
                    for (visible, tname) in resolver.scopes.clone() {
                        let t = schema.table(&tname)?;
                        for col in t.columns.clone() {
                            if sel.distinct {
                                rw.serve(&col, OpClass::Eq)?;
                            }
                            let (it, slot) = rw.project_column(&visible, t, &col)?;
                            rw.vis_items.push(it);
                            rw.vis_slots.push(slot);
                            rw.vis_cols.push(Some((tname.clone(), col.name.clone())));
                            rw.names.push(col.name.clone());
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.column.clone(),
                        other => other.to_string(),
                    });
                    if let (true, Expr::Column(c)) = (sel.distinct, expr) {
                        let (_, _, col) = resolver.resolve(schema, c)?;
                        rw.clause(expr, rw.serve(col, OpClass::Eq))?;
                    }
                    let r = self.rewrite_projection(&mut rw, expr);
                    let (it, slot, colref) = rw.clause(expr, r)?;
                    rw.vis_items.push(it);
                    rw.vis_slots.push(slot);
                    rw.vis_cols.push(colref);
                    rw.names.push(name);
                }
            }
        }

        // WHERE and JOIN ... ON.
        let selection = sel.selection.as_ref().map(|w| rw.rw_pred(w)).transpose()?;
        let mut joins = Vec::with_capacity(sel.joins.len());
        for j in &sel.joins {
            let t = schema.table(&j.table.name)?;
            let visible = j
                .table
                .alias
                .clone()
                .unwrap_or_else(|| j.table.name.clone());
            joins.push(cryptdb_sqlparser::Join {
                table: TableRef {
                    name: t.anon.clone(),
                    alias: Some(visible),
                },
                on: rw.rw_pred(&j.on)?,
            });
        }
        let from = sel
            .from
            .iter()
            .map(|tref| {
                let t = schema.table(&tref.name)?;
                Ok(TableRef {
                    name: t.anon.clone(),
                    alias: Some(tref.alias.clone().unwrap_or_else(|| tref.name.clone())),
                })
            })
            .collect::<Result<Vec<_>, ProxyError>>()?;

        let group_by = sel
            .group_by
            .iter()
            .map(|g| rw.clause(g, rw.group_key(g)))
            .collect::<Result<Vec<_>, _>>()?;
        let having = sel.having.as_ref().map(|h| rw.rw_having(h)).transpose()?;

        // ORDER BY: in the proxy when every key is a column and no
        // LIMIT cuts the result (§3.5.1), keeping the Ord onion sealed.
        let proxy_sorting = !sel.order_by.is_empty()
            && sel.limit.is_none()
            && sel
                .order_by
                .iter()
                .all(|ob| matches!(ob.expr, Expr::Column(_)));
        let mut order_by = Vec::new();
        let mut proxy_sort = Vec::new();
        if proxy_sorting {
            for ob in &sel.order_by {
                let Expr::Column(c) = &ob.expr else {
                    unreachable!("proxy sorting requires plain columns")
                };
                // Prefer an existing visible projection by alias/name.
                let by_name = c.table.is_none().then(|| {
                    rw.names
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                });
                if let Some(Some(idx)) = by_name {
                    proxy_sort.push((idx, ob.asc));
                    continue;
                }
                let (visible, t, col) = resolver.resolve(schema, c)?;
                let t_low = t.name.to_lowercase();
                if let Some(idx) = rw
                    .vis_cols
                    .iter()
                    .position(|vc| vc.as_ref() == Some(&(t_low.clone(), col.name.clone())))
                {
                    proxy_sort.push((idx, ob.asc));
                } else {
                    let col = col.clone();
                    let (it, slot) = rw.project_column(&visible, t, &col)?;
                    let hid = rw.push_hidden(it, slot);
                    // Mark with a sentinel; fixed up after nvis is known.
                    proxy_sort.push((usize::MAX - hid, ob.asc));
                }
            }
        } else {
            for ob in &sel.order_by {
                let key = match &ob.expr {
                    Expr::Column(c) => {
                        let (visible, _t, col) = resolver.resolve(schema, c)?;
                        rw.serve(col, OpClass::Ord)?;
                        if col.sensitive {
                            rw.qcol(&visible, col.anon_ord())
                        } else {
                            rw.qcol(&visible, col.anon.clone())
                        }
                    }
                    count @ Expr::Func { name, .. } if name == "COUNT" => {
                        let r = self.rewrite_projection(&mut rw, count);
                        match rw.clause(count, r)?.0 {
                            SelectItem::Expr { expr, .. } => expr,
                            SelectItem::Wildcard => unreachable!(),
                        }
                    }
                    other => rw.clause(
                        other,
                        rw.plain_or(other, "ORDER BY over an encrypted expression"),
                    )?,
                };
                order_by.push(OrderBy {
                    expr: key,
                    asc: ob.asc,
                });
            }
        }

        let nvis = rw.vis_items.len();
        let fix = |s: Slot| -> Slot {
            match s {
                Slot::Eq {
                    table,
                    col,
                    level,
                    iv,
                    enc_for,
                } => Slot::Eq {
                    table,
                    col,
                    level,
                    iv: iv.map(|h| nvis + h),
                    enc_for: enc_for.map(|(p, h)| (p, nvis + h)),
                },
                Slot::AvgPair { table, col, count } => Slot::AvgPair {
                    table,
                    col,
                    count: nvis + count,
                },
                other => other,
            }
        };
        let slots: Vec<Slot> = rw
            .vis_slots
            .into_iter()
            .chain(rw.hid_slots)
            .map(fix)
            .collect();
        let proxy_sort = proxy_sort
            .into_iter()
            .map(|(idx, asc)| {
                if idx > usize::MAX / 2 {
                    (nvis + (usize::MAX - idx), asc)
                } else {
                    (idx, asc)
                }
            })
            .collect();

        let projections: Vec<SelectItem> = rw.vis_items.into_iter().chain(rw.hid_items).collect();
        let rewritten = Select {
            distinct: sel.distinct,
            projections,
            from,
            joins,
            selection,
            group_by,
            having,
            order_by,
            limit: sel.limit,
        };
        let plan = SelectPlan {
            slots,
            visible: nvis,
            names: rw.names,
            proxy_sort,
        };
        let cached = CachedSelect {
            stmt: rewritten,
            plan,
            occ: rw.params.into_inner(),
            version: version.clone(),
        };
        Ok((cached, rw.reqs.into_inner()))
    }

    /// Rewrites one projected expression; returns the engine item, its
    /// slot, and (for plain column refs) the column identity for reuse.
    #[allow(clippy::type_complexity)]
    fn rewrite_projection(
        &self,
        rw: &mut SelectRw<'_>,
        expr: &Expr,
    ) -> Result<(SelectItem, Slot, Option<(String, String)>), ProxyError> {
        match expr {
            Expr::Column(c) => {
                let (visible, t, col) = rw.resolver.resolve(rw.schema, c)?;
                let t_low = t.name.to_lowercase();
                let col = col.clone();
                let (it, slot) = rw.project_column(&visible, t, &col)?;
                Ok((it, slot, Some((t_low, col.name.clone()))))
            }
            Expr::Func {
                name,
                args,
                star,
                distinct,
            } => {
                if *star && name == "COUNT" {
                    return Ok((
                        SelectItem::Expr {
                            expr: expr.clone(),
                            alias: None,
                        },
                        Slot::Raw,
                        None,
                    ));
                }
                let Some(Expr::Column(c)) = args.first() else {
                    // A function over a plaintext expression runs as is.
                    return Ok((
                        SelectItem::Expr {
                            expr: rw.plain_or(expr, "function over an expression (§6)")?,
                            alias: None,
                        },
                        Slot::Raw,
                        None,
                    ));
                };
                let (visible, t, col) = rw.resolver.resolve(rw.schema, c)?;
                if !col.sensitive {
                    return Ok((
                        SelectItem::Expr {
                            expr: rw.plain_or(expr, "function over an encrypted column")?,
                            alias: None,
                        },
                        Slot::Raw,
                        None,
                    ));
                }
                let t_low = t.name.to_lowercase();
                match name.as_str() {
                    "COUNT" => {
                        if *distinct {
                            rw.serve(col, OpClass::Eq)?;
                        }
                        Ok((
                            SelectItem::Expr {
                                expr: Expr::Func {
                                    name: "COUNT".into(),
                                    args: vec![rw.qcol(&visible, col.anon_eq())],
                                    star: false,
                                    distinct: *distinct,
                                },
                                alias: None,
                            },
                            Slot::Raw,
                            None,
                        ))
                    }
                    "SUM" => {
                        rw.serve(col, OpClass::Add)?;
                        Ok((
                            SelectItem::Expr {
                                expr: Expr::Func {
                                    name: "HOM_SUM".into(),
                                    args: vec![rw.qcol(&visible, col.anon_add())],
                                    star: false,
                                    distinct: false,
                                },
                                alias: None,
                            },
                            Slot::Add,
                            None,
                        ))
                    }
                    "AVG" => {
                        rw.serve(col, OpClass::Add)?;
                        let count = rw.push_hidden(
                            SelectItem::Expr {
                                expr: Expr::Func {
                                    name: "COUNT".into(),
                                    args: vec![rw.qcol(&visible, col.anon_add())],
                                    star: false,
                                    distinct: false,
                                },
                                alias: None,
                            },
                            Slot::Raw,
                        );
                        Ok((
                            SelectItem::Expr {
                                expr: Expr::Func {
                                    name: "HOM_SUM".into(),
                                    args: vec![rw.qcol(&visible, col.anon_add())],
                                    star: false,
                                    distinct: false,
                                },
                                alias: None,
                            },
                            Slot::AvgPair {
                                table: t_low,
                                col: col.name.clone(),
                                count,
                            },
                            None,
                        ))
                    }
                    "MIN" | "MAX" => {
                        if col.ty != ColumnType::Int {
                            return Err(ProxyError::NeedsPlaintext(format!(
                                "{name} over encrypted text"
                            )));
                        }
                        rw.serve(col, OpClass::Ord)?;
                        Ok((
                            SelectItem::Expr {
                                expr: Expr::Func {
                                    name: name.clone(),
                                    args: vec![rw.qcol(&visible, col.anon_ord())],
                                    star: false,
                                    distinct: false,
                                },
                                alias: None,
                            },
                            Slot::Ord {
                                table: t_low,
                                col: col.name.clone(),
                            },
                            None,
                        ))
                    }
                    other => Err(ProxyError::NeedsPlaintext(format!(
                        "function {other} over encrypted column (§8.2 needs-plaintext)"
                    ))),
                }
            }
            other => Ok((
                SelectItem::Expr {
                    expr: rw.plain_or(other, "projected expression over an encrypted column")?,
                    alias: None,
                },
                Slot::Raw,
                None,
            )),
        }
    }

    /// Decrypts an engine result per the plan (§3 step 4).
    ///
    /// HOM (SUM/AVG) cells are the expensive part — a full-width CRT
    /// exponentiation each — so they are gathered into one batch and
    /// *pipelined*: the batch starts on the persistent runtime pool
    /// immediately, the calling thread decrypts the cheap onions
    /// (RND/DET/OPE) for every row while the pool works, and the two
    /// streams join only when the HOM slots are filled in.
    fn decrypt_results(
        &self,
        plan: &SelectPlan,
        schema: &EncSchema,
        result: QueryResult,
    ) -> Result<QueryResult, ProxyError> {
        let QueryResult::Rows { rows, .. } = result else {
            return Ok(result);
        };
        // One pass over the rows. HOM cells (SUM/AVG aggregates and
        // stale-column projections) decrypt in place on this thread with
        // one scratch for the whole result set; per-principal columns go
        // last in each row, since they need the decrypted key column.
        let mut ws = PaillierScratch::new();
        let mut hom_value = |cell: &Value| -> Result<Value, ProxyError> {
            if cell.is_null() {
                return Ok(Value::Null);
            }
            let bytes = cell
                .as_bytes()
                .ok_or_else(|| ProxyError::Crypto("Add onion cell is not bytes".into()))?;
            let ct = self.paillier.public().ciphertext_from_bytes(bytes);
            match self.paillier.decrypt_i64_with(&ct, &mut ws) {
                Some(v) => Ok(Value::Int(v)),
                None => Err(ProxyError::OutOfRange(
                    "HOM plaintext exceeds the 64-bit integer range".into(),
                )),
            }
        };
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in rows.iter() {
            let mut dec: Vec<Value> = vec![Value::Null; plan.slots.len()];
            for (i, slot) in plan.slots.iter().enumerate() {
                match slot {
                    Slot::Raw => dec[i] = row[i].clone(),
                    Slot::Eq {
                        table,
                        col,
                        level,
                        iv,
                        enc_for: None,
                    } => {
                        let cs = locked_col(schema, table, col)?;
                        let keys = self.master_col_keys(cs, table);
                        let iv_val = iv.map(|idx| row[idx].clone());
                        dec[i] = decrypt_eq(
                            &keys,
                            *level,
                            cs.ty,
                            &row[i],
                            iv_val.as_ref(),
                            cs.has_jtag,
                        )?;
                    }
                    Slot::Eq { .. } => {} // Per-principal pass below.
                    Slot::Add => dec[i] = hom_value(&row[i])?,
                    Slot::AvgPair { count, .. } => {
                        let sum = hom_value(&row[i])?;
                        let n = row[*count].as_int().unwrap_or(0);
                        dec[i] = match (sum, n) {
                            (Value::Int(s), n) if n > 0 => Value::Int(s / n),
                            _ => Value::Null,
                        };
                    }
                    Slot::Ord { table, col } => {
                        let cs = locked_col(schema, table, col)?;
                        let keys = self.master_col_keys(cs, table);
                        dec[i] = decrypt_ord(&keys, OrdLevel::Ope, &row[i], None)?;
                    }
                }
            }
            // Per-principal columns (need the key column).
            for (i, slot) in plan.slots.iter().enumerate() {
                let Slot::Eq {
                    table,
                    col,
                    level,
                    iv,
                    enc_for: Some((ptype, key_idx)),
                } = slot
                else {
                    continue;
                };
                let cs = locked_col(schema, table, col)?;
                let id = value_id_string(&dec[*key_idx]);
                let principal: Principal = (ptype.clone(), id);
                let root = self.mp.read().resolve_key(&self.engine, &principal);
                match root {
                    None => dec[i] = row[i].clone(), // Undecryptable: ciphertext.
                    Some(root) => {
                        let keys = self.col_keys(table, col, &root, None);
                        let iv_val = iv.map(|idx| row[idx].clone());
                        dec[i] = match decrypt_eq(
                            &keys,
                            *level,
                            cs.ty,
                            &row[i],
                            iv_val.as_ref(),
                            cs.has_jtag,
                        ) {
                            Ok(v) => v,
                            Err(_) => row[i].clone(),
                        };
                    }
                }
            }
            out_rows.push(dec);
        }
        // In-proxy ORDER BY (§3.5.1).
        if !plan.proxy_sort.is_empty() {
            out_rows.sort_by(|a, b| {
                for (idx, asc) in &plan.proxy_sort {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *asc { ord } else { ord.reverse() };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        for row in out_rows.iter_mut() {
            row.truncate(plan.visible);
        }
        Ok(QueryResult::Rows {
            columns: plan.names.clone(),
            rows: out_rows,
        })
    }
}

/// Principal ids are strings; integers stringify.
pub(crate) fn value_id_string(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

mod dml;
