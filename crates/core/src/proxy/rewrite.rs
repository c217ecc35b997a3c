//! Query rewriting, onion adjustment, and result decryption.

use super::*;
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
    Join((String, String), (String, String)),
}

/// Bound on [`Proxy::plan_walk`]'s adjust-then-walk rounds, like
/// `execute_prepared`'s three re-plans. The walk after an adjustment
/// runs under the adjustment's write guard, so one round suffices.
const MAX_ADJUSTMENTS: usize = 3;

impl Proxy {
    /// The one pipeline of every rewritten statement (§3.2): `walk`
    /// rewrites it against the schema and returns the requirements it
    /// relied on that the schema does not offer yet. A walk with none is
    /// the plan, taken under the read lock alone. Otherwise the guard is
    /// dropped, the write lock taken, the requirements met, and the
    /// statement walked again under that same guard, so nothing moves
    /// between the adjustment and the plan. A refusal returns before any
    /// adjustment: a refused statement adjusts nothing.
    fn plan_walk<T>(
        &self,
        mut walk: impl FnMut(&EncSchema) -> Result<(T, Vec<Req>), ProxyError>,
    ) -> Result<T, ProxyError> {
        let mut reqs = {
            let schema = self.schema.read();
            let (plan, reqs) = walk(&schema)?;
            if reqs.is_empty() {
                return Ok(plan);
            }
            reqs
        };
        let mut schema = self.schema.write();
        for _ in 0..MAX_ADJUSTMENTS {
            self.adjust_locked(&mut schema, &reqs)?;
            let (plan, more) = walk(&schema)?;
            if more.is_empty() {
                return Ok(plan);
            }
            reqs = more;
        }
        Err(ProxyError::Schema(
            "onion adjustment did not converge".into(),
        ))
    }

    // ---- adjustments (§3.2, §3.4) ----

    /// Applies every adjustment `reqs` demands: RND peeling via
    /// `DECRYPT_RND`, join-group merging via `JOIN_ADJ`, stale refresh.
    /// Every floor they would cross is checked before the first one, so
    /// a statement a floor refuses adjusts nothing.
    ///
    /// Each helper reports whether it actually mutated the schema; only
    /// real mutations bump the schema epoch, or the plan cache would
    /// never serve a hit.
    fn adjust_locked(&self, schema: &mut EncSchema, reqs: &[Req]) -> Result<(), ProxyError> {
        for req in reqs {
            check_floors(schema, req)?;
        }
        let mut changed = false;
        let mut search_flipped = false;
        let mut result = Ok(());
        for req in reqs {
            let step = match req {
                Req::Fresh(t, c) => self.refresh_stale_locked(schema, t, c),
                Req::Det(t, c) => self.expose_det_locked(schema, t, c),
                Req::Ope(t, c) => self.expose_ope_locked(schema, t, c),
                Req::Search(t, c) => locked_col_mut(schema, t, c).map(|col| {
                    search_flipped |= !col.search_used;
                    col.search_used = true;
                    false
                }),
                Req::Join(a, b) => self.merge_join_groups_locked(schema, a, b),
            };
            match step {
                Ok(c) => changed |= c,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // An adjustment that failed part-way still moved what it moved.
        if changed {
            self.bump_epoch();
        }
        if search_flipped {
            // `search_used` affects only MinEnc accounting, but it must
            // survive a restart like every other schema bit.
            self.log_schema(schema)?;
        }
        result
    }

    fn expose_det_locked(
        &self,
        schema: &mut EncSchema,
        t: &str,
        c: &str,
    ) -> Result<bool, ProxyError> {
        let (anon_t, col) = {
            let table = schema.table(t)?;
            let col = table
                .column(c)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))?;
            (table.anon.clone(), col.clone())
        };
        if col.offers(Need::Det) {
            return Ok(false);
        }
        let keys = self.master_col_keys(&col, t);
        // UPDATE table SET c_eq = DECRYPT_RND(K, c_eq, c_iv) — §3.2.
        let upd = Update {
            table: anon_t,
            sets: vec![(
                col.anon_eq(),
                Expr::Func {
                    name: "DECRYPT_RND".into(),
                    args: vec![
                        Expr::Literal(Literal::Bytes(keys.rnd_eq_key.to_vec())),
                        Expr::col(col.anon_eq()),
                        Expr::col(col.anon_iv()),
                    ],
                    star: false,
                    distinct: false,
                },
            )],
            selection: None,
        };
        // Composite record: flip the level in the secret schema first so
        // the serialized meta rides the same WAL record as the ciphertext
        // UPDATE (the exposure and the schema bit land atomically), and
        // revert if the engine rejects it.
        schema
            .table_mut(t)?
            .column_mut(c)
            .expect("column exists")
            .eq_level = EqLevel::Det;
        let meta = self.meta_blob(schema);
        if let Err(e) = self
            .engine
            .execute_adjustment(&[upd], &col.anon_columns(), meta.as_deref())
        {
            schema
                .table_mut(t)?
                .column_mut(c)
                .expect("column exists")
                .eq_level = EqLevel::Rnd;
            return Err(e.into());
        }
        Ok(true)
    }

    fn expose_ope_locked(
        &self,
        schema: &mut EncSchema,
        t: &str,
        c: &str,
    ) -> Result<bool, ProxyError> {
        let (anon_t, col) = {
            let table = schema.table(t)?;
            let col = table
                .column(c)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))?;
            (table.anon.clone(), col.clone())
        };
        if col.offers(Need::Ope) {
            return Ok(false);
        }
        let keys = self.master_col_keys(&col, t);
        let upd = Update {
            table: anon_t,
            sets: vec![(
                col.anon_ord(),
                Expr::Func {
                    name: "DECRYPT_RND".into(),
                    args: vec![
                        Expr::Literal(Literal::Bytes(keys.rnd_ord_key.to_vec())),
                        Expr::col(col.anon_ord()),
                        Expr::col(col.anon_iv()),
                    ],
                    star: false,
                    distinct: false,
                },
            )],
            selection: None,
        };
        schema
            .table_mut(t)?
            .column_mut(c)
            .expect("column exists")
            .ord_level = OrdLevel::Ope;
        let meta = self.meta_blob(schema);
        if let Err(e) = self
            .engine
            .execute_adjustment(&[upd], &col.anon_columns(), meta.as_deref())
        {
            schema
                .table_mut(t)?
                .column_mut(c)
                .expect("column exists")
                .ord_level = OrdLevel::Rnd;
            return Err(e.into());
        }
        Ok(true)
    }

    /// Merges the join transitivity groups of `a` and `b` (§3.4): all
    /// members are re-keyed to the lexicographically first column's key.
    fn merge_join_groups_locked(
        &self,
        schema: &mut EncSchema,
        a: &(String, String),
        b: &(String, String),
    ) -> Result<bool, ProxyError> {
        let (col_a, col_b) = (
            locked_col(schema, &a.0, &a.1)?,
            locked_col(schema, &b.0, &b.1)?,
        );
        if col_a.offers(Need::JoinWith(col_b)) {
            return Ok(false);
        }
        let (owner_a, owner_b) = (col_a.join_owner.clone(), col_b.join_owner.clone());
        let mut members = schema.join_group_members(&owner_a);
        members.extend(schema.join_group_members(&owner_b));
        let base = members
            .iter()
            .map(|(t, c)| (t.to_lowercase(), c.to_lowercase()))
            .min()
            .expect("groups are non-empty");
        let base_member = members
            .iter()
            .find(|(t, c)| (t.to_lowercase(), c.to_lowercase()) == base)
            .expect("base from members")
            .clone();
        let base_col = locked_col(schema, &base_member.0, &base_member.1)?.clone();
        let base_keys = self.master_col_keys(&base_col, &base_col.table.clone());
        for (t, c) in members {
            let col = locked_col(schema, &t, &c)?.clone();
            if col.join_owner == base_member {
                continue;
            }
            let owner_col = {
                let (ot, oc) = col.join_owner.clone();
                locked_col(schema, &ot, &oc)?.clone()
            };
            let owner_keys = self.master_col_keys(&owner_col, &owner_col.table.clone());
            let delta = JoinAdj::delta(&owner_keys.join, &base_keys.join);
            let anon_t = schema.table(&t)?.anon.clone();
            let upd = Update {
                table: anon_t,
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
            // Per-member composite record: re-own in the schema, attach
            // the meta to the JOIN_ADJ UPDATE, revert on failure. A crash
            // mid-merge leaves the already-re-keyed members durable with
            // the matching owner bits.
            let prev_owner = locked_col_mut(schema, &t, &c)?.join_owner.clone();
            locked_col_mut(schema, &t, &c)?.join_owner = base_member.clone();
            let meta = self.meta_blob(schema);
            if let Err(e) =
                self.engine
                    .execute_adjustment(&[upd], &col.anon_columns(), meta.as_deref())
            {
                locked_col_mut(schema, &t, &c)?.join_owner = prev_owner;
                return Err(e.into());
            }
        }
        Ok(true)
    }

    /// Re-encrypts a stale column from its (authoritative) Add onion —
    /// the paper's SELECT-then-UPDATE strategy for incremented columns
    /// that are later compared (§3.3).
    fn refresh_stale_locked(
        &self,
        schema: &mut EncSchema,
        t: &str,
        c: &str,
    ) -> Result<bool, ProxyError> {
        let (anon_t, col) = {
            let table = schema.table(t)?;
            let col = table
                .column(c)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {c}")))?;
            (table.anon.clone(), col.clone())
        };
        if col.offers(Need::Fresh) {
            return Ok(false);
        }
        let rows = self
            .engine
            .execute_sql(&format!("SELECT rid, {} FROM {anon_t}", col.anon_add()))?
            .rows()
            .to_vec();
        let owner = col.join_owner.clone();
        let owner_col = locked_col(schema, &owner.0, &owner.1)?.clone();
        let owner_keys = self.master_col_keys(&owner_col, &owner.0);
        let mut updates = Vec::with_capacity(rows.len());
        for row in rows {
            let rid = row[0]
                .as_int()
                .ok_or_else(|| ProxyError::Crypto("rid missing during stale refresh".into()))?;
            let v = decrypt_add(&self.paillier, &row[1])?;
            let cell = self.encrypt_cell_for(t, &col, &self.mk, &owner_keys, &v)?;
            let mut sets = vec![(
                col.anon_iv(),
                value_to_literal(cell.iv.unwrap_or(Value::Null)),
            )];
            if let Some(eq) = cell.eq {
                sets.push((col.anon_eq(), value_to_literal(eq)));
            }
            if let Some(ord) = cell.ord {
                sets.push((col.anon_ord(), value_to_literal(ord)));
            }
            updates.push(Update {
                table: anon_t.clone(),
                sets,
                selection: Some(Expr::binary(BinOp::Eq, Expr::col("rid"), Expr::int(rid))),
            });
        }
        // Every re-encrypted row and the cleared stale bit travel in one
        // composite record, so recovery lands before or after the
        // refresh, never between (the Add onion stays authoritative
        // either way). The guard refuses the refresh while an open
        // transaction holds writes to the column: rolling them back
        // would leave onions derived from values that never committed.
        locked_col_mut(schema, t, c)?.stale = false;
        let meta = self.meta_blob(schema);
        if let Err(e) =
            self.engine
                .execute_adjustment(&updates, &col.anon_columns(), meta.as_deref())
        {
            locked_col_mut(schema, t, c)?.stale = true;
            return Err(e.into());
        }
        Ok(true)
    }
}

impl Proxy {
    /// §3.5.1 "onion re-encryption": re-encrypts a column's exposed Eq/Ord
    /// onions back to RND after an infrequent low-layer query, reducing
    /// leakage to attacks that happen while the layer is exposed. The
    /// proxy reads every row, decrypts, and writes fresh RND ciphertexts.
    ///
    /// Returns the number of rows re-encrypted.
    pub fn seal_column(&self, table: &str, column: &str) -> Result<usize, ProxyError> {
        let mut schema = self.schema.write();
        let (anon_t, col) = {
            let t = schema.table(table)?;
            let col = t
                .column(column)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {column}")))?;
            (t.anon.clone(), col.clone())
        };
        if !col.sensitive || col.enc_for.is_some() {
            return Err(ProxyError::Schema(format!(
                "cannot re-seal {column}: not a single-principal encrypted column"
            )));
        }
        if col.eq_level == EqLevel::Rnd && col.ord_level == OrdLevel::Rnd {
            return Ok(0);
        }
        if col.stale {
            self.refresh_stale_locked(&mut schema, &table.to_lowercase(), column)?;
        }
        let keys = self.master_col_keys(&col, &col.table.clone());
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
        let owner_col = locked_col(&schema, &col.join_owner.0, &col.join_owner.1)?.clone();
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
            let mut sets = vec![(
                col.anon_iv(),
                value_to_literal(cell.iv.unwrap_or(Value::Null)),
            )];
            if let Some(x) = cell.eq {
                sets.push((col.anon_eq(), value_to_literal(x)));
            }
            if let Some(x) = cell.ord {
                sets.push((col.anon_ord(), value_to_literal(x)));
            }
            updates.push(Update {
                table: anon_t.clone(),
                sets,
                selection: Some(Expr::binary(BinOp::Eq, Expr::col("rid"), Expr::int(rid))),
            });
        }
        {
            let c = locked_col_mut(&mut schema, &table.to_lowercase(), column)?;
            c.eq_level = EqLevel::Rnd;
            c.ord_level = OrdLevel::Rnd;
        }
        // Crash atomicity: every re-encrypted cell AND the schema's
        // level flip travel in ONE composite WAL record, so recovery
        // lands either fully pre-seal (levels still exposed, old
        // ciphertexts) or fully sealed — never a torn mix of RND cells
        // under an exposed-level schema.
        let meta = self.meta_blob(&schema);
        if let Err(e) =
            self.engine
                .execute_adjustment(&updates, &col.anon_columns(), meta.as_deref())
        {
            let c = locked_col_mut(&mut schema, &table.to_lowercase(), column)?;
            c.eq_level = col.eq_level;
            c.ord_level = col.ord_level;
            return Err(e.into());
        }
        self.bump_epoch();
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
        Req::Fresh(..) => Ok(()),
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

fn locked_col_mut<'s>(
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
        let mut schema = self.schema.write();
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
        let anon = schema.next_anon_table();
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
        // Composite record: register the secret schema entry first, then
        // run the anonymized CREATE TABLE + rid-index as ONE batched WAL
        // record carrying the updated meta — the encrypted schema entry,
        // the server table, and its rid index stand or fall together.
        schema.insert(TableState {
            name: ct.name.clone(),
            anon: anon.clone(),
            columns,
            speaks_for: ct.speaks_for.clone(),
            next_rid: std::sync::Arc::new(std::sync::atomic::AtomicI64::new(1)),
        })?;
        let meta = self.meta_blob(&schema);
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
        if let Err(e) = self.engine.execute_batch_with_meta(&batch, meta.as_deref()) {
            schema.remove(&ct.name);
            return Err(e.into());
        }
        self.bump_epoch();
        Ok(QueryResult::Ok)
    }

    pub(crate) fn create_index(
        &self,
        table: &str,
        column: &str,
    ) -> Result<QueryResult, ProxyError> {
        let (anon_t, col) = {
            let schema = self.schema.read();
            let t = schema.table(table)?;
            let col = t
                .column(column)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {column}")))?;
            (t.anon.clone(), col.clone())
        };
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
/// descriptors, and the schema epoch it was built against.
#[derive(Clone, Debug)]
pub(crate) struct CachedSelect {
    pub stmt: Select,
    pub plan: SelectPlan,
    pub occ: Vec<ParamOcc>,
    pub epoch: u64,
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
        self.plan_walk(|schema| {
            let resolver = Resolver::from_select(schema, sel)?;
            // Capture the epoch under the guard the rewrite reads: writers
            // mutate (and bump) under the write lock, so a plan tagged
            // with epoch E provably saw the schema as of E.
            let epoch = self.schema_epoch();
            let rw = SelectRw::new(self, schema, &resolver, true, allow_params, usage);
            self.rewrite_select(rw, sel, epoch)
        })
    }

    /// Binds parameters (encrypting each occurrence per its slot),
    /// executes the cached rewritten SELECT, and decrypts the results.
    /// With `check_epoch`, reports `Stale` instead of executing when the
    /// schema moved since the plan was built — the epoch is re-read under
    /// the same read guard the bind encryptions use, so a plan never
    /// binds against a schema newer than the one it was rewritten for.
    /// With `max_rows` the run is bounded: it reports `Declined` instead
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
        let stmt = {
            let schema = self.schema.read();
            if check_epoch && self.schema_epoch() != cs.epoch {
                return Ok(RunOutcome::Stale);
            }
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
                            let col = locked_col(&schema, table, col)?;
                            if max_rows.is_some() {
                                self.eq_memo.get(&eq_memo_key(col, v))
                            } else {
                                Some(self.encrypt_eq_const_in(&schema, col, v)?)
                            }
                        }
                        ParamSlot::Ord { table, col } => {
                            let col = locked_col(&schema, table, col)?;
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
        self.decrypt_results(&cs.plan, result).map(RunOutcome::Done)
    }

    /// Rewrites `sel` under the schema `rw` reads, returning the plan and
    /// the adjustments it relied on that the schema lacks.
    fn rewrite_select(
        &self,
        mut rw: SelectRw<'_>,
        sel: &Select,
        epoch: u64,
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
            epoch,
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
        result: QueryResult,
    ) -> Result<QueryResult, ProxyError> {
        let QueryResult::Rows { rows, .. } = result else {
            return Ok(result);
        };
        // Gather every Add-onion (HOM) cell of the whole result set —
        // SUM/AVG aggregates and stale-column projections — and kick off
        // one pooled batch decryption. Plans without aggregate slots
        // (the common case) skip the row scan entirely. This happens
        // before the schema read guard is taken: a batch too small to
        // split decrypts right here, and a guard held across it would
        // stall every statement queued behind a writer waiting for it
        // (an onion adjustment takes the write lock).
        let hom_slots: Vec<usize> = plan
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Add | Slot::AvgPair { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut hom_refs = Vec::new();
        let mut pending_hom = None;
        if !hom_slots.is_empty() {
            let mut cts = Vec::new();
            for (ri, row) in rows.iter().enumerate() {
                for &i in &hom_slots {
                    if row[i].is_null() {
                        continue;
                    }
                    let bytes = row[i]
                        .as_bytes()
                        .ok_or_else(|| ProxyError::Crypto("Add onion cell is not bytes".into()))?;
                    hom_refs.push((ri, i));
                    cts.push(self.paillier.public().ciphertext_from_bytes(bytes));
                }
            }
            if !cts.is_empty() {
                pending_hom = Some(self.paillier.decrypt_i64_batch_pending(&self.runtime, cts));
            }
        }
        // Row post-processing overlaps with the HOM batch: first pass
        // decrypts everything except HOM cells and per-principal
        // columns, second pass handles per-principal columns (which
        // need the already-decrypted key column).
        let schema = self.schema.read();
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
                        let cs = locked_col(&schema, table, col)?;
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
                    // HOM slots are filled after the pipelined batch
                    // lands.
                    Slot::Add | Slot::AvgPair { .. } => {}
                    Slot::Ord { table, col } => {
                        let cs = locked_col(&schema, table, col)?;
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
                let cs = locked_col(&schema, table, col)?;
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
        // The onion passes above are done with the schema; release the
        // read guard BEFORE joining the HOM batch. wait_help below may
        // inline-run another session's queued statement on this thread,
        // and a statement may take `schema.write()` (DDL, onion
        // adjustment; INSERT itself is read-only here since rid
        // allocation went atomic) — with the guard still held that
        // same-thread read→write upgrade would deadlock (the locks are
        // non-reentrant). Masked on a single-worker pool and for
        // batches under 4 cells, where the pending batch is
        // pre-resolved; live for larger batches on multicore.
        drop(schema);
        // Join the pipelined HOM batch and fill the aggregate slots.
        if !hom_slots.is_empty() {
            let mut hom_cells: HashMap<(usize, usize), Option<i64>> = HashMap::new();
            if let Some(pending) = pending_hom {
                // Help-while-waiting: this thread may itself BE a pool
                // worker (the serving layer dispatches client sessions
                // as pool jobs), in which case a plain wait could leave
                // every worker blocked on chunks queued behind other
                // sessions — help_one keeps the queue draining.
                for (key, v) in hom_refs.into_iter().zip(pending.wait_help(&self.runtime)) {
                    hom_cells.insert(key, v);
                }
            }
            let hom_value = |ri: usize, i: usize| -> Result<Value, ProxyError> {
                match hom_cells.get(&(ri, i)) {
                    None => Ok(Value::Null),
                    Some(Some(v)) => Ok(Value::Int(*v)),
                    Some(None) => Err(ProxyError::OutOfRange(
                        "HOM plaintext exceeds the 64-bit integer range".into(),
                    )),
                }
            };
            for (ri, dec) in out_rows.iter_mut().enumerate() {
                for (i, slot) in plan.slots.iter().enumerate() {
                    match slot {
                        Slot::Add => dec[i] = hom_value(ri, i)?,
                        Slot::AvgPair { count, .. } => {
                            let sum = hom_value(ri, i)?;
                            let n = rows[ri][*count].as_int().unwrap_or(0);
                            dec[i] = match (sum, n) {
                                (Value::Int(s), n) if n > 0 => Value::Int(s / n),
                                _ => Value::Null,
                            };
                        }
                        _ => {}
                    }
                }
            }
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
