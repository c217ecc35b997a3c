//! INSERT / UPDATE / DELETE rewriting and SPEAKS-FOR maintenance hooks.

use super::*;

type RowMap = HashMap<String, Value>;

impl Proxy {
    pub(crate) fn insert(&self, txn: &Txn, ins: &Insert) -> Result<QueryResult, ProxyError> {
        // The cells are encrypted under one schema version and written
        // before any adjustment can re-encode their columns. The guard
        // drops before the SPEAKS-FOR hooks, which may plan (and so
        // adjust for) a SELECT.
        let cells = self.schema.shared();
        let schema = self.schema.snapshot();
        let tstate = schema.table(&ins.table)?;
        let rid_start = tstate.alloc_rids(ins.rows.len() as i64);
        let columns: Vec<String> = if ins.columns.is_empty() {
            tstate.columns.iter().map(|c| c.name.clone()).collect()
        } else {
            ins.columns.clone()
        };
        // Anonymised column list (same for every row).
        let mut anon_cols: Vec<String> = vec!["rid".into()];
        for cname in &columns {
            let col = tstate
                .column(cname)
                .ok_or_else(|| ProxyError::Schema(format!("unknown column {cname}")))?;
            if !col.sensitive {
                anon_cols.push(col.anon.clone());
                continue;
            }
            anon_cols.push(col.anon_iv());
            if col.onions.eq {
                anon_cols.push(col.anon_eq());
            }
            if col.onions.ord {
                anon_cols.push(col.anon_ord());
            }
            if col.onions.add {
                anon_cols.push(col.anon_add());
            }
            if col.onions.search {
                anon_cols.push(col.anon_srch());
            }
        }

        let mut anon_rows = Vec::with_capacity(ins.rows.len());
        let mut row_maps: Vec<RowMap> = Vec::with_capacity(ins.rows.len());
        for row in &ins.rows {
            if row.len() != columns.len() {
                return Err(ProxyError::Schema(format!(
                    "INSERT arity mismatch: {} columns, {} values",
                    columns.len(),
                    row.len()
                )));
            }
            let mut map: RowMap = HashMap::new();
            for (c, e) in columns.iter().zip(row) {
                map.insert(c.to_lowercase(), const_fold(e)?);
            }
            let mut out: Vec<Expr> = vec![Expr::int(rid_start + anon_rows.len() as i64)];
            for cname in &columns {
                let col = tstate.column(cname).expect("validated above");
                let v = map[&cname.to_lowercase()].clone();
                if !col.sensitive {
                    out.push(value_to_literal(v));
                    continue;
                }
                let root = self.root_key_for(tstate, col, &map)?;
                let owner_keys = self.owner_keys(&schema, col, &root)?;
                let cell = self.encrypt_cell_for(
                    &tstate.name.to_lowercase(),
                    col,
                    &root,
                    &owner_keys,
                    &v,
                )?;
                out.push(value_to_literal(cell.iv.unwrap_or(Value::Null)));
                if col.onions.eq {
                    out.push(value_to_literal(cell.eq.unwrap_or(Value::Null)));
                }
                if col.onions.ord {
                    out.push(value_to_literal(cell.ord.unwrap_or(Value::Null)));
                }
                if col.onions.add {
                    out.push(value_to_literal(cell.add.unwrap_or(Value::Null)));
                }
                if col.onions.search {
                    out.push(value_to_literal(cell.srch.unwrap_or(Value::Null)));
                }
            }
            anon_rows.push(out);
            row_maps.push(map);
        }

        let n = anon_rows.len();
        let stmt = Stmt::Insert(Insert {
            table: tstate.anon.clone(),
            columns: anon_cols,
            rows: anon_rows,
        });
        self.engine.execute_in(txn, &stmt, None)?;
        drop(cells);

        // §4: maintain key chains for SPEAKS-FOR annotations.
        self.run_insert_hooks(tstate, &row_maps)?;
        Ok(QueryResult::Affected(n))
    }

    /// The root key for a column: the master key, or the `ENC FOR`
    /// principal's key (creating the principal on first reference).
    fn root_key_for(
        &self,
        tstate: &TableState,
        col: &ColumnState,
        row: &RowMap,
    ) -> Result<Key, ProxyError> {
        let Some(ef) = &col.enc_for else {
            return Ok(self.mk);
        };
        let id_val = row.get(&ef.key_column.to_lowercase()).ok_or_else(|| {
            ProxyError::Schema(format!(
                "INSERT into {} must include ENC FOR key column {}",
                tstate.name, ef.key_column
            ))
        })?;
        let principal: Principal = (ef.princ_type.to_lowercase(), value_id_string(id_val));
        // Fast path under the read lock: the principal exists and its
        // key is reachable (every INSERT after the first for a given
        // principal). Only principal *creation* needs the write lock.
        {
            let mp = self.mp.read();
            if mp.principal_exists(&self.engine, &principal) {
                return self.reachable_key(&mp, &principal);
            }
        }
        let mut mp = self.mp.write();
        let mut rng = rand::thread_rng();
        // Re-check: another session may have created it between locks.
        if mp.principal_exists(&self.engine, &principal) {
            return self.reachable_key(&mp, &principal);
        }
        mp.create_principal(&self.engine, &principal, &mut rng)
    }

    /// Resolves a principal's key, mapping an unreachable chain to
    /// [`ProxyError::KeyUnavailable`].
    fn reachable_key(&self, mp: &MultiPrincipal, principal: &Principal) -> Result<Key, ProxyError> {
        mp.resolve_key(&self.engine, principal).ok_or_else(|| {
            ProxyError::KeyUnavailable(format!(
                "no logged-in user can reach principal ({}, {})",
                principal.0, principal.1
            ))
        })
    }

    /// The column keys whose JOIN-ADJ key currently keys this column.
    fn owner_keys(
        &self,
        schema: &EncSchema,
        col: &ColumnState,
        root: &Key,
    ) -> Result<Arc<ColumnKeys>, ProxyError> {
        if col.enc_for.is_some() {
            // Per-principal columns never join; their own keys apply.
            return Ok(self.col_keys(&col.table, &col.name, root, None));
        }
        let owner = &col.join_owner;
        let owner_col = locked_col(schema, &owner.0, &owner.1)?;
        Ok(self.col_keys(&owner_col.table, &owner_col.name, &self.mk, None))
    }

    // ---- SPEAKS-FOR hooks ----

    fn run_insert_hooks(&self, tstate: &TableState, rows: &[RowMap]) -> Result<(), ProxyError> {
        // Annotations on this table.
        for ann in tstate.speaks_for.clone() {
            for row in rows {
                self.apply_annotation(&tstate.name, &ann, row, true)?;
            }
        }
        // Annotations on other tables whose speaker is `T2.col` with
        // T2 = this table (e.g. a new PCMember gains access to reviews).
        let foreign: Vec<(String, cryptdb_sqlparser::SpeaksFor)> = self.with_schema(|s| {
            s.tables()
                .flat_map(|t| {
                    t.speaks_for
                        .iter()
                        .filter(|ann| {
                            matches!(&ann.speaker, SpeakerRef::ForeignColumn { table, .. }
                                if table.eq_ignore_ascii_case(&tstate.name))
                        })
                        .map(|ann| (t.name.clone(), ann.clone()))
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        for (annotated_table, ann) in foreign {
            let SpeakerRef::ForeignColumn { column: fcol, .. } = &ann.speaker else {
                continue;
            };
            // New speaker instances from the inserted rows.
            let speaker_ids: Vec<String> = rows
                .iter()
                .filter_map(|r| r.get(&fcol.to_lowercase()).map(value_id_string))
                .collect();
            if speaker_ids.is_empty() {
                continue;
            }
            // Existing object rows in the annotated table.
            let obj_rows = self.table_row_maps(&annotated_table, None)?;
            let mut rng = rand::thread_rng();
            for obj_row in &obj_rows {
                let Some(obj_id) = obj_row.get(&ann.object_column.to_lowercase()) else {
                    continue;
                };
                let object: Principal = (ann.object_type.to_lowercase(), value_id_string(obj_id));
                for sid in &speaker_ids {
                    let speaker: Principal = (ann.speaker_type.to_lowercase(), sid.clone());
                    if !self.eval_ann_condition(
                        &ann.condition,
                        obj_row,
                        &[(fcol.to_lowercase(), Value::Str(sid.clone()))],
                    )? {
                        continue;
                    }
                    // Best effort: only delegable if we can reach the key.
                    let object_key = { self.mp.read().resolve_key(&self.engine, &object) };
                    if let Some(key) = object_key {
                        self.mp.write().add_edge(
                            &self.engine,
                            &speaker,
                            &object,
                            &key,
                            &mut rng,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_annotation(
        &self,
        table: &str,
        ann: &cryptdb_sqlparser::SpeaksFor,
        row: &RowMap,
        create_missing_object: bool,
    ) -> Result<(), ProxyError> {
        let Some(obj_id) = row.get(&ann.object_column.to_lowercase()) else {
            return Err(ProxyError::Schema(format!(
                "INSERT into {table} must include SPEAKS FOR object column {}",
                ann.object_column
            )));
        };
        let object: Principal = (ann.object_type.to_lowercase(), value_id_string(obj_id));
        let speakers: Vec<(Principal, Vec<(String, Value)>)> = match &ann.speaker {
            SpeakerRef::Column(c) => {
                let Some(v) = row.get(&c.to_lowercase()) else {
                    return Ok(());
                };
                vec![(
                    (ann.speaker_type.to_lowercase(), value_id_string(v)),
                    Vec::new(),
                )]
            }
            SpeakerRef::Const(s) => {
                vec![((ann.speaker_type.to_lowercase(), s.clone()), Vec::new())]
            }
            SpeakerRef::ForeignColumn {
                table: t2,
                column: c2,
            } => {
                let maps = self.table_row_maps(t2, None)?;
                maps.iter()
                    .filter_map(|m| m.get(&c2.to_lowercase()))
                    .map(|v| {
                        (
                            (ann.speaker_type.to_lowercase(), value_id_string(v)),
                            vec![(c2.to_lowercase(), v.clone())],
                        )
                    })
                    .collect()
            }
        };
        let mut rng = rand::thread_rng();
        for (speaker, extra) in speakers {
            if !self.eval_ann_condition(&ann.condition, row, &extra)? {
                continue;
            }
            let object_key = {
                let existing = {
                    let mp = self.mp.read();
                    if mp.principal_exists(&self.engine, &object) {
                        Some(mp.resolve_key(&self.engine, &object))
                    } else {
                        None
                    }
                };
                match existing {
                    Some(key) => key,
                    None if !create_missing_object => continue,
                    None => {
                        let mut mp = self.mp.write();
                        // Re-check under the write lock (racing sessions).
                        if mp.principal_exists(&self.engine, &object) {
                            mp.resolve_key(&self.engine, &object)
                        } else {
                            Some(mp.create_principal(&self.engine, &object, &mut rng)?)
                        }
                    }
                }
            };
            let Some(key) = object_key else {
                return Err(ProxyError::KeyUnavailable(format!(
                    "cannot delegate ({}, {}): no authority over its key \
                     (no authorised user logged in)",
                    object.0, object.1
                )));
            };
            self.mp
                .write()
                .add_edge(&self.engine, &speaker, &object, &key, &mut rng)?;
        }
        Ok(())
    }

    /// Evaluates a SPEAKS-FOR `IF` condition against a row (plus extra
    /// bindings for foreign speaker columns). Named predicates run their
    /// registered SQL template through the proxy itself.
    fn eval_ann_condition(
        &self,
        cond: &Option<Expr>,
        row: &RowMap,
        extra: &[(String, Value)],
    ) -> Result<bool, ProxyError> {
        let Some(cond) = cond else { return Ok(true) };
        self.eval_cond_expr(cond, row, extra)
    }

    fn lookup_binding(&self, name: &str, row: &RowMap, extra: &[(String, Value)]) -> Option<Value> {
        let lower = name.to_lowercase();
        extra
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.clone())
            .or_else(|| row.get(&lower).cloned())
    }

    fn eval_cond_expr(
        &self,
        e: &Expr,
        row: &RowMap,
        extra: &[(String, Value)],
    ) -> Result<bool, ProxyError> {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                Ok(self.eval_cond_expr(left, row, extra)?
                    && self.eval_cond_expr(right, row, extra)?)
            }
            Expr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => {
                Ok(self.eval_cond_expr(left, row, extra)?
                    || self.eval_cond_expr(right, row, extra)?)
            }
            Expr::Not(inner) => Ok(!self.eval_cond_expr(inner, row, extra)?),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let val = |side: &Expr| -> Result<Value, ProxyError> {
                    match side {
                        Expr::Column(c) => {
                            self.lookup_binding(&c.column, row, extra).ok_or_else(|| {
                                ProxyError::Schema(format!(
                                    "SPEAKS FOR condition references unknown column {c}"
                                ))
                            })
                        }
                        other => const_fold(other),
                    }
                };
                let l = val(left)?;
                let r = val(right)?;
                // Compare ids loosely: ints and their string forms match.
                let ord = l
                    .sql_cmp(&r)
                    .or_else(|| value_id_string(&l).partial_cmp(&value_id_string(&r)));
                Ok(match ord {
                    None => false,
                    Some(o) => match op {
                        BinOp::Eq => o.is_eq(),
                        BinOp::NotEq => !o.is_eq(),
                        BinOp::Lt => o.is_lt(),
                        BinOp::LtEq => o.is_le(),
                        BinOp::Gt => o.is_gt(),
                        BinOp::GtEq => o.is_ge(),
                        _ => false,
                    },
                })
            }
            Expr::Func { name, args, .. } => {
                let template = {
                    let mp = self.mp.read();
                    mp.predicate(name).cloned()
                }
                .ok_or_else(|| {
                    ProxyError::Schema(format!(
                        "SPEAKS FOR condition uses unregistered predicate {name} \
                         (register it with Proxy::register_predicate)"
                    ))
                })?;
                let mut sql = template;
                for (i, arg) in args.iter().enumerate() {
                    let v = match arg {
                        Expr::Column(c) => {
                            self.lookup_binding(&c.column, row, extra).ok_or_else(|| {
                                ProxyError::Schema(format!(
                                    "predicate {name} argument {c} not bound"
                                ))
                            })?
                        }
                        other => const_fold(other)?,
                    };
                    let lit = match v {
                        Value::Int(x) => x.to_string(),
                        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
                        Value::Null => "NULL".into(),
                        Value::Bytes(b) => format!(
                            "x'{}'",
                            b.iter().map(|x| format!("{x:02x}")).collect::<String>()
                        ),
                    };
                    sql = sql.replace(&format!("${}", i + 1), &lit);
                }
                let r = self.execute(&sql)?;
                Ok(r.scalar().map(|v| v.is_truthy()).unwrap_or(false))
            }
            other => Err(ProxyError::Schema(format!(
                "unsupported SPEAKS FOR condition: {other}"
            ))),
        }
    }

    /// Reads a whole table (or a filtered subset) through the proxy,
    /// returning lowercase-named row maps.
    fn table_row_maps(
        &self,
        table: &str,
        selection: Option<Expr>,
    ) -> Result<Vec<RowMap>, ProxyError> {
        let sel = Select {
            projections: vec![SelectItem::Wildcard],
            from: vec![TableRef {
                name: table.to_string(),
                alias: None,
            }],
            selection,
            ..Default::default()
        };
        let r = self.select(&sel, None)?;
        let QueryResult::Rows { columns, rows } = r else {
            return Ok(Vec::new());
        };
        Ok(rows
            .into_iter()
            .map(|row| {
                columns
                    .iter()
                    .map(|c| c.to_lowercase())
                    .zip(row)
                    .collect::<RowMap>()
            })
            .collect())
    }

    // ---- UPDATE ----

    pub(crate) fn update(
        &self,
        txn: &Txn,
        upd: &Update,
        usage: Option<&RefCell<Usage>>,
    ) -> Result<QueryResult, ProxyError> {
        loop {
            let (stmt, epoch) = self.plan_walk(|version| {
                let resolver = Resolver::for_table(version, &upd.table)?;
                let rw = SelectRw::new(self, version, &resolver, false, false, usage);
                let tstate = version.table(&upd.table)?;
                let selection = upd.selection.as_ref().map(|w| rw.rw_pred(w)).transpose()?;
                let mut sets: Vec<(String, Expr)> = Vec::new();
                for (cname, expr) in &upd.sets {
                    let col = tstate
                        .column(cname)
                        .ok_or_else(|| ProxyError::Schema(format!("unknown column {cname}")))?;
                    match self.rw_assignment(&rw, upd, tstate, col, expr) {
                        Ok(assigned) => sets.extend(assigned),
                        Err(e) => {
                            let clause =
                                Expr::binary(BinOp::Eq, Expr::col(cname.as_str()), expr.clone());
                            return rw.clause(&clause, Err(e));
                        }
                    }
                }
                let stmt = Stmt::Update(Update {
                    table: tstate.anon.clone(),
                    sets,
                    selection,
                });
                Ok((stmt, rw.into_reqs()))
            })?;
            // The cells were encrypted, and any stale mark made, under
            // `epoch`: write them only if no adjustment has run since, and
            // before one can. An increment thus holds off every refresh
            // from its stale check through its HOM_ADD.
            let _cells = self.schema.shared();
            if self.schema_epoch() == epoch {
                return Ok(self.engine.execute_in(txn, &stmt, None)?);
            }
        }
    }

    /// Rewrites `SET col = expr` into the onion assignments it becomes.
    fn rw_assignment(
        &self,
        rw: &SelectRw<'_>,
        upd: &Update,
        tstate: &TableState,
        col: &ColumnState,
        expr: &Expr,
    ) -> Result<Vec<(String, Expr)>, ProxyError> {
        if !col.sensitive {
            return Ok(vec![(col.anon.clone(), rw.map_plain_expr(expr)?)]);
        }
        if let Some(delta) = increment_of(expr, &col.name) {
            // §3.3: increments run on the Add onion via HOM, and the
            // other onions are marked stale before the HOM_ADD runs: a
            // crash in between recovers a stale bit on fresh onions,
            // which costs one refresh, never a comparison served from
            // stale ones.
            rw.serve(col, OpClass::Add)?;
            rw.rely(col, Need::Stale);
            let enc = self.encrypt_hom_const(delta);
            let add = Expr::Func {
                name: "HOM_ADD".into(),
                args: vec![Expr::col(col.anon_add()), enc],
                star: false,
                distinct: false,
            };
            return Ok(vec![(col.anon_add(), add)]);
        }
        // Plain constant assignment: re-encrypt every onion.
        let v = const_fold(expr)?;
        let root = match &col.enc_for {
            None => self.mk,
            Some(ef) => {
                let id = upd
                    .selection
                    .as_ref()
                    .and_then(|w| extract_eq_const(w, &ef.key_column))
                    .ok_or_else(|| {
                        ProxyError::PolicyViolation(format!(
                            "UPDATE of per-principal column {} must pin \
                             {} = <const> in WHERE",
                            col.name, ef.key_column
                        ))
                    })?;
                let principal: Principal = (ef.princ_type.to_lowercase(), value_id_string(&id));
                self.mp
                    .read()
                    .resolve_key(&self.engine, &principal)
                    .ok_or_else(|| {
                        ProxyError::KeyUnavailable(format!(
                            "no authority over principal ({}, {})",
                            principal.0, principal.1
                        ))
                    })?
            }
        };
        let owner_keys = self.owner_keys(rw.schema, col, &root)?;
        let cell =
            self.encrypt_cell_for(&tstate.name.to_lowercase(), col, &root, &owner_keys, &v)?;
        Ok(cell_sets(col, cell, true))
    }

    fn encrypt_hom_const(&self, v: i64) -> Expr {
        let pk = self.paillier.public();
        let ct = pk.encrypt_with_blinding(&pk.encode_i64(v), &self.take_blinding());
        Expr::Literal(Literal::Bytes(pk.ciphertext_to_bytes(&ct)))
    }

    // ---- DELETE ----

    pub(crate) fn delete(
        &self,
        txn: &Txn,
        del: &Delete,
        usage: Option<&RefCell<Usage>>,
    ) -> Result<QueryResult, ProxyError> {
        // §4.2 revocation: removing a SPEAKS-FOR row removes its edges.
        let anns = self.with_schema(|s| {
            s.table(&del.table)
                .map(|t| t.speaks_for.clone())
                .unwrap_or_default()
        });
        if !anns.is_empty() {
            let rows = self.table_row_maps(&del.table, del.selection.clone())?;
            for ann in &anns {
                for row in &rows {
                    self.revoke_annotation(ann, row)?;
                }
            }
        }
        let (stmt, _) = self.plan_walk(|version| {
            let resolver = Resolver::for_table(version, &del.table)?;
            let rw = SelectRw::new(self, version, &resolver, false, false, usage);
            let selection = del.selection.as_ref().map(|w| rw.rw_pred(w)).transpose()?;
            let stmt = Stmt::Delete(Delete {
                table: version.table(&del.table)?.anon.clone(),
                selection,
            });
            Ok((stmt, rw.into_reqs()))
        })?;
        Ok(self.engine.execute_in(txn, &stmt, None)?)
    }

    fn revoke_annotation(
        &self,
        ann: &cryptdb_sqlparser::SpeaksFor,
        row: &RowMap,
    ) -> Result<(), ProxyError> {
        let Some(obj_id) = row.get(&ann.object_column.to_lowercase()) else {
            return Ok(());
        };
        let object: Principal = (ann.object_type.to_lowercase(), value_id_string(obj_id));
        let speakers: Vec<Principal> = match &ann.speaker {
            SpeakerRef::Column(c) => row
                .get(&c.to_lowercase())
                .map(|v| vec![(ann.speaker_type.to_lowercase(), value_id_string(v))])
                .unwrap_or_default(),
            SpeakerRef::Const(s) => vec![(ann.speaker_type.to_lowercase(), s.clone())],
            SpeakerRef::ForeignColumn {
                table: t2,
                column: c2,
            } => self
                .table_row_maps(t2, None)?
                .iter()
                .filter_map(|m| m.get(&c2.to_lowercase()))
                .map(|v| (ann.speaker_type.to_lowercase(), value_id_string(v)))
                .collect(),
        };
        let mut mp = self.mp.write();
        for sp in speakers {
            mp.remove_edge(&self.engine, &sp, &object)?;
        }
        Ok(())
    }
}

/// Detects `col = col ± k`, returning the signed delta.
fn increment_of(expr: &Expr, col: &str) -> Option<i64> {
    let Expr::Binary { op, left, right } = expr else {
        return None;
    };
    let (sign, colside, constside) = match op {
        BinOp::Add => match (&**left, &**right) {
            (Expr::Column(c), k) => (1i64, c, k),
            (k, Expr::Column(c)) => (1, c, k),
            _ => return None,
        },
        BinOp::Sub => match (&**left, &**right) {
            (Expr::Column(c), k) => (-1, c, k),
            _ => return None,
        },
        _ => return None,
    };
    if !colside.column.eq_ignore_ascii_case(col) {
        return None;
    }
    match const_fold(constside) {
        Ok(Value::Int(k)) => Some(sign * k),
        _ => None,
    }
}
