//! Query analysis, onion adjustment, rewriting, and result decryption.

use super::*;
use std::cell::RefCell;

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

/// One onion requirement extracted from a query (§3.2).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Req {
    Eq(String, String),
    Ord(String, String),
    Search(String, String),
    Join((String, String), (String, String)),
    OrdJoin((String, String), (String, String)),
    RefreshStale(String, String),
}

fn expr_has_columns(e: &Expr) -> bool {
    let mut has = false;
    e.walk(&mut |n| {
        if matches!(n, Expr::Column(_)) {
            has = true;
        }
    });
    has
}

impl Proxy {
    fn expr_has_sensitive(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        e: &Expr,
    ) -> Result<bool, ProxyError> {
        let mut err = None;
        let mut has = false;
        e.walk(&mut |n| {
            if let Expr::Column(c) = n {
                match resolver.resolve(schema, c) {
                    Ok((_, _, col)) => {
                        if col.sensitive {
                            has = true;
                        }
                    }
                    Err(e) => err = Some(e),
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(has),
        }
    }

    /// Adds the requirement for a column-vs-constant comparison, with the
    /// multi-principal and staleness checks.
    fn push_col_req(
        &self,
        col_t: &TableState,
        col: &ColumnState,
        class: OpClass,
        reqs: &mut Vec<Req>,
    ) -> Result<(), ProxyError> {
        if !col.sensitive {
            return Ok(());
        }
        if col.enc_for.is_some() && class != OpClass::None {
            return Err(ProxyError::NeedsPlaintext(format!(
                "column {}.{} is encrypted per-principal; server-side {class:?} is impossible \
                 (§6: no server computation across principals)",
                col_t.name, col.name
            )));
        }
        let t = col_t.name.to_lowercase();
        if col.stale && matches!(class, OpClass::Eq | OpClass::Ord | OpClass::Join) {
            reqs.push(Req::RefreshStale(t.clone(), col.name.clone()));
        }
        match class {
            OpClass::Eq => reqs.push(Req::Eq(t, col.name.clone())),
            OpClass::Ord => reqs.push(Req::Ord(t, col.name.clone())),
            OpClass::Search => {
                if !col.onions.search {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "column {}.{} has no Search onion",
                        col_t.name, col.name
                    )));
                }
                reqs.push(Req::Search(t, col.name.clone()));
            }
            OpClass::Add => {
                if !col.onions.add {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "column {}.{} has no Add onion (HOM is for integers)",
                        col_t.name, col.name
                    )));
                }
            }
            OpClass::Join | OpClass::None => {}
        }
        Ok(())
    }

    /// Collects onion requirements from a predicate (WHERE / ON).
    fn analyze_pred(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        e: &Expr,
        reqs: &mut Vec<Req>,
    ) -> Result<(), ProxyError> {
        match e {
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                left,
                right,
            } => {
                self.analyze_pred(schema, resolver, left, reqs)?;
                self.analyze_pred(schema, resolver, right, reqs)
            }
            Expr::Not(inner) => self.analyze_pred(schema, resolver, inner, reqs),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let lcol = matches!(&**left, Expr::Column(_));
                let rcol = matches!(&**right, Expr::Column(_));
                match (lcol, rcol) {
                    (true, true) => {
                        let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) else {
                            unreachable!("matched columns");
                        };
                        let (_, ta, ca) = resolver.resolve(schema, a)?;
                        let (_, tb, cb) = resolver.resolve(schema, b)?;
                        match (ca.sensitive, cb.sensitive) {
                            (false, false) => Ok(()),
                            (true, true) => {
                                if ca.enc_for.is_some() || cb.enc_for.is_some() {
                                    return Err(ProxyError::NeedsPlaintext(
                                        "join on per-principal encrypted column".into(),
                                    ));
                                }
                                let pa = (ta.name.to_lowercase(), ca.name.clone());
                                let pb = (tb.name.to_lowercase(), cb.name.clone());
                                if *op == BinOp::Eq || *op == BinOp::NotEq {
                                    if !ca.has_jtag || !cb.has_jtag {
                                        return Err(ProxyError::PolicyViolation(format!(
                                            "join between {} and {} refused: the adjustable \
                                             JOIN layer was discarded (§3.5.2)",
                                            ca.name, cb.name
                                        )));
                                    }
                                    if ca.stale {
                                        reqs.push(Req::RefreshStale(pa.0.clone(), pa.1.clone()));
                                    }
                                    if cb.stale {
                                        reqs.push(Req::RefreshStale(pb.0.clone(), pb.1.clone()));
                                    }
                                    reqs.push(Req::Join(pa, pb));
                                } else {
                                    if ca.ope_group.is_none() || ca.ope_group != cb.ope_group {
                                        return Err(ProxyError::NeedsPlaintext(format!(
                                            "range join between {} and {} requires a \
                                             pre-declared OPE-JOIN group (§3.4)",
                                            ca.name, cb.name
                                        )));
                                    }
                                    reqs.push(Req::OrdJoin(pa, pb));
                                }
                                Ok(())
                            }
                            _ => Err(ProxyError::NeedsPlaintext(
                                "comparison between encrypted and plaintext columns".into(),
                            )),
                        }
                    }
                    (true, false) | (false, true) => {
                        let (cref, other) = if lcol {
                            (&**left, &**right)
                        } else {
                            (&**right, &**left)
                        };
                        let Expr::Column(c) = cref else {
                            unreachable!()
                        };
                        let (_, t, col) = resolver.resolve(schema, c)?;
                        if expr_has_columns(other) {
                            if self.expr_has_sensitive(schema, resolver, other)? || col.sensitive {
                                return Err(ProxyError::NeedsPlaintext(format!(
                                    "comparison of column against a column expression: {e}"
                                )));
                            }
                            return Ok(());
                        }
                        let class = if op.is_order() {
                            OpClass::Ord
                        } else {
                            OpClass::Eq
                        };
                        self.push_col_req(t, col, class, reqs)
                    }
                    (false, false) => {
                        if self.expr_has_sensitive(schema, resolver, e)? {
                            Err(ProxyError::NeedsPlaintext(format!(
                                "computation over encrypted column in predicate: {e} \
                                 (§6: computation and comparison cannot combine)"
                            )))
                        } else {
                            Ok(())
                        }
                    }
                }
            }
            Expr::Like { expr, pattern, .. } => {
                let Expr::Column(c) = &**expr else {
                    return Err(ProxyError::NeedsPlaintext("LIKE over expression".into()));
                };
                let (_, t, col) = resolver.resolve(schema, c)?;
                if !col.sensitive {
                    return Ok(());
                }
                if matches!(&**pattern, Expr::Param(_)) {
                    // Whether a pattern is an equality or a SEARCH
                    // depends on its wildcards, unknown until Bind —
                    // the statement takes the generic prepared path.
                    return Err(param_fallback());
                }
                let Expr::Literal(Literal::Str(pat)) = &**pattern else {
                    return Err(ProxyError::NeedsPlaintext(
                        "LIKE with a column pattern (the banned-list idiom, §8.2)".into(),
                    ));
                };
                if !pat.contains('%') && !pat.contains('_') {
                    return self.push_col_req(t, col, OpClass::Eq, reqs);
                }
                if like_pattern_word(pat).is_none() {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "LIKE pattern '{pat}' is not a full-word search (§3.1 SEARCH)"
                    )));
                }
                self.push_col_req(t, col, OpClass::Search, reqs)
            }
            Expr::InList { expr, list, .. } => {
                let Expr::Column(c) = &**expr else {
                    return Err(ProxyError::NeedsPlaintext("IN over expression".into()));
                };
                let (_, t, col) = resolver.resolve(schema, c)?;
                if list.iter().any(expr_has_columns) {
                    return Err(ProxyError::NeedsPlaintext("IN list with columns".into()));
                }
                self.push_col_req(t, col, OpClass::Eq, reqs)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                let Expr::Column(c) = &**expr else {
                    return Err(ProxyError::NeedsPlaintext("BETWEEN over expression".into()));
                };
                let (_, t, col) = resolver.resolve(schema, c)?;
                if expr_has_columns(low) || expr_has_columns(high) {
                    return Err(ProxyError::NeedsPlaintext(
                        "BETWEEN with column bounds".into(),
                    ));
                }
                self.push_col_req(t, col, OpClass::Ord, reqs)
            }
            Expr::IsNull { .. } => Ok(()), // NULLs are stored unencrypted (§3.3).
            Expr::Func { name, args, .. } => {
                // Aggregates are analysed by the projection/HAVING paths;
                // any other function over an encrypted column needs
                // plaintext (string/date manipulation, bitwise ops — §8.2).
                for a in args {
                    if self.expr_has_sensitive(schema, resolver, a)? {
                        return Err(ProxyError::NeedsPlaintext(format!(
                            "function {name} over encrypted column"
                        )));
                    }
                }
                Ok(())
            }
            Expr::Column(c) => {
                let (_, _, col) = resolver.resolve(schema, c)?;
                if col.sensitive {
                    Err(ProxyError::NeedsPlaintext(
                        "bare encrypted column as a predicate".into(),
                    ))
                } else {
                    Ok(())
                }
            }
            // A placeholder analyses like the constant it stands for.
            Expr::Literal(_) | Expr::Param(_) => Ok(()),
            Expr::Binary { .. } | Expr::Neg(_) => {
                if self.expr_has_sensitive(schema, resolver, e)? {
                    Err(ProxyError::NeedsPlaintext(format!(
                        "arithmetic over encrypted column: {e}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Collects requirements from a whole SELECT.
    fn collect_select_reqs(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        sel: &Select,
    ) -> Result<Vec<Req>, ProxyError> {
        let mut reqs = Vec::new();
        if let Some(w) = &sel.selection {
            self.analyze_pred(schema, resolver, w, &mut reqs)?;
        }
        for j in &sel.joins {
            self.analyze_pred(schema, resolver, &j.on, &mut reqs)?;
        }
        for g in &sel.group_by {
            match g {
                Expr::Column(c) => {
                    let (_, t, col) = resolver.resolve(schema, c)?;
                    self.push_col_req(t, col, OpClass::Eq, &mut reqs)?;
                }
                other => {
                    if self.expr_has_sensitive(schema, resolver, other)? {
                        return Err(ProxyError::NeedsPlaintext(
                            "GROUP BY over an encrypted expression".into(),
                        ));
                    }
                }
            }
        }
        if let Some(h) = &sel.having {
            self.analyze_having(schema, resolver, h, &mut reqs)?;
        }
        // Projections.
        for item in &sel.projections {
            match item {
                SelectItem::Wildcard => {}
                SelectItem::Expr { expr, .. } => {
                    self.analyze_projection(schema, resolver, expr, sel.distinct, &mut reqs)?;
                }
            }
        }
        if sel.distinct {
            // DISTINCT needs equality on every projected encrypted column.
            for item in &sel.projections {
                match item {
                    SelectItem::Wildcard => {
                        for (_, tname) in &resolver.scopes {
                            let t = schema.table(tname)?;
                            for col in t.columns.clone() {
                                self.push_col_req(t, &col, OpClass::Eq, &mut reqs)?;
                            }
                        }
                    }
                    SelectItem::Expr {
                        expr: Expr::Column(c),
                        ..
                    } => {
                        let (_, t, col) = resolver.resolve(schema, c)?;
                        self.push_col_req(t, col, OpClass::Eq, &mut reqs)?;
                    }
                    _ => {}
                }
            }
        }
        // ORDER BY (server-side path only).
        if !self.proxy_sorts(sel) {
            for ob in &sel.order_by {
                match &ob.expr {
                    Expr::Column(c) => {
                        let (_, t, col) = resolver.resolve(schema, c)?;
                        self.push_col_req(t, col, OpClass::Ord, &mut reqs)?;
                    }
                    Expr::Func { name, .. } if name == "COUNT" => {}
                    other => {
                        if self.expr_has_sensitive(schema, resolver, other)? {
                            return Err(ProxyError::NeedsPlaintext(
                                "ORDER BY over an encrypted expression".into(),
                            ));
                        }
                    }
                }
            }
        }
        Ok(reqs)
    }

    fn analyze_projection(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        e: &Expr,
        _distinct: bool,
        reqs: &mut Vec<Req>,
    ) -> Result<(), ProxyError> {
        match e {
            Expr::Column(_) | Expr::Literal(_) => Ok(()),
            Expr::Func {
                name,
                args,
                star,
                distinct,
            } => match name.as_str() {
                "COUNT" => {
                    if *star {
                        return Ok(());
                    }
                    let Some(Expr::Column(c)) = args.first() else {
                        return Err(ProxyError::NeedsPlaintext("COUNT over expression".into()));
                    };
                    let (_, t, col) = resolver.resolve(schema, c)?;
                    if *distinct {
                        self.push_col_req(t, col, OpClass::Eq, reqs)?;
                    }
                    Ok(())
                }
                "SUM" | "AVG" => {
                    let Some(Expr::Column(c)) = args.first() else {
                        return Err(ProxyError::NeedsPlaintext(format!(
                            "{name} over an expression (§6)"
                        )));
                    };
                    let (_, t, col) = resolver.resolve(schema, c)?;
                    self.push_col_req(t, col, OpClass::Add, reqs)
                }
                "MIN" | "MAX" => {
                    let Some(Expr::Column(c)) = args.first() else {
                        return Err(ProxyError::NeedsPlaintext(format!(
                            "{name} over an expression"
                        )));
                    };
                    let (_, t, col) = resolver.resolve(schema, c)?;
                    if col.sensitive && col.ty != ColumnType::Int {
                        return Err(ProxyError::NeedsPlaintext(format!(
                            "{name} over encrypted text"
                        )));
                    }
                    self.push_col_req(t, col, OpClass::Ord, reqs)
                }
                other => {
                    if args
                        .iter()
                        .map(|a| self.expr_has_sensitive(schema, resolver, a))
                        .collect::<Result<Vec<_>, _>>()?
                        .iter()
                        .any(|b| *b)
                    {
                        Err(ProxyError::NeedsPlaintext(format!(
                            "function {other} over encrypted column (§8.2 needs-plaintext)"
                        )))
                    } else {
                        Ok(())
                    }
                }
            },
            other => {
                if self.expr_has_sensitive(schema, resolver, other)? {
                    Err(ProxyError::NeedsPlaintext(format!(
                        "projected expression over encrypted column: {other}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn analyze_having(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        e: &Expr,
        reqs: &mut Vec<Req>,
    ) -> Result<(), ProxyError> {
        match e {
            Expr::Binary {
                op: BinOp::And | BinOp::Or,
                left,
                right,
            } => {
                self.analyze_having(schema, resolver, left, reqs)?;
                self.analyze_having(schema, resolver, right, reqs)
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (func, other) = match (&**left, &**right) {
                    (f @ Expr::Func { .. }, o) => (f, o),
                    (o, f @ Expr::Func { .. }) => (f, o),
                    _ => {
                        return Err(ProxyError::NeedsPlaintext(
                            "HAVING supports aggregate comparisons only".into(),
                        ))
                    }
                };
                if expr_has_columns(other) {
                    return Err(ProxyError::NeedsPlaintext(
                        "HAVING with column bound".into(),
                    ));
                }
                let Expr::Func { name, .. } = func else {
                    unreachable!()
                };
                if name != "COUNT" {
                    return Err(ProxyError::NeedsPlaintext(format!(
                        "HAVING over {name}: comparing a HOM ciphertext is impossible; \
                         process in the proxy instead (§3.5.1)"
                    )));
                }
                self.analyze_projection(schema, resolver, func, false, reqs)
            }
            _ => Err(ProxyError::NeedsPlaintext(
                "unsupported HAVING clause".into(),
            )),
        }
    }

    fn proxy_sorts(&self, sel: &Select) -> bool {
        !sel.order_by.is_empty()
            && sel.limit.is_none()
            && sel
                .order_by
                .iter()
                .all(|ob| matches!(ob.expr, Expr::Column(_)))
    }

    // ---- adjustments (§3.2, §3.4) ----

    /// Applies every adjustment the requirements demand: RND peeling via
    /// `DECRYPT_RND`, join-group merging via `JOIN_ADJ`, stale refresh.
    ///
    /// Each helper reports whether it actually mutated the schema; only
    /// real mutations bump the schema epoch. Re-checking an
    /// already-exposed layer (the steady state for every repeated query
    /// shape) must NOT invalidate cached plans, or the plan cache would
    /// never serve a hit.
    pub(crate) fn apply_adjustments(&self, reqs: &[Req]) -> Result<(), ProxyError> {
        if reqs.is_empty() {
            return Ok(());
        }
        let mut schema = self.schema.write();
        let mut search_flipped = false;
        let mut changed = false;
        for req in reqs {
            match req {
                Req::RefreshStale(t, c) => {
                    changed |= self.refresh_stale_locked(&mut schema, t, c)?
                }
                Req::Eq(t, c) => changed |= self.expose_det_locked(&mut schema, t, c)?,
                Req::Ord(t, c) => changed |= self.expose_ope_locked(&mut schema, t, c)?,
                Req::Search(t, c) => {
                    locked_col(&schema, t, c)?.check_floor(SecLevel::Search)?;
                    let col = locked_col_mut(&mut schema, t, c)?;
                    search_flipped |= !col.search_used;
                    col.search_used = true;
                }
                Req::OrdJoin(a, b) => {
                    changed |= self.expose_ope_locked(&mut schema, &a.0, &a.1)?;
                    changed |= self.expose_ope_locked(&mut schema, &b.0, &b.1)?;
                }
                Req::Join(a, b) => {
                    changed |= self.expose_det_locked(&mut schema, &a.0, &a.1)?;
                    changed |= self.expose_det_locked(&mut schema, &b.0, &b.1)?;
                    changed |= self.merge_join_groups_locked(&mut schema, a, b)?;
                }
            }
        }
        if changed {
            self.bump_epoch();
        }
        if search_flipped {
            // `search_used` affects only MinEnc accounting, but it must
            // survive a restart like every other schema bit.
            self.log_schema(&schema)?;
        }
        Ok(())
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
        if col.eq_level == EqLevel::Det || !col.sensitive || !col.onions.eq {
            return Ok(false);
        }
        col.check_floor(SecLevel::Det)?;
        let keys = self.master_col_keys(&col, t);
        // UPDATE table SET c_eq = DECRYPT_RND(K, c_eq, c_iv) — §3.2.
        let sql_stmt = Stmt::Update(Update {
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
        });
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
        if let Err(e) = self.engine.execute_with_meta(&sql_stmt, meta.as_deref()) {
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
        if col.ord_level == OrdLevel::Ope || !col.sensitive || !col.onions.ord {
            return Ok(false);
        }
        col.check_floor(SecLevel::Ope)?;
        let keys = self.master_col_keys(&col, t);
        let sql_stmt = Stmt::Update(Update {
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
        });
        schema
            .table_mut(t)?
            .column_mut(c)
            .expect("column exists")
            .ord_level = OrdLevel::Ope;
        let meta = self.meta_blob(schema);
        if let Err(e) = self.engine.execute_with_meta(&sql_stmt, meta.as_deref()) {
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
        let owner_a = locked_col(schema, &a.0, &a.1)?.join_owner.clone();
        let owner_b = locked_col(schema, &b.0, &b.1)?.join_owner.clone();
        if owner_a == owner_b {
            return Ok(false);
        }
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
            col.check_floor(SecLevel::Join)?;
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
            let stmt = Stmt::Update(Update {
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
            });
            // Per-member composite record: re-own in the schema, attach
            // the meta to the JOIN_ADJ UPDATE, revert on failure. A crash
            // mid-merge leaves the already-re-keyed members durable with
            // the matching owner bits.
            let prev_owner = locked_col_mut(schema, &t, &c)?.join_owner.clone();
            locked_col_mut(schema, &t, &c)?.join_owner = base_member.clone();
            let meta = self.meta_blob(schema);
            if let Err(e) = self.engine.execute_with_meta(&stmt, meta.as_deref()) {
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
        if !col.stale {
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
            let stmt = Stmt::Update(Update {
                table: anon_t.clone(),
                sets,
                selection: Some(Expr::binary(BinOp::Eq, Expr::col("rid"), Expr::int(rid))),
            });
            self.engine.execute(&stmt)?;
        }
        // The per-row re-encryptions above log meta-less records; the
        // stale bit clears only once all rows are rewritten. A crash
        // mid-refresh therefore recovers with `stale` still set and the
        // refresh simply re-runs (it is idempotent — the Add onion stays
        // authoritative throughout).
        locked_col_mut(schema, t, c)?.stale = false;
        self.log_schema(schema)?;
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
        if let Err(e) = self
            .engine
            .execute_dml_batch_with_meta(&updates, meta.as_deref())
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
        if !col.sensitive {
            self.engine.execute(&Stmt::CreateIndex {
                table: anon_t,
                column: col.anon.clone(),
            })?;
            return Ok(QueryResult::Ok);
        }
        // §3.3: indexes go on the DET/JOIN and OPE onion columns; RND,
        // HOM and SEARCH are not indexable.
        if col.onions.eq {
            self.engine.execute(&Stmt::CreateIndex {
                table: anon_t.clone(),
                column: col.anon_eq(),
            })?;
        }
        if col.onions.ord {
            self.engine.execute(&Stmt::CreateIndex {
                table: anon_t,
                column: col.anon_ord(),
            })?;
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
    Add {
        #[allow(dead_code)]
        table: String,
        #[allow(dead_code)]
        col: String,
    },
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
    ) -> Self {
        SelectRw {
            proxy,
            schema,
            resolver,
            qualify,
            allow_params,
            params: RefCell::new(Vec::new()),
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
                Slot::Add {
                    table: t.name.to_lowercase(),
                    col: col.name.clone(),
                },
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

    /// Rewrites a predicate into its encrypted form (§3.3).
    fn rw_pred(&self, e: &Expr) -> Result<Expr, ProxyError> {
        match e {
            Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
                Ok(Expr::binary(*op, self.rw_pred(left)?, self.rw_pred(right)?))
            }
            Expr::Not(inner) => Ok(Expr::Not(Box::new(self.rw_pred(inner)?))),
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let lcol = matches!(&**left, Expr::Column(_));
                let rcol = matches!(&**right, Expr::Column(_));
                match (lcol, rcol) {
                    (true, true) => {
                        let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) else {
                            unreachable!()
                        };
                        let (va, _ta, ca) = self.resolver.resolve(self.schema, a)?;
                        let (vb, _tb, cb) = self.resolver.resolve(self.schema, b)?;
                        if !ca.sensitive && !cb.sensitive {
                            return Ok(Expr::binary(
                                *op,
                                self.qcol(&va, ca.anon.clone()),
                                self.qcol(&vb, cb.anon.clone()),
                            ));
                        }
                        if *op == BinOp::Eq || *op == BinOp::NotEq {
                            // Equi-join on the JOIN-ADJ tags (§3.4).
                            let jt = |v: &str, c: &ColumnState| Expr::Func {
                                name: "JOINTAG".into(),
                                args: vec![self.qcol(v, c.anon_eq())],
                                star: false,
                                distinct: false,
                            };
                            Ok(Expr::binary(*op, jt(&va, ca), jt(&vb, cb)))
                        } else {
                            // Range join within a declared OPE group.
                            Ok(Expr::binary(
                                *op,
                                self.qcol(&va, ca.anon_ord()),
                                self.qcol(&vb, cb.anon_ord()),
                            ))
                        }
                    }
                    (true, false) | (false, true) => {
                        let (cref, other, op) = if lcol {
                            (&**left, &**right, *op)
                        } else {
                            (&**right, &**left, flip_cmp(*op))
                        };
                        let Expr::Column(c) = cref else {
                            unreachable!()
                        };
                        let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                        // A bare `$n` on the constant side becomes a typed
                        // bind-time hole; anything else (including `$n`
                        // buried in arithmetic) folds now or falls back.
                        if let Expr::Param(n) = other {
                            let (target, slot) = if !col.sensitive {
                                (self.qcol(&visible, col.anon.clone()), ParamSlot::Plain)
                            } else if op.is_order() {
                                (
                                    self.qcol(&visible, col.anon_ord()),
                                    ParamSlot::Ord {
                                        table: col.table.clone(),
                                        col: col.name.clone(),
                                    },
                                )
                            } else {
                                (
                                    self.qcol(&visible, col.anon_eq()),
                                    ParamSlot::Eq {
                                        table: col.table.clone(),
                                        col: col.name.clone(),
                                    },
                                )
                            };
                            return Ok(Expr::binary(op, target, self.param_hole(*n, slot)?));
                        }
                        if !col.sensitive {
                            return Ok(Expr::binary(
                                op,
                                self.qcol(&visible, col.anon.clone()),
                                value_to_literal(const_fold(other)?),
                            ));
                        }
                        let v = const_fold(other)?;
                        if op.is_order() {
                            let keys = self.col_keys_of(col);
                            let enc = self.proxy.ope_encrypt_cached(&keys, &v)?;
                            Ok(Expr::binary(
                                op,
                                self.qcol(&visible, col.anon_ord()),
                                value_to_literal(enc),
                            ))
                        } else {
                            let enc = self.encrypt_eq_const(col, &v)?;
                            Ok(Expr::binary(
                                op,
                                self.qcol(&visible, col.anon_eq()),
                                value_to_literal(enc),
                            ))
                        }
                    }
                    (false, false) => self.map_plain_expr(e),
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let Expr::Column(c) = &**expr else {
                    return self.map_plain_expr(e);
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
                let Expr::Literal(Literal::Str(pat)) = &**pattern else {
                    return Err(ProxyError::NeedsPlaintext(
                        "LIKE with column pattern".into(),
                    ));
                };
                if !pat.contains('%') && !pat.contains('_') {
                    // Exact-match LIKE is an equality check.
                    let enc = self.encrypt_eq_const(col, &Value::Str(pat.clone()))?;
                    let cmp = Expr::binary(
                        BinOp::Eq,
                        self.qcol(&visible, col.anon_eq()),
                        value_to_literal(enc),
                    );
                    return Ok(if *negated {
                        Expr::Not(Box::new(cmp))
                    } else {
                        cmp
                    });
                }
                let word = like_pattern_word(pat).ok_or_else(|| {
                    ProxyError::NeedsPlaintext(format!("unsupported LIKE pattern '{pat}'"))
                })?;
                let keys = self.col_keys_of(col);
                let token = colcrypt::search_token_bytes(&keys, &word);
                let call = Expr::Func {
                    name: "SEARCH_MATCH".into(),
                    args: vec![
                        self.qcol(&visible, col.anon_srch()),
                        Expr::Literal(Literal::Bytes(token)),
                    ],
                    star: false,
                    distinct: false,
                };
                Ok(if *negated {
                    Expr::Not(Box::new(call))
                } else {
                    call
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let Expr::Column(c) = &**expr else {
                    return self.map_plain_expr(e);
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
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
                    return self.map_plain_expr(e);
                };
                let (visible, _t, col) = self.resolver.resolve(self.schema, c)?;
                if !col.sensitive {
                    return self.map_plain_expr(e);
                }
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
                    return self.map_plain_expr(e);
                };
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
            other => self.map_plain_expr(other),
        }
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
        if self.config.precompute {
            if let Some(hit) = self.eq_memo.get(&memo_key) {
                return Ok(hit);
            }
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
        if self.config.precompute {
            self.eq_memo.insert(memo_key, out.clone());
        }
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
    pub(crate) fn select(&self, sel: &Select) -> Result<QueryResult, ProxyError> {
        if sel.from.is_empty() {
            return Ok(self.engine.execute(&Stmt::Select(sel.clone()))?);
        }
        let cs = self.plan_select(sel, false)?;
        match self.run_select_plan(&cs, &[], false, None)? {
            RunOutcome::Done(r) => Ok(r),
            RunOutcome::Stale | RunOutcome::Declined => {
                unreachable!("neither epoch nor budget checked on the simple path")
            }
        }
    }

    /// Steps 1–3 of the paper's pipeline (§3.2): analyse, adjust onions,
    /// rewrite. The result is reusable — `run_select_plan` performs the
    /// per-execution work (bind, execute, decrypt).
    pub(crate) fn plan_select(
        &self,
        sel: &Select,
        allow_params: bool,
    ) -> Result<CachedSelect, ProxyError> {
        let reqs = {
            let schema = self.schema.read();
            let resolver = Resolver::from_select(&schema, sel)?;
            self.collect_select_reqs(&schema, &resolver, sel)?
        };
        self.apply_adjustments(&reqs)?;
        // Capture the epoch under the same read guard the rewrite uses:
        // writers mutate (and bump) under the write lock, so a plan tagged
        // with epoch E provably saw the schema as of E.
        let schema = self.schema.read();
        let resolver = Resolver::from_select(&schema, sel)?;
        let epoch = self.schema_epoch();
        let (stmt, plan, occ) = self.rewrite_select(&schema, &resolver, sel, allow_params)?;
        Ok(CachedSelect {
            stmt,
            plan,
            occ,
            epoch,
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

    fn rewrite_select(
        &self,
        schema: &EncSchema,
        resolver: &Resolver,
        sel: &Select,
        allow_params: bool,
    ) -> Result<(Select, SelectPlan, Vec<ParamOcc>), ProxyError> {
        let mut rw = SelectRw::new(self, schema, resolver, true, allow_params);

        // Projections.
        for item in &sel.projections {
            match item {
                SelectItem::Wildcard => {
                    for (visible, tname) in resolver.scopes.clone() {
                        let t = schema.table(&tname)?;
                        for col in t.columns.clone() {
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
                    let (it, slot, colref) = self.rewrite_projection(&mut rw, expr)?;
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

        // GROUP BY.
        let mut group_by = Vec::with_capacity(sel.group_by.len());
        for g in &sel.group_by {
            match g {
                Expr::Column(c) => {
                    let (visible, _t, col) = resolver.resolve(schema, c)?;
                    group_by.push(if col.sensitive {
                        rw.qcol(&visible, col.anon_eq())
                    } else {
                        rw.qcol(&visible, col.anon.clone())
                    });
                }
                other => group_by.push(rw.map_plain_expr(other)?),
            }
        }

        // HAVING (COUNT comparisons only; checked during analysis).
        let having = sel
            .having
            .as_ref()
            .map(|h| self.rewrite_having(&rw, h))
            .transpose()?;

        // ORDER BY.
        let proxy_sorting = self.proxy_sorts(sel);
        let mut order_by = Vec::new();
        let mut proxy_sort = Vec::new();
        if proxy_sorting {
            for ob in &sel.order_by {
                let Expr::Column(c) = &ob.expr else {
                    unreachable!("proxy_sorts requires plain columns")
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
                        if col.sensitive {
                            rw.qcol(&visible, col.anon_ord())
                        } else {
                            rw.qcol(&visible, col.anon.clone())
                        }
                    }
                    f @ Expr::Func { .. } => {
                        let (it, _slot, _) = self.rewrite_projection(&mut rw, f)?;
                        match it {
                            SelectItem::Expr { expr, .. } => expr,
                            SelectItem::Wildcard => unreachable!(),
                        }
                    }
                    other => rw.map_plain_expr(other)?,
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
        Ok((rewritten, plan, rw.params.into_inner()))
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
                    // Constant-argument function; pass through.
                    return Ok((
                        SelectItem::Expr {
                            expr: rw.map_plain_expr(expr)?,
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
                            expr: rw.map_plain_expr(expr)?,
                            alias: None,
                        },
                        Slot::Raw,
                        None,
                    ));
                }
                let t_low = t.name.to_lowercase();
                match name.as_str() {
                    "COUNT" => Ok((
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
                    )),
                    "SUM" => Ok((
                        SelectItem::Expr {
                            expr: Expr::Func {
                                name: "HOM_SUM".into(),
                                args: vec![rw.qcol(&visible, col.anon_add())],
                                star: false,
                                distinct: false,
                            },
                            alias: None,
                        },
                        Slot::Add {
                            table: t_low,
                            col: col.name.clone(),
                        },
                        None,
                    )),
                    "AVG" => {
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
                    "MIN" | "MAX" => Ok((
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
                    )),
                    other => Err(ProxyError::NeedsPlaintext(format!(
                        "function {other} over encrypted column"
                    ))),
                }
            }
            other => Ok((
                SelectItem::Expr {
                    expr: rw.map_plain_expr(other)?,
                    alias: None,
                },
                Slot::Raw,
                None,
            )),
        }
    }

    fn rewrite_having(&self, rw: &SelectRw<'_>, e: &Expr) -> Result<Expr, ProxyError> {
        match e {
            Expr::Binary { op, left, right } if matches!(op, BinOp::And | BinOp::Or) => {
                Ok(Expr::binary(
                    *op,
                    self.rewrite_having(rw, left)?,
                    self.rewrite_having(rw, right)?,
                ))
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let rewrite_side = |side: &Expr| -> Result<Expr, ProxyError> {
                    match side {
                        Expr::Func {
                            name,
                            args,
                            star,
                            distinct,
                        } if name == "COUNT" => {
                            if *star {
                                return Ok(side.clone());
                            }
                            let Some(Expr::Column(c)) = args.first() else {
                                return Err(ProxyError::NeedsPlaintext(
                                    "HAVING COUNT over expression".into(),
                                ));
                            };
                            let (visible, _t, col) = rw.resolver.resolve(rw.schema, c)?;
                            let arg = if col.sensitive {
                                rw.qcol(&visible, col.anon_eq())
                            } else {
                                rw.qcol(&visible, col.anon.clone())
                            };
                            Ok(Expr::Func {
                                name: "COUNT".into(),
                                args: vec![arg],
                                star: false,
                                distinct: *distinct,
                            })
                        }
                        other => Ok(value_to_literal(const_fold(other)?)),
                    }
                };
                Ok(Expr::binary(*op, rewrite_side(left)?, rewrite_side(right)?))
            }
            _ => Err(ProxyError::NeedsPlaintext("unsupported HAVING".into())),
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
        // (`apply_adjustments` takes the write lock).
        let hom_slots: Vec<usize> = plan
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Add { .. } | Slot::AvgPair { .. }))
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
                    Slot::Add { .. } | Slot::AvgPair { .. } => {}
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
                    Some(None) => Err(ProxyError::Crypto("HOM plaintext out of i64 range".into())),
                }
            };
            for (ri, dec) in out_rows.iter_mut().enumerate() {
                for (i, slot) in plan.slots.iter().enumerate() {
                    match slot {
                        Slot::Add { .. } => dec[i] = hom_value(ri, i)?,
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
