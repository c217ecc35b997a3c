//! Prepared-statement execution: parse → rewrite once, then
//! bind typed parameters and execute many times.
//!
//! [`Proxy::prepare`] runs the full rewrite pipeline with `$n`
//! placeholders left as typed holes and caches the result in a bounded
//! sharded plan cache keyed by the normalized statement text. Each
//! [`Proxy::execute_prepared`] then only encrypts the bound values
//! (DET/OPE per the hole's slot, riding the same §3.5.2 caches as the
//! simple path), splices them into the cached rewritten AST, executes,
//! and decrypts.
//!
//! Plans capture the schema epoch they were rewritten under. Any schema
//! mutation (DDL, onion adjustment, join re-keying, stale flips) bumps
//! the epoch, and a plan whose epoch no longer matches is transparently
//! re-planned before execution — a cached plan never outlives its
//! schema. Statements whose placeholders sit in positions the rewriter
//! cannot type (e.g. a LIKE pattern, whose onion depends on the value's
//! wildcards) fall back to a *generic* plan: the parse is still cached,
//! and each execution substitutes plaintext values into the AST and runs
//! the ordinary statement pipeline.

use super::rewrite::{locked_col, CachedSelect, ParamSlot, RunOutcome, Slot};
use super::*;

/// A bound parameter value. `NULL` binds as [`Value::Null`].
pub type Param = Value;

/// A handle to a prepared statement: the normalized SQL plus an
/// immutable snapshot of its plan. Cheap to clone; executions always
/// re-validate the plan's schema epoch, so holding a handle across DDL
/// is safe.
#[derive(Clone)]
pub struct PreparedStatement {
    pub(crate) sql: String,
    pub(crate) entry: Arc<PlanEntry>,
}

impl std::fmt::Debug for PreparedStatement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedStatement")
            .field("sql", &self.sql)
            .field("params", &self.entry.nparams)
            .finish()
    }
}

impl PreparedStatement {
    /// The normalized statement text this plan was built from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of parameters (`max $n` over the statement).
    pub fn param_count(&self) -> usize {
        self.entry.nparams
    }

    /// Per-parameter column types where the rewriter could infer one
    /// (the target column of a typed hole); `None` for plaintext slots
    /// and generic plans.
    pub fn param_kinds(&self) -> &[Option<ColumnType>] {
        &self.entry.kinds
    }

    /// Result column names, when the plan knows them ahead of execution
    /// (typed SELECT plans). Generic plans report `None`.
    pub fn columns(&self) -> Option<&[String]> {
        self.entry.columns.as_deref()
    }
}

/// One cached plan: what `prepare` builds and `execute_prepared` runs.
pub(crate) struct PlanEntry {
    /// Schema epoch the plan was built under.
    pub(crate) epoch: u64,
    pub(crate) nparams: usize,
    pub(crate) kinds: Vec<Option<ColumnType>>,
    pub(crate) columns: Option<Vec<String>>,
    pub(crate) plan: PlanKind,
}

pub(crate) enum PlanKind {
    /// Fully rewritten SELECT with typed bind-time holes.
    Select(CachedSelect),
    /// Anything else (DML, DDL, passthrough, or a SELECT the rewriter
    /// could not hole-ify): substitute plaintext values into the parsed
    /// AST and run the ordinary statement pipeline.
    Generic(Stmt),
}

/// Plan-cache counters (see [`Proxy::plan_cache_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCacheStats {
    /// Plans currently cached.
    pub cached: u64,
    /// `prepare` calls served from the cache at a matching epoch.
    pub hits: u64,
    /// `prepare` calls that built a plan not in the cache.
    pub misses: u64,
    /// Plans discarded because the schema epoch moved (at `prepare` or
    /// mid-execution).
    pub invalidated: u64,
}

impl Proxy {
    /// Prepares `sql` (exactly one statement): parse, rewrite,
    /// and resolve keys once, leaving `$n` placeholders as typed holes.
    /// Results are cached by normalized text, so repeated `prepare` of
    /// one statement shape pays the pipeline once per schema epoch.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, ProxyError> {
        let key = sql.trim().to_string();
        if let Some(entry) = self.plan_cache.get(&key) {
            if entry.epoch == self.schema_epoch() {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PreparedStatement { sql: key, entry });
            }
            self.plans_invalidated.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Arc::new(self.build_plan(&key)?);
        self.plan_cache.insert(key.clone(), entry.clone());
        Ok(PreparedStatement { sql: key, entry })
    }

    /// Executes a prepared statement with `params` bound positionally
    /// (`params[0]` is `$1`). Only the bound values are encrypted; the
    /// rewritten statement comes from the plan. A plan found stale
    /// against the live schema epoch is re-planned transparently. Runs
    /// in the proxy's own transaction handle, like [`Proxy::execute`].
    pub fn execute_prepared(
        &self,
        ps: &PreparedStatement,
        params: &[Param],
    ) -> Result<QueryResult, ProxyError> {
        self.execute_prepared_in(self.implicit_txn(), ps, params)
    }

    /// [`Self::execute_prepared`] in `txn`, a session's own transaction
    /// handle.
    pub fn execute_prepared_in(
        &self,
        txn: &Txn,
        ps: &PreparedStatement,
        params: &[Param],
    ) -> Result<QueryResult, ProxyError> {
        let mut entry = ps.entry.clone();
        if entry.epoch != self.schema_epoch() {
            // The handle may predate a re-plan another session already
            // paid for; prefer the cache's fresher entry.
            if let Some(e) = self.plan_cache.get(&ps.sql) {
                entry = e;
            }
        }
        check_arity(&entry, params)?;
        // Bounded re-plan loop: a DDL storm can keep invalidating the
        // plan, but each retry re-reads the schema, so a quiescent
        // moment completes. After the retries, fall back to plaintext
        // substitution through the full pipeline (always correct — it
        // re-plans inline).
        for _ in 0..3 {
            match &entry.plan {
                PlanKind::Generic(stmt) => {
                    return self.execute_noting(txn, &subst_stmt_user(stmt, params), None);
                }
                PlanKind::Select(cs) => match self.run_select_plan(cs, params, true, None)? {
                    RunOutcome::Done(r) => return Ok(r),
                    RunOutcome::Stale => {
                        self.plans_invalidated.fetch_add(1, Ordering::Relaxed);
                        entry = Arc::new(self.build_plan(&ps.sql)?);
                        self.plan_cache.insert(ps.sql.clone(), entry.clone());
                    }
                    RunOutcome::Declined => unreachable!("not a bounded run"),
                },
            }
        }
        let stmt = single_stmt(&ps.sql)?;
        self.execute_noting(txn, &subst_stmt_user(&stmt, params), None)
    }

    /// Runs `ps` as [`Proxy::execute_prepared`] would, but only if that
    /// costs bounded work; otherwise returns `None` having run nothing.
    /// Bounded means: the plan to run (this handle's, or the cache's
    /// fresher one) is a typed SELECT at the live schema epoch — a stale
    /// plan is never re-planned here, because planning may adjust onions
    /// in a schema writer section; every bound value's encryption is
    /// already in the §3.5.2 caches (a miss would cost a JOIN-ADJ tag,
    /// about 2.3 ms, or an OPE tree walk); no output column needs
    /// Paillier decryption (`SUM`/`AVG` or a HOM projection, one
    /// exponentiation mod `p²` per cell) or a per-principal key chain;
    /// and the engine scan visits at most `max_cells / encrypted output
    /// columns` rows, so at most `max_cells` cells are decrypted. A
    /// `LIMIT` bounds the answer, not the scan, and does not count.
    pub fn execute_prepared_within(
        &self,
        ps: &PreparedStatement,
        params: &[Param],
        max_cells: usize,
    ) -> Option<Result<QueryResult, ProxyError>> {
        let epoch = self.schema_epoch();
        let entry = if ps.entry.epoch == epoch {
            ps.entry.clone()
        } else {
            self.plan_cache.get(&ps.sql).filter(|e| e.epoch == epoch)?
        };
        let PlanKind::Select(cs) = &entry.plan else {
            return None;
        };
        let unbounded = |s: &Slot| {
            matches!(
                s,
                Slot::Add
                    | Slot::AvgPair { .. }
                    | Slot::Eq {
                        enc_for: Some(_),
                        ..
                    }
            )
        };
        if cs.plan.slots.iter().any(unbounded) {
            return None;
        }
        if let Err(e) = check_arity(&entry, params) {
            return Some(Err(e));
        }
        let decrypted = cs.plan.slots.iter().filter(|s| !matches!(s, Slot::Raw));
        let max_rows = max_cells / decrypted.count().max(1);
        match self.run_select_plan(cs, params, true, Some(max_rows)) {
            Ok(RunOutcome::Done(r)) => Some(Ok(r)),
            Ok(RunOutcome::Stale | RunOutcome::Declined) => None,
            Err(e) => Some(Err(e)),
        }
    }

    /// Plan-cache observability: size plus hit/miss/invalidation
    /// counters since the proxy was built.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            cached: self.plan_cache.len() as u64,
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            invalidated: self.plans_invalidated.load(Ordering::Relaxed),
        }
    }

    fn build_plan(&self, sql: &str) -> Result<PlanEntry, ProxyError> {
        let stmt = single_stmt(sql)?;
        let nparams = count_params(&stmt)?;
        // Only non-degenerate SELECTs get a typed plan; everything else
        // re-runs the statement pipeline per execution.
        let typed = match &stmt {
            Stmt::Select(sel) if !sel.from.is_empty() => match self.plan_select(sel, true, None) {
                Ok(cs) => Some(cs),
                Err(e) if is_param_fallback(&e) => None,
                Err(e) => return Err(e),
            },
            _ => None,
        };
        let mut kinds = vec![None; nparams];
        match typed {
            Some(cs) => {
                for occ in &cs.occ {
                    let (t, c) = match &occ.slot {
                        ParamSlot::Plain => continue,
                        ParamSlot::Eq { table, col } | ParamSlot::Ord { table, col } => {
                            (table, col)
                        }
                    };
                    let slot = &mut kinds[(occ.n - 1) as usize];
                    if slot.is_none() {
                        *slot = Some(locked_col(&cs.version, t, c)?.ty);
                    }
                }
                Ok(PlanEntry {
                    epoch: cs.version.epoch,
                    nparams,
                    kinds,
                    columns: Some(cs.plan.names.clone()),
                    plan: PlanKind::Select(cs),
                })
            }
            None => Ok(PlanEntry {
                epoch: self.schema_epoch(),
                nparams,
                kinds,
                columns: None,
                plan: PlanKind::Generic(stmt),
            }),
        }
    }
}

fn check_arity(entry: &PlanEntry, params: &[Param]) -> Result<(), ProxyError> {
    if params.len() == entry.nparams {
        return Ok(());
    }
    Err(ProxyError::Schema(format!(
        "statement takes {} parameter(s), {} bound",
        entry.nparams,
        params.len()
    )))
}

fn single_stmt(sql: &str) -> Result<Stmt, ProxyError> {
    let mut stmts = parse(sql)?;
    if stmts.len() != 1 {
        return Err(ProxyError::Schema(format!(
            "prepared statements take exactly one statement, got {}",
            stmts.len()
        )));
    }
    Ok(stmts.remove(0))
}

/// Validates placeholder numbering (1-based, no `$0`) and returns the
/// parameter count (`max $n`; unreferenced intermediate numbers still
/// demand a binding, matching the wire protocol).
fn count_params(stmt: &Stmt) -> Result<usize, ProxyError> {
    let mut max = 0u32;
    let mut zero = false;
    for_each_expr(stmt, &mut |e| {
        e.walk(&mut |n| {
            if let Expr::Param(p) = n {
                if *p == 0 {
                    zero = true;
                }
                max = max.max(*p);
            }
        });
    });
    if zero {
        return Err(ProxyError::Schema(
            "parameter placeholders are numbered from $1".into(),
        ));
    }
    Ok(max as usize)
}

/// Visits every top-level expression position of a statement.
fn for_each_expr<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match stmt {
        Stmt::Select(sel) => for_each_select_expr(sel, f),
        Stmt::Insert(ins) => {
            for row in &ins.rows {
                for e in row {
                    f(e);
                }
            }
        }
        Stmt::Update(upd) => {
            for (_, e) in &upd.sets {
                f(e);
            }
            if let Some(w) = &upd.selection {
                f(w);
            }
        }
        Stmt::Delete(del) => {
            if let Some(w) = &del.selection {
                f(w);
            }
        }
        Stmt::CreateTable(_)
        | Stmt::CreateIndex { .. }
        | Stmt::DropTable { .. }
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback
        | Stmt::PrincType { .. } => {}
    }
}

fn for_each_select_expr<'a>(sel: &'a Select, f: &mut impl FnMut(&'a Expr)) {
    for item in &sel.projections {
        if let SelectItem::Expr { expr, .. } = item {
            f(expr);
        }
    }
    for j in &sel.joins {
        f(&j.on);
    }
    if let Some(w) = &sel.selection {
        f(w);
    }
    for g in &sel.group_by {
        f(g);
    }
    if let Some(h) = &sel.having {
        f(h);
    }
    for ob in &sel.order_by {
        f(&ob.expr);
    }
}

/// Substitutes user-numbered (`$1`-based) placeholders with plaintext
/// literal values. Bounds are validated by the caller (`count_params` +
/// the arity check), so indexing cannot miss.
fn subst_stmt_user(stmt: &Stmt, params: &[Value]) -> Stmt {
    let f = |n: u32| value_to_literal(params[(n - 1) as usize].clone());
    match stmt {
        Stmt::Select(sel) => Stmt::Select(subst_select(sel, &f)),
        Stmt::Insert(ins) => Stmt::Insert(Insert {
            table: ins.table.clone(),
            columns: ins.columns.clone(),
            rows: ins
                .rows
                .iter()
                .map(|row| row.iter().map(|e| subst_expr(e, &f)).collect())
                .collect(),
        }),
        Stmt::Update(upd) => Stmt::Update(Update {
            table: upd.table.clone(),
            sets: upd
                .sets
                .iter()
                .map(|(c, e)| (c.clone(), subst_expr(e, &f)))
                .collect(),
            selection: upd.selection.as_ref().map(|w| subst_expr(w, &f)),
        }),
        Stmt::Delete(del) => Stmt::Delete(Delete {
            table: del.table.clone(),
            selection: del.selection.as_ref().map(|w| subst_expr(w, &f)),
        }),
        other => other.clone(),
    }
}

/// Substitutes every `Expr::Param(i)` in a SELECT via `f` (used with
/// 0-based occurrence ids on the cached-plan path and 1-based user
/// numbers on the generic path).
pub(crate) fn subst_select(sel: &Select, f: &impl Fn(u32) -> Expr) -> Select {
    Select {
        distinct: sel.distinct,
        projections: sel
            .projections
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: subst_expr(expr, f),
                    alias: alias.clone(),
                },
            })
            .collect(),
        from: sel.from.clone(),
        joins: sel
            .joins
            .iter()
            .map(|j| cryptdb_sqlparser::Join {
                table: j.table.clone(),
                on: subst_expr(&j.on, f),
            })
            .collect(),
        selection: sel.selection.as_ref().map(|w| subst_expr(w, f)),
        group_by: sel.group_by.iter().map(|g| subst_expr(g, f)).collect(),
        having: sel.having.as_ref().map(|h| subst_expr(h, f)),
        order_by: sel
            .order_by
            .iter()
            .map(|ob| OrderBy {
                expr: subst_expr(&ob.expr, f),
                asc: ob.asc,
            })
            .collect(),
        limit: sel.limit,
    }
}

fn subst_expr(e: &Expr, f: &impl Fn(u32) -> Expr) -> Expr {
    match e {
        Expr::Param(n) => f(*n),
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => {
            Expr::binary(*op, subst_expr(left, f), subst_expr(right, f))
        }
        Expr::Not(inner) => Expr::Not(Box::new(subst_expr(inner, f))),
        Expr::Neg(inner) => Expr::Neg(Box::new(subst_expr(inner, f))),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(subst_expr(expr, f)),
            pattern: Box::new(subst_expr(pattern, f)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(subst_expr(expr, f)),
            list: list.iter().map(|x| subst_expr(x, f)).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(subst_expr(expr, f)),
            low: Box::new(subst_expr(low, f)),
            high: Box::new(subst_expr(high, f)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(subst_expr(expr, f)),
            negated: *negated,
        },
        Expr::Func {
            name,
            args,
            star,
            distinct,
        } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|x| subst_expr(x, f)).collect(),
            star: *star,
            distinct: *distinct,
        },
    }
}
