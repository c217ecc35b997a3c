//! Query execution: expression evaluation, planning, joins, aggregation.
//!
//! A `SELECT` splits its `WHERE` and `ON` clauses into conjuncts. A
//! conjunct that reads one source filters that source's scan, through an
//! index when one applies. `L = R`, where `L` reads columns of exactly one
//! source and `R` of exactly one other, is an equi-join edge: a bare
//! column pair, or the `JOINTAG(a.c_eq) = JOINTAG(b.c_eq)` the proxy emits
//! for an encrypted join (§3.4). Sources join left to right, and each is
//! hash-joined to the rows so far on all of its edges to them, with each
//! key expression evaluated once per row and NULL keys matching nothing.
//! Only a source with no such edge is crossed with the rows so far. Every
//! other conjunct filters the joined rows. Scans and joins work on rows
//! borrowed from the table views; a row is cloned only once it has
//! survived its filters and the joins.

use crate::error::EngineError;
use crate::table::{ColumnMeta, Table, TableView};
use crate::udf::UdfRegistry;
use crate::value::Value;
use cryptdb_sqlparser::{BinOp, ColumnRef, Expr, Literal, Select, SelectItem, TableRef};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execution context: the UDF registry.
pub struct Ctx<'a> {
    pub udfs: &'a UdfRegistry,
}

/// A flat schema for column resolution: `(source alias, column name)` per
/// position, both lowercase.
#[derive(Clone, Debug, Default)]
pub struct RowSchema {
    cols: Vec<(Option<String>, String)>,
}

impl RowSchema {
    /// Builds a schema for a single table under an optional alias.
    pub fn for_table(table: &Table, alias: Option<&str>) -> Self {
        Self::for_columns(table.columns(), alias)
    }

    /// Builds a schema from raw column metadata under an optional alias
    /// (shared by [`RowSchema::for_table`] and view-based sources).
    pub fn for_columns(columns: &[ColumnMeta], alias: Option<&str>) -> Self {
        let alias = alias.map(|a| a.to_lowercase());
        RowSchema {
            cols: columns
                .iter()
                .map(|c| (alias.clone(), c.name.to_lowercase()))
                .collect(),
        }
    }

    /// Concatenates two schemas (join output).
    pub fn concat(&self, other: &RowSchema) -> RowSchema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        RowSchema { cols }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Column name at position `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.cols[i].1
    }

    /// Resolves a (possibly qualified) column reference.
    pub fn resolve(&self, cref: &ColumnRef) -> Result<usize, EngineError> {
        let column = lowercase_matcher(&cref.column);
        let table = cref.table.as_deref().map(lowercase_matcher);
        let mut found = None;
        for (i, (alias, name)) in self.cols.iter().enumerate() {
            if !column(name) {
                continue;
            }
            if let Some(table) = &table {
                if !alias.as_deref().is_some_and(table) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(EngineError::AmbiguousColumn(cref.to_string()));
            }
            found = Some(i);
        }
        found.ok_or_else(|| EngineError::ColumnNotFound(cref.to_string()))
    }

    /// True if every column in `e` resolves in this schema.
    pub fn covers(&self, e: &Expr) -> bool {
        let mut ok = true;
        e.walk(&mut |node| {
            if let Expr::Column(c) = node {
                if self.resolve(c).is_err() {
                    ok = false;
                }
            }
        });
        ok
    }
}

/// Matches `ident` case-insensitively against names the schema stored
/// lowercase, without allocating. An identifier that is already
/// lowercase ASCII, as every proxy-rewritten one is, compares bytewise.
fn lowercase_matcher(ident: &str) -> impl Fn(&str) -> bool + '_ {
    let lowercase_ascii = ident
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase());
    move |lower: &str| {
        if lowercase_ascii {
            lower == ident
        } else {
            lower.chars().eq(ident.chars().flat_map(char::to_lowercase))
        }
    }
}

/// Converts a literal to a value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bytes(b) => Value::Bytes(b.clone()),
        Literal::Null => Value::Null,
    }
}

/// SQL `LIKE` with `%` and `_` wildcards, case-insensitive (MySQL default).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    rec(&t, &p)
}

fn bool_val(b: bool) -> Value {
    Value::Int(b as i64)
}

/// Three-valued logic helper: `Some(bool)` or `None` for SQL NULL.
fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        other => Some(other.is_truthy()),
    }
}

fn from_truth(t: Option<bool>) -> Value {
    match t {
        Some(b) => bool_val(b),
        None => Value::Null,
    }
}

/// Evaluates an expression against one row.
pub fn eval(
    e: &Expr,
    schema: &RowSchema,
    row: &[Value],
    ctx: &Ctx<'_>,
) -> Result<Value, EngineError> {
    match e {
        Expr::Column(c) => Ok(row[schema.resolve(c)?].clone()),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    let l = truth(&eval(left, schema, row, ctx)?);
                    if l == Some(false) {
                        return Ok(bool_val(false));
                    }
                    let r = truth(&eval(right, schema, row, ctx)?);
                    return Ok(match (l, r) {
                        (_, Some(false)) => bool_val(false),
                        (Some(true), Some(true)) => bool_val(true),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    let l = truth(&eval(left, schema, row, ctx)?);
                    if l == Some(true) {
                        return Ok(bool_val(true));
                    }
                    let r = truth(&eval(right, schema, row, ctx)?);
                    return Ok(match (l, r) {
                        (_, Some(true)) => bool_val(true),
                        (Some(false), Some(false)) => bool_val(false),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let lv = eval(left, schema, row, ctx)?;
            let rv = eval(right, schema, row, ctx)?;
            if op.is_comparison() {
                return Ok(match lv.sql_cmp(&rv) {
                    None => Value::Null,
                    Some(ord) => bool_val(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::NotEq => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::LtEq => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::GtEq => ord != Ordering::Less,
                        _ => unreachable!("comparison op"),
                    }),
                });
            }
            // Arithmetic over integers; NULL propagates.
            let (Some(a), Some(b)) = (lv.as_int(), rv.as_int()) else {
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                // String concatenation via `+` is not SQL; reject.
                return Err(EngineError::TypeMismatch(format!(
                    "arithmetic on non-integers: {e}"
                )));
            };
            Ok(match op {
                BinOp::Add => Value::Int(a.wrapping_add(b)),
                BinOp::Sub => Value::Int(a.wrapping_sub(b)),
                BinOp::Mul => Value::Int(a.wrapping_mul(b)),
                BinOp::Div => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_div(b))
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_rem(b))
                    }
                }
                _ => unreachable!("arithmetic op"),
            })
        }
        Expr::Not(inner) => {
            let v = eval(inner, schema, row, ctx)?;
            Ok(from_truth(truth(&v).map(|b| !b)))
        }
        Expr::Neg(inner) => {
            let v = eval(inner, schema, row, ctx)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                _ => Err(EngineError::TypeMismatch("negating non-integer".into())),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, schema, row, ctx)?;
            let p = eval(pattern, schema, row, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => Ok(bool_val(like_match(&s, &pat) != *negated)),
                _ => Err(EngineError::TypeMismatch("LIKE on non-strings".into())),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, schema, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, schema, row, ctx)?;
                match v.sql_cmp(&iv) {
                    Some(Ordering::Equal) => return Ok(bool_val(!*negated)),
                    None if iv.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(bool_val(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, schema, row, ctx)?;
            let lo = eval(low, schema, row, ctx)?;
            let hi = eval(high, schema, row, ctx)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(bool_val(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, schema, row, ctx)?;
            Ok(bool_val(v.is_null() != *negated))
        }
        Expr::Func { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, schema, row, ctx)?);
            }
            scalar_function(name, &vals, ctx)
        }
        // Placeholders must be bound (substituted with literals) before
        // a statement reaches the engine.
        Expr::Param(n) => Err(EngineError::TypeMismatch(format!("unbound parameter ${n}"))),
    }
}

/// Built-in scalar functions plus registered scalar UDFs.
fn scalar_function(name: &str, args: &[Value], ctx: &Ctx<'_>) -> Result<Value, EngineError> {
    if let Some(udf) = ctx.udfs.scalar(name) {
        return udf(args);
    }
    let arg = |i: usize| -> Result<&Value, EngineError> {
        args.get(i).ok_or(EngineError::ArityMismatch {
            expected: i + 1,
            found: args.len(),
        })
    };
    match name {
        "LOWER" => match arg(0)? {
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            Value::Null => Ok(Value::Null),
            _ => Err(EngineError::TypeMismatch("LOWER on non-string".into())),
        },
        "UPPER" => match arg(0)? {
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            Value::Null => Ok(Value::Null),
            _ => Err(EngineError::TypeMismatch("UPPER on non-string".into())),
        },
        "LENGTH" => match arg(0)? {
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
            Value::Null => Ok(Value::Null),
            _ => Err(EngineError::TypeMismatch("LENGTH on integer".into())),
        },
        "SUBSTR" | "SUBSTRING" => {
            let s = match arg(0)? {
                Value::Str(s) => s.clone(),
                Value::Null => return Ok(Value::Null),
                _ => return Err(EngineError::TypeMismatch("SUBSTR on non-string".into())),
            };
            let start = arg(1)?.as_int().unwrap_or(1).max(1) as usize - 1;
            let len = args
                .get(2)
                .and_then(|v| v.as_int())
                .map(|l| l.max(0) as usize);
            let chars: Vec<char> = s.chars().collect();
            let end = len.map_or(chars.len(), |l| (start + l).min(chars.len()));
            if start >= chars.len() {
                return Ok(Value::Str(String::new()));
            }
            Ok(Value::Str(chars[start..end].iter().collect()))
        }
        // Date parts over YYYYMMDD integer encodings (the engine's stand-in
        // for SQL date manipulation; these are exactly the operations
        // CryptDB cannot run over encrypted data — §8.2).
        "YEAR" => date_part(arg(0)?, |d| d / 10_000),
        "MONTH" => date_part(arg(0)?, |d| d / 100 % 100),
        "DAY" => date_part(arg(0)?, |d| d % 100),
        "ABS" => match arg(0)? {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Null => Ok(Value::Null),
            _ => Err(EngineError::TypeMismatch("ABS on non-integer".into())),
        },
        "BITAND" => {
            let (Some(a), Some(b)) = (arg(0)?.as_int(), arg(1)?.as_int()) else {
                return Ok(Value::Null);
            };
            Ok(Value::Int(a & b))
        }
        "BITOR" => {
            let (Some(a), Some(b)) = (arg(0)?.as_int(), arg(1)?.as_int()) else {
                return Ok(Value::Null);
            };
            Ok(Value::Int(a | b))
        }
        "COALESCE" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(EngineError::UnknownFunction(other.to_string())),
    }
}

fn date_part(v: &Value, f: impl Fn(i64) -> i64) -> Result<Value, EngineError> {
    match v {
        Value::Int(d) => Ok(Value::Int(f(*d))),
        Value::Null => Ok(Value::Null),
        _ => Err(EngineError::TypeMismatch(
            "date function on non-integer".into(),
        )),
    }
}

/// Splits an expression into AND-conjuncts.
pub fn split_and(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = split_and(left);
            out.extend(split_and(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// True if the expression contains an aggregate call.
pub fn has_aggregate(e: &Expr, ctx: &Ctx<'_>) -> bool {
    let mut found = false;
    e.walk(&mut |node| {
        if let Expr::Func { name, .. } = node {
            if is_aggregate_name(name, ctx) {
                found = true;
            }
        }
    });
    found
}

fn is_aggregate_name(name: &str, ctx: &Ctx<'_>) -> bool {
    matches!(name, "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") || ctx.udfs.aggregate(name).is_some()
}

/// Evaluates an expression in *group context*: aggregates fold over the
/// group's rows, everything else evaluates against the group's first row
/// (or an all-NULL row for an empty group).
fn eval_grouped(
    e: &Expr,
    schema: &RowSchema,
    rows: &[&Vec<Value>],
    null_row: &[Value],
    ctx: &Ctx<'_>,
) -> Result<Value, EngineError> {
    let first: &[Value] = rows.first().map_or(null_row, |r| r.as_slice());
    if let Expr::Func {
        name,
        args,
        star,
        distinct,
    } = e
    {
        if is_aggregate_name(name, ctx) {
            return eval_aggregate(name, args, *star, *distinct, schema, rows, ctx);
        }
    }
    // Rebuilding the expression with aggregate subtrees replaced is
    // overkill; instead recurse manually over composite nodes.
    match e {
        Expr::Binary { op, left, right } => {
            let l = eval_grouped(left, schema, rows, null_row, ctx)?;
            let r = eval_grouped(right, schema, rows, null_row, ctx)?;
            // Reuse scalar eval by wrapping the computed values as literals.
            let le = value_to_literal_expr(l);
            let re = value_to_literal_expr(r);
            eval(&Expr::binary(*op, le, re), schema, first, ctx)
        }
        Expr::Not(inner) => {
            let v = eval_grouped(inner, schema, rows, null_row, ctx)?;
            eval(
                &Expr::Not(Box::new(value_to_literal_expr(v))),
                schema,
                first,
                ctx,
            )
        }
        Expr::Neg(inner) => {
            let v = eval_grouped(inner, schema, rows, null_row, ctx)?;
            eval(
                &Expr::Neg(Box::new(value_to_literal_expr(v))),
                schema,
                first,
                ctx,
            )
        }
        other => eval(other, schema, first, ctx),
    }
}

fn value_to_literal_expr(v: Value) -> Expr {
    Expr::Literal(match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Str(s) => Literal::Str(s),
        Value::Bytes(b) => Literal::Bytes(b),
    })
}

fn eval_aggregate(
    name: &str,
    args: &[Expr],
    star: bool,
    distinct: bool,
    schema: &RowSchema,
    rows: &[&Vec<Value>],
    ctx: &Ctx<'_>,
) -> Result<Value, EngineError> {
    // Registered aggregate UDFs (e.g. HOM_SUM) take one argument.
    if let Some(agg) = ctx.udfs.aggregate(name) {
        let agg = agg.clone();
        let mut acc = agg.init.clone();
        for row in rows {
            let v = eval(&args[0], schema, row, ctx)?;
            if !v.is_null() {
                acc = (agg.step)(acc, &v)?;
            }
        }
        return Ok(acc);
    }
    if name == "COUNT" && star {
        return Ok(Value::Int(rows.len() as i64));
    }
    let arg = args.first().ok_or(EngineError::ArityMismatch {
        expected: 1,
        found: 0,
    })?;
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval(arg, schema, row, ctx)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }
    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(checked_sum(&values, "SUM")?))
        }
        "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(
                checked_sum(&values, "AVG")? / values.len() as i64,
            ))
        }
        "MIN" => Ok(values
            .into_iter()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .into_iter()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        other => Err(EngineError::UnknownFunction(other.to_string())),
    }
}

// ---- SELECT planning & execution ----

/// One scan source: a shard-consistent table view plus its schema under
/// its alias.
pub struct Source<'a> {
    pub view: &'a TableView<'a>,
    pub schema: RowSchema,
}

impl<'a> Source<'a> {
    pub fn new(view: &'a TableView<'a>, tref: &TableRef) -> Self {
        let alias = Some(
            tref.alias
                .clone()
                .unwrap_or_else(|| tref.name.clone())
                .to_lowercase(),
        );
        let schema = RowSchema::for_columns(view.columns(), alias.as_deref());
        Source { view, schema }
    }
}

/// The integer sum `SUM`/`AVG` aggregate: an error, not a wrapped
/// value, once it leaves the 64-bit range.
fn checked_sum(values: &[Value], name: &str) -> Result<i64, EngineError> {
    values.iter().try_fold(0i64, |acc, v| {
        let x = v
            .as_int()
            .ok_or_else(|| EngineError::TypeMismatch(format!("{name} over non-integers")))?;
        acc.checked_add(x).ok_or_else(|| {
            EngineError::Overflow(format!("{name} exceeds the 64-bit integer range"))
        })
    })
}

/// Uses an index to produce candidate rowids for the given single-source
/// filter conjuncts; `None` means full scan.
pub(crate) fn index_candidates(
    table: &TableView<'_>,
    schema: &RowSchema,
    filters: &[Expr],
) -> Option<Vec<u64>> {
    choose_probe(table, schema, filters).map(|p| p.ids(table))
}

/// True when scanning the only source of `select` visits at most `cap`
/// rows: the index probe [`scan_source`] makes yields that few
/// candidates, or with no usable index the table holds that few rows.
/// Costs O(`cap`) index steps at most, whatever the table's size.
pub fn scan_within(src: &Source<'_>, select: &Select, cap: usize) -> bool {
    let filters: Vec<Expr> = select
        .selection
        .as_ref()
        .map(split_and)
        .unwrap_or_default()
        .into_iter()
        .filter(|c| src.schema.covers(c))
        .collect();
    match choose_probe(src.view, &src.schema, &filters) {
        Some(probe) => probe.count(src.view, cap) <= cap,
        None => src.view.row_count() <= cap,
    }
}

/// One index probe over a source: equality, range or `IN` list.
enum Probe {
    Eq(usize, Value),
    Range(usize, Option<Value>, Option<Value>),
    In(usize, Vec<Value>),
}

impl Probe {
    fn ids(&self, table: &TableView<'_>) -> Vec<u64> {
        match self {
            Probe::Eq(pos, v) => table.index_lookup(*pos, v),
            Probe::Range(pos, lo, hi) => table.index_range(*pos, lo.as_ref(), hi.as_ref()),
            Probe::In(pos, vs) => Some(
                vs.iter()
                    .flat_map(|v| table.index_lookup(*pos, v).unwrap_or_default())
                    .collect(),
            ),
        }
        .unwrap_or_default()
    }

    /// `ids(table).len()`, or any number above `cap` once that is known.
    fn count(&self, table: &TableView<'_>, cap: usize) -> usize {
        match self {
            Probe::Eq(pos, v) => table.index_count(*pos, v),
            Probe::Range(pos, lo, hi) => {
                table.index_range_count(*pos, lo.as_ref(), hi.as_ref(), cap)
            }
            Probe::In(pos, vs) => Some(
                vs.iter()
                    .map(|v| table.index_count(*pos, v).unwrap_or_default())
                    .sum(),
            ),
        }
        .unwrap_or_default()
    }
}

/// Picks the index probe for single-source filter conjuncts; `None`
/// means full scan.
fn choose_probe(table: &TableView<'_>, schema: &RowSchema, filters: &[Expr]) -> Option<Probe> {
    // Prefer equality probes, then ranges.
    let mut range_choice: Option<Probe> = None;
    for f in filters {
        match f {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (col, lit, op) = match (&**left, &**right) {
                    (Expr::Column(c), Expr::Literal(l)) => (c, l, *op),
                    (Expr::Literal(l), Expr::Column(c)) => (c, l, flip(*op)),
                    _ => continue,
                };
                let Ok(pos) = schema.resolve(col) else {
                    continue;
                };
                if !table.has_index(pos) {
                    continue;
                }
                let v = literal_value(lit);
                match op {
                    BinOp::Eq => return Some(Probe::Eq(pos, v)),
                    BinOp::Gt | BinOp::GtEq => {
                        // Inclusive bound is fine: the residual filter
                        // re-checks strictness.
                        range_choice = Some(Probe::Range(pos, Some(v), None));
                    }
                    BinOp::Lt | BinOp::LtEq => {
                        range_choice = Some(Probe::Range(pos, None, Some(v)));
                    }
                    _ => {}
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                    (&**expr, &**low, &**high)
                else {
                    continue;
                };
                let Ok(pos) = schema.resolve(c) else { continue };
                if !table.has_index(pos) {
                    continue;
                }
                range_choice = Some(Probe::Range(
                    pos,
                    Some(literal_value(lo)),
                    Some(literal_value(hi)),
                ));
            }
            Expr::InList {
                expr,
                list,
                negated: false,
            } => {
                let Expr::Column(c) = &**expr else { continue };
                let Ok(pos) = schema.resolve(c) else { continue };
                if !table.has_index(pos) || !list.iter().all(|e| matches!(e, Expr::Literal(_))) {
                    continue;
                }
                let values = list
                    .iter()
                    .filter_map(|e| match e {
                        Expr::Literal(l) => Some(literal_value(l)),
                        _ => None,
                    })
                    .collect();
                return Some(Probe::In(pos, values));
            }
            _ => {}
        }
    }
    range_choice
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Scans one source applying its filters (with index acceleration).
/// The surviving rows are borrowed from the view, not cloned.
fn scan_source<'v>(
    src: &Source<'v>,
    filters: &[Expr],
    ctx: &Ctx<'_>,
) -> Result<Vec<&'v [Value]>, EngineError> {
    let mut out = Vec::new();
    let mut push = |row: &'v Vec<Value>| -> Result<(), EngineError> {
        for f in filters {
            if !eval(f, &src.schema, row, ctx)?.is_truthy() {
                return Ok(());
            }
        }
        out.push(row.as_slice());
        Ok(())
    };
    match index_candidates(src.view, &src.schema, filters) {
        Some(ids) => {
            for id in ids {
                if let Some(row) = src.view.row(id) {
                    push(row)?;
                }
            }
        }
        None => {
            for (_, row) in src.view.iter() {
                push(row)?;
            }
        }
    }
    Ok(out)
}

/// An equi-join edge `L = R` where `L` reads columns of source `left`
/// only, `R` of source `right` only, and `left < right`.
struct JoinEdge<'e> {
    left: usize,
    left_key: &'e Expr,
    right: usize,
    right_key: &'e Expr,
}

/// The first source that resolves every column `e` reads; `None` when
/// `e` reads no column or no single source covers it.
fn owner(sources: &[Source<'_>], e: &Expr) -> Option<usize> {
    let mut reads_column = false;
    e.walk(&mut |node| reads_column |= matches!(node, Expr::Column(_)));
    if !reads_column {
        return None;
    }
    sources.iter().position(|s| s.schema.covers(e))
}

/// `c` as an equi-join edge, if it is `L = R` with `L` and `R` each
/// reading one source and the two sources differ.
fn join_edge<'e>(sources: &[Source<'_>], c: &'e Expr) -> Option<JoinEdge<'e>> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let mut sides = [
        (owner(sources, left)?, &**left),
        (owner(sources, right)?, &**right),
    ];
    sides.sort_by_key(|&(source, _)| source);
    let [(left, left_key), (right, right_key)] = sides;
    (left != right).then_some(JoinEdge {
        left,
        left_key,
        right,
        right_key,
    })
}

/// Evaluates one row's composite join key; `None` when any part is
/// NULL, because a NULL key equals nothing.
fn join_key<'k>(
    parts: impl Iterator<Item = (&'k Expr, &'k RowSchema, &'k [Value])>,
    ctx: &Ctx<'_>,
) -> Result<Option<Vec<Value>>, EngineError> {
    let mut key = Vec::new();
    for (e, schema, row) in parts {
        let v = eval(e, schema, row, ctx)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// Runs a `SELECT` over the locked sources.
///
/// `sources` must contain one entry per `FROM` table followed by one per
/// explicit `JOIN`, in order; `join_ons` carries the `ON` expressions.
pub fn run_select(
    sources: &[Source<'_>],
    join_ons: &[Expr],
    select: &Select,
    ctx: &Ctx<'_>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    if sources.is_empty() {
        // SELECT without FROM: evaluate projections once on an empty row.
        let schema = RowSchema::default();
        let mut names = Vec::new();
        let mut row = Vec::new();
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => {
                    return Err(EngineError::Unsupported("SELECT * without FROM".into()))
                }
                SelectItem::Expr { expr, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                    row.push(eval(expr, &schema, &[], ctx)?);
                }
            }
        }
        return Ok((names, vec![row]));
    }

    // Gather all conjuncts: WHERE plus JOIN ... ON.
    let mut pool: Vec<Expr> = Vec::new();
    if let Some(sel) = &select.selection {
        pool.extend(split_and(sel));
    }
    for on in join_ons {
        pool.extend(split_and(on));
    }

    // Classify conjuncts: single-source filters by source position,
    // equi-join edges, and residual filters on the joined row.
    let mut source_filters: Vec<Vec<Expr>> = vec![Vec::new(); sources.len()];
    let mut edges: Vec<JoinEdge<'_>> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in &pool {
        if let Some(i) = sources.iter().position(|s| s.schema.covers(c)) {
            source_filters[i].push(c.clone());
        } else if let Some(edge) = join_edge(sources, c) {
            edges.push(edge);
        } else {
            residual.push(c);
        }
    }

    // Join left to right. `tuples` is flat: `k` borrowed rows per tuple
    // once sources 0..k are joined. Source k hash-joins on every edge
    // whose `right` is k, so each edge is used exactly once.
    let mut tuples = scan_source(&sources[0], &source_filters[0], ctx)?;
    for (k, src) in sources.iter().enumerate().skip(1) {
        let right_rows = scan_source(src, &source_filters[k], ctx)?;
        let keys: Vec<&JoinEdge<'_>> = edges.iter().filter(|e| e.right == k).collect();
        let mut next: Vec<&[Value]> = Vec::new();
        if keys.is_empty() {
            // No equi-edge: Cartesian product.
            for t in tuples.chunks(k) {
                for &r in &right_rows {
                    next.extend_from_slice(t);
                    next.push(r);
                }
            }
        } else if !tuples.is_empty() && !right_rows.is_empty() {
            let mut hash: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (ri, &r) in right_rows.iter().enumerate() {
                let parts = keys.iter().map(|e| (e.right_key, &src.schema, r));
                if let Some(key) = join_key(parts, ctx)? {
                    hash.entry(key).or_default().push(ri);
                }
            }
            for t in tuples.chunks(k) {
                let parts = keys
                    .iter()
                    .map(|e| (e.left_key, &sources[e.left].schema, t[e.left]));
                let Some(key) = join_key(parts, ctx)? else {
                    continue;
                };
                for &ri in hash.get(&key).into_iter().flatten() {
                    next.extend_from_slice(t);
                    next.push(right_rows[ri]);
                }
            }
        }
        tuples = next;
    }

    // Clone the surviving tuples into rows; apply the residual filters.
    let schema = sources[1..]
        .iter()
        .fold(sources[0].schema.clone(), |acc, s| acc.concat(&s.schema));
    let mut rows = Vec::with_capacity(tuples.len() / sources.len());
    'row: for t in tuples.chunks(sources.len()) {
        let row = t.concat();
        for f in &residual {
            if !eval(f, &schema, &row, ctx)?.is_truthy() {
                continue 'row;
            }
        }
        rows.push(row);
    }

    project_and_finish(rows, &schema, select, ctx)
}

/// Grouping, projection, HAVING, DISTINCT, ORDER BY, LIMIT.
fn project_and_finish(
    rows: Vec<Vec<Value>>,
    schema: &RowSchema,
    select: &Select,
    ctx: &Ctx<'_>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    let grouped = !select.group_by.is_empty()
        || select
            .projections
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if has_aggregate(expr, ctx)))
        || select
            .having
            .as_ref()
            .is_some_and(|h| has_aggregate(h, ctx));

    // Output column names.
    let mut names = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                for i in 0..schema.len() {
                    names.push(schema.name(i).to_string());
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        }
    }

    // Produce (output row, sort keys) pairs.
    let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let mut emit = |out_row: Vec<Value>, keys: Vec<Value>| {
        produced.push((out_row, keys));
    };

    if grouped {
        // Partition rows by group key (single group when no GROUP BY).
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            let mut key = Vec::with_capacity(select.group_by.len());
            for g in &select.group_by {
                key.push(eval(g, schema, row, ctx)?);
            }
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(i);
        }
        if select.group_by.is_empty() && rows.is_empty() {
            // Aggregates over an empty input still produce one row.
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }
        let null_row: Vec<Value> = vec![Value::Null; schema.len()];
        for key in order {
            let idxs = &groups[&key];
            let grows: Vec<&Vec<Value>> = idxs.iter().map(|&i| &rows[i]).collect();
            if let Some(h) = &select.having {
                if !eval_grouped(h, schema, &grows, &null_row, ctx)?.is_truthy() {
                    continue;
                }
            }
            let first: &[Value] = grows.first().map_or(null_row.as_slice(), |r| r.as_slice());
            let mut out = Vec::new();
            for item in &select.projections {
                match item {
                    SelectItem::Wildcard => out.extend(first.iter().cloned()),
                    SelectItem::Expr { expr, .. } => {
                        out.push(eval_grouped(expr, schema, &grows, &null_row, ctx)?)
                    }
                }
            }
            let mut keys = Vec::new();
            for ob in &select.order_by {
                keys.push(order_key(
                    &ob.expr,
                    schema,
                    Some(&grows),
                    first,
                    &out,
                    &names,
                    ctx,
                )?);
            }
            emit(out, keys);
        }
    } else {
        for row in &rows {
            let mut out = Vec::new();
            for item in &select.projections {
                match item {
                    SelectItem::Wildcard => out.extend(row.iter().cloned()),
                    SelectItem::Expr { expr, .. } => out.push(eval(expr, schema, row, ctx)?),
                }
            }
            let mut keys = Vec::new();
            for ob in &select.order_by {
                keys.push(order_key(&ob.expr, schema, None, row, &out, &names, ctx)?);
            }
            emit(out, keys);
        }
    }

    if select.distinct {
        let mut seen = std::collections::HashSet::new();
        produced.retain(|(row, _)| seen.insert(row.clone()));
    }

    if !select.order_by.is_empty() {
        let dirs: Vec<bool> = select.order_by.iter().map(|o| o.asc).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, asc) in dirs.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                if ord != Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            Ordering::Equal
        });
    }

    let mut out_rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(limit) = select.limit {
        out_rows.truncate(limit as usize);
    }
    Ok((names, out_rows))
}

/// Evaluates an ORDER BY key: first as an output alias, then as a source
/// expression (in group context when grouped).
fn order_key(
    e: &Expr,
    schema: &RowSchema,
    grows: Option<&[&Vec<Value>]>,
    first_row: &[Value],
    out_row: &[Value],
    names: &[String],
    ctx: &Ctx<'_>,
) -> Result<Value, EngineError> {
    if let Expr::Column(c) = e {
        if c.table.is_none() {
            if let Some(pos) = names.iter().position(|n| n.eq_ignore_ascii_case(&c.column)) {
                return Ok(out_row[pos].clone());
            }
        }
    }
    match grows {
        Some(rows) => {
            let null_row: Vec<Value> = vec![Value::Null; schema.len()];
            eval_grouped(e, schema, rows, &null_row, ctx)
        }
        None => eval(e, schema, first_row, ctx),
    }
}
