//! Training mode and the Fig. 9 security report (§3.5.1, §8.2–8.3).
//!
//! "CryptDB provides a training mode, which allows a developer to provide
//! a trace of queries and get the resulting onion encryption layers for
//! each field, along with a warning in case some query is not supported."

use crate::onion::SecLevel;
use crate::proxy::{const_fold, Proxy};
use crate::ProxyError;
use cryptdb_engine::Value;
use cryptdb_sqlparser::{parse, Stmt};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How many hot values per column a training run reports (the paper's
/// §3.5.2 cache covers the "most common values"; the trainer surfaces
/// the head of that distribution for deploy-time warming).
pub const TRAIN_HOT_K: usize = 64;

/// Steady-state security report for one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnReport {
    pub table: String,
    pub column: String,
    /// False = the developer left the column in plaintext.
    pub sensitive: bool,
    /// The weakest exposed scheme after the trace (MinEnc, §8.3).
    pub min_enc: SecLevel,
    /// The column needed HOM (SUM/AVG/increment) at some point.
    pub needs_hom: bool,
    /// The column needed SEARCH at some point.
    pub needs_search: bool,
    /// Queries on this column that CryptDB cannot run over ciphertext.
    pub needs_plaintext: bool,
}

/// What one statement's rewrite resolved, as training mode reports it:
/// real `(table, column)` pairs (aliases resolved), both lowercase.
#[derive(Default)]
pub(crate) struct Usage {
    /// Columns a SUM, AVG or increment ran on through the HOM onion.
    pub hom: BTreeSet<(String, String)>,
    /// Columns a LIKE matched through the Search onion.
    pub search: BTreeSet<(String, String)>,
    /// Encrypted columns of the clause a needs-plaintext refusal refused.
    pub plaintext: BTreeSet<(String, String)>,
}

/// The training-mode output: per-column steady state plus warnings.
#[derive(Clone, Debug, Default)]
pub struct TrainingReport {
    pub columns: Vec<ColumnReport>,
    /// Unsupported queries with their reasons ("warnings" in §3.5.1).
    pub warnings: Vec<String>,
    /// Total queries processed.
    pub queries: usize,
    /// Per-column hot-value sets: the top-[`TRAIN_HOT_K`] integer INSERT
    /// literals the trace wrote, keyed by lowercase `(table, column)`
    /// and ordered most-frequent first. Feed to
    /// [`Proxy::warm_ope_from_training`] at deploy time to pre-walk the
    /// OPE cache off the query path.
    pub hot_values: BTreeMap<(String, String), Vec<i64>>,
}

impl TrainingReport {
    /// Number of columns whose MinEnc equals `level`.
    pub fn count_at(&self, level: SecLevel) -> usize {
        self.columns
            .iter()
            .filter(|c| c.sensitive && c.min_enc == level && !c.needs_plaintext)
            .count()
    }

    /// Columns that cannot be processed over ciphertext.
    pub fn needs_plaintext(&self) -> usize {
        self.columns.iter().filter(|c| c.needs_plaintext).count()
    }

    /// Columns requiring HOM / SEARCH (Fig. 9 middle columns).
    pub fn needs_hom(&self) -> usize {
        self.columns.iter().filter(|c| c.needs_hom).count()
    }

    pub fn needs_search(&self) -> usize {
        self.columns.iter().filter(|c| c.needs_search).count()
    }

    /// Renders the report as a Fig. 9 style table row set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("column                              MinEnc   HOM  SEARCH  plaintext?\n");
        for c in &self.columns {
            out.push_str(&format!(
                "{:<35} {:<8} {:<4} {:<7} {}\n",
                format!("{}.{}", c.table, c.column),
                if c.sensitive {
                    c.min_enc.to_string()
                } else {
                    "PLAIN".into()
                },
                if c.needs_hom { "yes" } else { "" },
                if c.needs_search { "yes" } else { "" },
                if c.needs_plaintext { "YES" } else { "" },
            ));
        }
        out
    }
}

impl Proxy {
    /// Runs a query trace through the live proxy (executing it) and then
    /// reports the steady-state onion levels. Unsupported statements are
    /// recorded as warnings rather than failing the run.
    pub fn train(&self, queries: &[&str]) -> Result<TrainingReport, ProxyError> {
        let mut warnings = Vec::new();
        let mut used = Usage::default();
        let mut literal_counts: BTreeMap<(String, String), HashMap<i64, u64>> = BTreeMap::new();
        let mut queries_run = 0usize;
        for q in queries {
            let stmts = match parse(q) {
                Ok(s) => s,
                Err(e) => {
                    warnings.push(format!("{q}: {e}"));
                    continue;
                }
            };
            for stmt in &stmts {
                queries_run += 1;
                scan_insert_literals(stmt, &mut literal_counts);
                // The Fig. 9 middle columns come from what the rewrite
                // resolved: HOM and SEARCH from statements that ran,
                // plaintext from the clause a refusal refused.
                let usage = RefCell::new(Usage::default());
                let result = self.execute_noting(self.implicit_txn(), stmt, Some(&usage));
                let usage = usage.into_inner();
                match result {
                    Ok(_) => {
                        used.hom.extend(usage.hom);
                        used.search.extend(usage.search);
                    }
                    Err(ProxyError::NeedsPlaintext(msg)) => {
                        used.plaintext.extend(usage.plaintext);
                        warnings.push(format!("needs plaintext: {msg}"));
                    }
                    Err(e) => warnings.push(format!("{q}: {e}")),
                }
            }
        }
        let mut columns = Vec::new();
        self.with_schema(|schema| {
            let mut tables: Vec<_> = schema.tables().collect();
            tables.sort_by(|a, b| a.name.cmp(&b.name));
            for t in tables {
                for col in &t.columns {
                    let key = (t.name.to_lowercase(), col.name.to_lowercase());
                    columns.push(ColumnReport {
                        table: t.name.clone(),
                        column: col.name.clone(),
                        sensitive: col.sensitive,
                        min_enc: col.min_enc(),
                        needs_hom: used.hom.contains(&key),
                        needs_search: used.search.contains(&key),
                        needs_plaintext: used.plaintext.contains(&key),
                    });
                }
            }
        });
        let hot_values = literal_counts
            .into_iter()
            .map(|(key, counts)| {
                let mut ranked: Vec<(i64, u64)> = counts.into_iter().collect();
                // Most frequent first; ties by value for determinism.
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(TRAIN_HOT_K);
                (key, ranked.into_iter().map(|(v, _)| v).collect())
            })
            .collect();
        Ok(TrainingReport {
            columns,
            warnings,
            queries: queries_run,
            hot_values,
        })
    }

    /// §3.5.2 deploy-time cache warming from a training run: feeds every
    /// per-column hot-value set in `report` to [`Proxy::warm_ope`] on the
    /// runtime pool and waits for the walks to finish. Columns the
    /// current schema does not know (e.g. a report from another
    /// deployment) are skipped. Returns the total number of values
    /// warmed into the OPE caches.
    pub fn warm_ope_from_training(&self, report: &TrainingReport) -> Result<usize, ProxyError> {
        let mut handles = Vec::new();
        for ((table, column), values) in &report.hot_values {
            match self.warm_ope(table, column, values) {
                Ok(h) => handles.push(h),
                Err(ProxyError::Schema(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(handles.into_iter().map(|h| h.join()).sum())
    }
}

/// Counts integer INSERT literals per (table, column) — the raw input of
/// the per-column hot-value sets.
fn scan_insert_literals(stmt: &Stmt, counts: &mut BTreeMap<(String, String), HashMap<i64, u64>>) {
    let Stmt::Insert(ins) = stmt else {
        return;
    };
    let table = ins.table.to_lowercase();
    for row in &ins.rows {
        for (col, expr) in ins.columns.iter().zip(row) {
            if let Ok(Value::Int(v)) = const_fold(expr) {
                *counts
                    .entry((table.clone(), col.to_lowercase()))
                    .or_default()
                    .entry(v)
                    .or_insert(0) += 1;
            }
        }
    }
}
