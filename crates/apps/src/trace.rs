//! Synthetic sql.mit.edu-style trace (Fig. 7, Fig. 9 bottom rows).
//!
//! The real artifact is a private 10-day trace of 126 M queries touching
//! 128,840 columns. This generator is the documented substitution (see
//! DESIGN.md): it synthesises a population of columns whose *operation
//! classes* are drawn from the distribution the paper reports, then
//! drives each column's representative queries through the real proxy
//! classifier. The paper's published marginals are embedded below so
//! `tests/paper_tables.rs` can print paper-vs-measured tables.

use rand::Rng;

/// Fig. 7: schema statistics of the sql.mit.edu server.
pub mod fig7 {
    pub const COMPLETE_DATABASES: usize = 8_548;
    pub const COMPLETE_TABLES: usize = 177_154;
    pub const COMPLETE_COLUMNS: usize = 1_244_216;
    pub const USED_DATABASES: usize = 1_193;
    pub const USED_TABLES: usize = 18_162;
    pub const USED_COLUMNS: usize = 128_840;
}

/// Fig. 9, "with in-proxy processing" row: columns by final class.
pub mod fig9 {
    pub const TOTAL: usize = 128_840;
    pub const NEEDS_PLAINTEXT: usize = 571;
    pub const NEEDS_HOM: usize = 1_016;
    pub const NEEDS_SEARCH: usize = 1_135;
    pub const AT_RND: usize = 84_008;
    pub const AT_SEARCH: usize = 398;
    pub const AT_DET: usize = 35_350;
    pub const AT_OPE: usize = 8_513;
}

/// The steady-state class a generated column will be driven to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnClass {
    Rnd,
    Det,
    Ope,
    Search,
    NeedsPlaintext,
}

/// One synthetic column with its workload.
#[derive(Clone, Debug)]
pub struct TraceColumn {
    pub table: String,
    pub column: String,
    pub is_text: bool,
    pub class: ColumnClass,
    pub needs_hom: bool,
}

/// A synthetic trace: tables (with column lists) plus per-column classes.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub tables: Vec<(String, Vec<TraceColumn>)>,
    pub total_columns: usize,
}

/// Generates a trace of roughly `target_columns` columns whose class mix
/// follows the Fig. 9 marginals. Column names embed the paper's
/// "pass"/"content"/"priv" markers at their observed rates so the
/// name-based rows of Fig. 9 can also be reproduced.
pub fn generate<R: Rng>(rng: &mut R, target_columns: usize) -> Trace {
    let mut trace = Trace::default();
    let mut remaining = target_columns;
    let mut table_id = 0;
    while remaining > 0 {
        table_id += 1;
        let ncols = rng.gen_range(3..=12).min(remaining);
        let tname = format!("app{}_t{}", table_id % 97, table_id);
        let mut cols = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let class_roll = rng.gen_range(0..fig9::TOTAL);
            let class = if class_roll < fig9::NEEDS_PLAINTEXT {
                ColumnClass::NeedsPlaintext
            } else if class_roll < fig9::NEEDS_PLAINTEXT + fig9::AT_OPE {
                ColumnClass::Ope
            } else if class_roll < fig9::NEEDS_PLAINTEXT + fig9::AT_OPE + fig9::AT_DET {
                ColumnClass::Det
            } else if class_roll
                < fig9::NEEDS_PLAINTEXT + fig9::AT_OPE + fig9::AT_DET + fig9::AT_SEARCH
            {
                ColumnClass::Search
            } else {
                ColumnClass::Rnd
            };
            // Name-category rates from Fig. 9's bottom rows (out of
            // 128,840 columns: 2,029 "pass", 2,521 "content", 173 "priv").
            let name_roll = rng.gen_range(0..fig9::TOTAL);
            let base = if name_roll < 2_029 {
                format!("user_pass_{c}")
            } else if name_roll < 2_029 + 2_521 {
                format!("page_content_{c}")
            } else if name_roll < 2_029 + 2_521 + 173 {
                format!("priv_note_{c}")
            } else {
                format!("col{c}")
            };
            let is_text = matches!(class, ColumnClass::Search | ColumnClass::NeedsPlaintext)
                || rng.gen_bool(0.4);
            let needs_hom = !is_text && rng.gen_range(0..fig9::TOTAL) < fig9::NEEDS_HOM * 3;
            cols.push(TraceColumn {
                table: tname.clone(),
                column: base,
                is_text,
                class,
                needs_hom,
            });
        }
        remaining -= ncols;
        trace.total_columns += ncols;
        trace.tables.push((tname, cols));
    }
    trace
}

impl Trace {
    /// DDL for every table in the trace.
    pub fn schema(&self) -> Vec<String> {
        self.tables
            .iter()
            .map(|(tname, cols)| {
                let coldefs: Vec<String> = cols
                    .iter()
                    .map(|c| format!("{} {}", c.column, if c.is_text { "text" } else { "int" }))
                    .collect();
                format!("CREATE TABLE {tname} ({})", coldefs.join(", "))
            })
            .collect()
    }

    /// The representative queries that drive each column to its class.
    pub fn workload(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (tname, cols) in &self.tables {
            for c in cols {
                match c.class {
                    ColumnClass::Rnd => {
                        out.push(format!("SELECT {} FROM {tname}", c.column));
                    }
                    ColumnClass::Det => {
                        let lit = if c.is_text { "'v'" } else { "7" };
                        out.push(format!(
                            "SELECT {} FROM {tname} WHERE {} = {lit}",
                            c.column, c.column
                        ));
                    }
                    ColumnClass::Ope => {
                        if c.is_text {
                            out.push(format!(
                                "SELECT {} FROM {tname} ORDER BY {} LIMIT 5",
                                c.column, c.column
                            ));
                        } else {
                            out.push(format!(
                                "SELECT {} FROM {tname} WHERE {} > 100",
                                c.column, c.column
                            ));
                        }
                    }
                    ColumnClass::Search => {
                        out.push(format!(
                            "SELECT {} FROM {tname} WHERE {} LIKE '%word%'",
                            c.column, c.column
                        ));
                    }
                    ColumnClass::NeedsPlaintext => {
                        // The §8.2 catalogue: bitwise ops, string
                        // manipulation, math transforms, LIKE with column.
                        let q = if c.is_text {
                            format!(
                                "SELECT {} FROM {tname} WHERE LOWER({}) = 'x'",
                                c.column, c.column
                            )
                        } else {
                            format!(
                                "SELECT {} FROM {tname} WHERE BITAND({}, 4) = 4",
                                c.column, c.column
                            )
                        };
                        out.push(q);
                    }
                }
                if c.needs_hom && !c.is_text {
                    out.push(format!("SELECT SUM({}) FROM {tname}", c.column));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_columns() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = generate(&mut rng, 500);
        assert_eq!(t.total_columns, 500);
        assert_eq!(t.tables.iter().map(|(_, c)| c.len()).sum::<usize>(), 500);
        assert_eq!(t.schema().len(), t.tables.len());
    }

    #[test]
    fn class_mix_tracks_paper_marginals() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = generate(&mut rng, 20_000);
        let count = |class: ColumnClass| {
            t.tables
                .iter()
                .flat_map(|(_, c)| c)
                .filter(|c| c.class == class)
                .count() as f64
        };
        let total = t.total_columns as f64;
        let expect_rnd = fig9::AT_RND as f64 / fig9::TOTAL as f64;
        let got_rnd = count(ColumnClass::Rnd) / total;
        assert!(
            (got_rnd - expect_rnd).abs() < 0.03,
            "rnd {got_rnd} vs {expect_rnd}"
        );
        let expect_det = fig9::AT_DET as f64 / fig9::TOTAL as f64;
        let got_det = count(ColumnClass::Det) / total;
        assert!(
            (got_det - expect_det).abs() < 0.03,
            "det {got_det} vs {expect_det}"
        );
    }

    #[test]
    fn workload_produces_queries_for_every_column() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = generate(&mut rng, 200);
        assert!(t.workload().len() >= 200);
    }
}
