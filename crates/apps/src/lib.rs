//! Application schemas and workload generators for the evaluation (§5, §8).
//!
//! Every module produces plain SQL strings and stays agnostic of the
//! engine/proxy — tests, examples and the benchmark hand the statements
//! to the plaintext engine, the CryptDB proxy, or both:
//!
//! * [`tpcc`] — the TPC-C subset: the full 92-column, 9-table schema and
//!   the eight query types of Fig. 11/12 (single-principal, everything
//!   encrypted).
//! * [`phpbb`] — the phpBB forum: annotated multi-principal schema
//!   (Fig. 4/5) and the five HTTP request types of Fig. 15, each
//!   expanding to tens of SQL statements.
//! * [`hotcrp`], [`gradapply`], [`openemr`], [`mit602`], [`phpcalendar`]
//!   — the remaining §8 case studies: schemas, annotations, and
//!   representative query workloads for the Fig. 8/9 analyses.
//! * [`trace`] — a seeded synthetic stand-in for the sql.mit.edu trace
//!   (126 M queries / 128,840 columns), calibrated to the published
//!   per-class marginals (see DESIGN.md substitution table).
//! * [`mixed`] — tpcc + phpbb + hotcrp interleaved into deterministic,
//!   order-commutative per-session traces for the concurrent serving
//!   tests (`crates/server`, `crates/net`) and `BENCHMARK.json`'s
//!   `apps_open` workload.

#![forbid(unsafe_code)]

pub mod gradapply;
pub mod hotcrp;
pub mod mit602;
pub mod mixed;
pub mod openemr;
pub mod phpbb;
pub mod phpcalendar;
pub mod tpcc;
pub mod trace;

/// Statistics over a schema's CryptDB annotations (Fig. 8).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnnotationStats {
    /// Total annotation instances (`PRINCTYPE` + `ENC FOR` + `SPEAKS FOR`).
    pub total: usize,
    /// Distinct annotation shapes (the paper's "unique annotations").
    pub unique: usize,
    /// Number of `ENC FOR`-protected columns.
    pub enc_for_columns: usize,
}

/// Counts annotations in a schema string by lexical shape.
///
/// A "unique" annotation is a distinct `(kind, principal types)` tuple,
/// which matches how the paper counts (e.g. every `ENC FOR (msgid msg)`
/// in one table is one unique annotation used many times).
pub fn annotation_stats(schema_sql: &str) -> AnnotationStats {
    let mut stats = AnnotationStats::default();
    let mut shapes = std::collections::HashSet::new();
    let upper = schema_sql.to_uppercase();
    let bytes = upper.as_bytes();
    let search = |needle: &str, out: &mut Vec<usize>| {
        let n = needle.as_bytes();
        let mut i = 0;
        while i + n.len() <= bytes.len() {
            if &bytes[i..i + n.len()] == n {
                out.push(i);
            }
            i += 1;
        }
    };
    let mut princ = Vec::new();
    search("PRINCTYPE", &mut princ);
    let mut encs = Vec::new();
    search("ENC FOR", &mut encs);
    let mut speaks = Vec::new();
    search("SPEAKS FOR", &mut speaks);
    stats.total = princ.len() + encs.len() + speaks.len();
    stats.enc_for_columns = encs.len();
    let snippet = |pos: usize| {
        let end = (pos + 80).min(upper.len());
        upper[pos..end]
            .split([')', ';'])
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    };
    for &p in princ.iter().chain(&encs).chain(&speaks) {
        shapes.insert(snippet(p));
    }
    stats.unique = shapes.len();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_stats_counts_figure4() {
        let s = annotation_stats(
            "PRINCTYPE physical_user EXTERNAL; PRINCTYPE user, msg; \
             CREATE TABLE privmsgs (msgid int, \
               subject varchar(255) ENC FOR (msgid msg), \
               msgtext text ENC FOR (msgid msg)); \
             CREATE TABLE privmsgs_to (msgid int, rcpt_id int, sender_id int, \
               (sender_id user) SPEAKS FOR (msgid msg), \
               (rcpt_id user) SPEAKS FOR (msgid msg))",
        );
        assert_eq!(s.enc_for_columns, 2);
        assert_eq!(s.total, 6);
        assert!(s.unique <= s.total);
    }
}
