//! The paper's deterministic evaluation tables (§8), pinned: Fig. 7
//! (trace schema statistics), Fig. 8 (annotation counts), Fig. 9 (MinEnc
//! onion levels per application and for the synthetic trace) and §8.4.3
//! (storage expansion).
//!
//! Each test asserts today's numbers exactly, so a moved row fails here
//! and has to be explained. Each also prints the paper's value beside
//! ours:
//!
//! ```text
//! cargo test --test paper_tables -- --nocapture
//! ```
//!
//! Keys are 256-bit Paillier so the tables stay quick in debug builds;
//! the MinEnc counts do not depend on the key size, and the 1024-bit
//! storage ratio is `BENCHMARK.json`'s `storage_x`. The timed figures
//! (Fig. 10–15) are `BENCHMARK.json` metrics, not tests.

use cryptdb::apps::trace::{self, fig7, fig9};
use cryptdb::apps::{
    annotation_stats, gradapply, hotcrp, mit602, openemr, phpbb, phpcalendar, tpcc,
};
use cryptdb::core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb::core::SecLevel;
use cryptdb::engine::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn proxy(policy: EncryptionPolicy) -> Proxy {
    let cfg = ProxyConfig {
        policy,
        paillier_bits: 256,
        ..Default::default()
    };
    Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg)
}

/// Encrypts exactly the listed fields: table, then its columns separated
/// by spaces (all lowercase, as `EncryptionPolicy::Explicit` wants).
fn sensitive(fields: &[(&str, &str)]) -> EncryptionPolicy {
    let map = fields
        .iter()
        .map(|(t, cols)| (t.to_string(), cols.split(' ').map(String::from).collect()))
        .collect();
    EncryptionPolicy::Explicit(map)
}

fn phpbb_policy() -> EncryptionPolicy {
    let map = phpbb::sensitive_fields()
        .into_iter()
        .map(|(t, cols)| (t.into(), cols.into_iter().map(String::from).collect()))
        .collect();
    EncryptionPolicy::Explicit(map)
}

#[test]
fn fig7_trace_schema_statistics() {
    let t = trace::generate(&mut StdRng::seed_from_u64(2011), 4000);
    let ours = (t.tables.len(), t.total_columns);
    println!("Fig. 7            databases   tables   columns");
    println!(
        "paper, complete   {:>9} {:>8} {:>9}",
        fig7::COMPLETE_DATABASES,
        fig7::COMPLETE_TABLES,
        fig7::COMPLETE_COLUMNS
    );
    println!(
        "paper, used       {:>9} {:>8} {:>9}",
        fig7::USED_DATABASES,
        fig7::USED_TABLES,
        fig7::USED_COLUMNS
    );
    println!("ours, synthetic   {:>9} {:>8} {:>9}", 1, ours.0, ours.1);
    assert_eq!(ours, (543, 4000));
}

#[test]
fn fig8_annotation_counts() {
    println!("Fig. 8       annotations (unique)        login LoC   fields secured");
    let mut ours = Vec::new();
    for (app, schema, paper, loc, fields) in [
        (
            "phpBB",
            phpbb::annotated_schema(),
            "31 (11)",
            phpbb::PAPER_LOGIN_LOC,
            phpbb::PAPER_SENSITIVE_FIELDS,
        ),
        (
            "HotCRP",
            hotcrp::annotated_schema(),
            "29 (12)",
            hotcrp::PAPER_LOGIN_LOC,
            hotcrp::PAPER_SENSITIVE_FIELDS,
        ),
        (
            "grad-apply",
            gradapply::annotated_schema(),
            "111 (13)",
            gradapply::PAPER_LOGIN_LOC,
            gradapply::PAPER_SENSITIVE_FIELDS,
        ),
    ] {
        let s = annotation_stats(&schema);
        println!(
            "{app:<12} paper {paper:<9} ours {:>3} ({:>2})   paper {loc}        \
             paper {fields:>3} / ours {}",
            s.total, s.unique, s.enc_for_columns
        );
        ours.push((s.total, s.unique, s.enc_for_columns));
    }
    println!(
        "TPC-C        paper 0         ours   0 ( 0)   paper 0        paper  92 / ours {}",
        tpcc::COLUMNS
    );
    // Our schemas follow the paper's published excerpts, so the totals
    // are smaller than the full deployments; the shape (one ENC FOR per
    // protected column, a few SPEAKS FOR rules) is what reproduces.
    assert_eq!(ours, [(12, 10, 4), (11, 8, 6), (9, 7, 3)]);
}

/// One Fig. 9 row: columns, considered for encryption, needs plaintext,
/// needs HOM, needs SEARCH, then MinEnc counts at RND, SEARCH, DET, OPE.
type MinEncRow = [usize; 9];

fn min_enc_row(policy: EncryptionPolicy, schema: &[String], workload: &[String]) -> MinEncRow {
    let p = proxy(policy);
    for ddl in schema {
        p.execute(ddl).unwrap();
    }
    let queries: Vec<&str> = workload.iter().map(String::as_str).collect();
    let rep = p.train(&queries).unwrap();
    [
        rep.columns.len(),
        rep.columns.iter().filter(|c| c.sensitive).count(),
        rep.needs_plaintext(),
        rep.needs_hom(),
        rep.needs_search(),
        rep.count_at(SecLevel::Rnd),
        rep.count_at(SecLevel::Search),
        rep.count_at(SecLevel::Det),
        rep.count_at(SecLevel::Ope),
    ]
}

fn print_fig9(app: &str, row: &MinEncRow, paper: &str) {
    let [cols, enc, plain, hom, search, rnd, srch, det, ope] = row;
    println!(
        "{app:<14} {cols:>4} {enc:>4} {plain:>5} {hom:>4} {search:>6}   \
         {rnd:>3}/{srch}/{det}/{ope:<4} paper {paper}"
    );
}

const FIG9_HEADER: &str = "Fig. 9         cols  enc plain  HOM SEARCH   RND/SEARCH/DET/OPE";

#[test]
fn fig9_min_enc_per_application() {
    println!("{FIG9_HEADER}");
    let mut moved = Vec::new();
    let mut row = |app: &str,
                   policy: EncryptionPolicy,
                   schema: Vec<String>,
                   workload: Vec<String>,
                   paper: &str,
                   pinned: MinEncRow| {
        let ours = min_enc_row(policy, &schema, &workload);
        print_fig9(app, &ours, paper);
        if ours != pinned {
            moved.push(format!("{app}: {ours:?}, pinned {pinned:?}"));
        }
    };
    row(
        "phpBB",
        phpbb_policy(),
        phpbb::schema(),
        phpbb::analysis_workload(),
        "21/0/1/1 of 23",
        [30, 9, 0, 0, 1, 8, 1, 0, 0],
    );
    row(
        "HotCRP",
        sensitive(&[
            ("contactinfo", "password"),
            ("paper", "title abstract authorinformation"),
            (
                "paperreview",
                "reviewerid overallmerit commentstopc commentstoauthor",
            ),
        ]),
        hotcrp::schema(),
        hotcrp::analysis_workload(),
        "18/1/1/2 of 22",
        [19, 8, 0, 1, 0, 6, 0, 1, 1],
    );
    row(
        "grad-apply",
        sensitive(&[
            (
                "candidates",
                "name gre_score toefl_score gpa statement area",
            ),
            ("letters", "letter writer_email"),
            ("reviews", "score comments"),
        ]),
        gradapply::schema(),
        gradapply::analysis_workload(),
        "95/0/6/2 of 103",
        [20, 10, 0, 1, 0, 8, 0, 1, 1],
    );
    row(
        "OpenEMR",
        sensitive(&[
            (
                "patient_data",
                "fname lname dob ss street phone medical_history allergies current_medications",
            ),
            ("forms", "narrative"),
            ("billing", "justify fee bill_date"),
            ("prescriptions", "drug dosage note"),
        ]),
        openemr::schema(),
        openemr::analysis_workload(),
        "526/2/12/19 of 566",
        [31, 16, 2, 1, 0, 13, 0, 0, 1],
    );
    row(
        "MIT 6.02",
        sensitive(&[
            ("students", "username full_name section"),
            ("grades", "points feedback"),
        ]),
        mit602::schema(),
        mit602::analysis_workload(),
        "7/0/4/2 of 13",
        [15, 5, 0, 1, 0, 3, 0, 1, 1],
    );
    row(
        "PHP-calendar",
        sensitive(&[
            ("events", "subject description location"),
            ("cal_users", "username password email"),
            ("occurrences", "day starttime endtime"),
        ]),
        phpcalendar::schema(),
        phpcalendar::analysis_workload(),
        "3/2/4/1 of 12",
        [24, 9, 2, 0, 0, 5, 0, 1, 1],
    );
    // OPE reads 1 against the paper's 8, and that is the workload,
    // not the inference: `tpcc::training_queries` is one query per
    // Fig. 11 class, so it holds a single range predicate
    // (`s_quantity < …`). `apps::mixed`, and through it the benchmark,
    // train on the same set, so it stays as it is.
    row(
        "TPC-C",
        EncryptionPolicy::All,
        tpcc::schema(),
        tpcc::training_queries(&tpcc::TpccScale::default()),
        "65/0/19/8 of 92",
        [92, 92, 0, 2, 0, 76, 0, 15, 1],
    );
    assert!(moved.is_empty(), "Fig. 9 rows moved: {moved:#?}");
}

#[test]
fn fig9_min_enc_synthetic_trace() {
    println!("{FIG9_HEADER}");
    // The class mix is sampled from the paper's published marginals, so
    // the proportions, not the counts, are what compare.
    let t = trace::generate(&mut StdRng::seed_from_u64(2011), 500);
    let row = min_enc_row(EncryptionPolicy::All, &t.schema(), &t.workload());
    let paper = format!(
        "{}/{}/{}/{} of {}",
        fig9::AT_RND,
        fig9::AT_SEARCH,
        fig9::AT_DET,
        fig9::AT_OPE,
        fig9::TOTAL
    );
    print_fig9("trace (synth)", &row, &paper);
    assert_eq!(row, [500, 500, 3, 6, 1, 323, 1, 143, 30]);
}

/// Loads the same statements into the plaintext engine and into a
/// proxy, returning (plaintext bytes, encrypted bytes).
fn storage_pair(policy: EncryptionPolicy, statements: &[String]) -> (usize, usize) {
    let plain = Engine::new();
    let enc = proxy(policy);
    for s in statements {
        plain.execute_sql(s).unwrap();
        enc.execute(s).unwrap();
    }
    (plain.storage_bytes(), enc.engine().storage_bytes())
}

fn print_storage(name: &str, (plain, enc): (usize, usize), paper: &str) {
    println!("§8.4.3   plain bytes  CryptDB bytes   ratio   paper");
    let ratio = enc as f64 / plain as f64;
    println!("{name:<8} {plain:>11} {enc:>14} {ratio:>6.2}x   {paper}");
}

/// TPC-C grows more than the paper's 3.76x: every integer column carries
/// a Paillier ciphertext and a JOIN-ADJ tag that the paper packs or
/// omits. HOM is the source of the expansion in both. One order (five
/// order lines) and one row in every other table keep the JOIN-ADJ-bound
/// load short in debug builds.
#[test]
fn storage_expansion_tpcc() {
    let scale = tpcc::TpccScale {
        warehouses: 1,
        districts_per_wh: 1,
        customers_per_district: 1,
        items: 1,
        orders_per_district: 1,
    };
    let mut stmts = tpcc::schema();
    stmts.extend(tpcc::load_statements(&mut StdRng::seed_from_u64(1), &scale));
    let pair = storage_pair(EncryptionPolicy::All, &stmts);
    print_storage("TPC-C", pair, "3.76x");
    assert_eq!(pair, (867, 18300));
}

/// phpBB encrypts only its sensitive fields (§3.5.2), yet reads well
/// above the paper's ~1.2x: our seed rows are short, so the fixed
/// per-cell onion overhead (IV, DET block, SEARCH word list) dominates.
/// The default `PhpbbScale` reads 5.21x, so the small scale here is not
/// what moves it.
#[test]
fn storage_expansion_phpbb() {
    let scale = phpbb::PhpbbScale {
        users: 3,
        forums: 1,
        posts: 4,
        messages: 4,
    };
    let mut stmts = phpbb::schema();
    stmts.extend(phpbb::load_statements(
        &mut StdRng::seed_from_u64(2),
        &scale,
    ));
    let pair = storage_pair(phpbb_policy(), &stmts);
    print_storage("phpBB", pair, "~1.2x");
    assert_eq!(pair, (966, 5307));
}
