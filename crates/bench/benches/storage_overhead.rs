//! §8.4.3: storage overhead of the encrypted database.
//!
//! Paper: TPC-C grows 3.76× (dominated by HOM's 32-bit → 2048-bit
//! expansion); phpBB grows ≈1.2× (only sensitive fields encrypted, plus
//! the key tables).

use cryptdb_apps::{phpbb, tpcc};
use cryptdb_bench::{banner, cryptdb_stack, mysql_stack, sensitive_policy, Stack, TablePrinter};
use cryptdb_core::proxy::{EncryptionPolicy, ProxyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tpcc_pair() -> (usize, usize) {
    let scale = tpcc::TpccScale {
        warehouses: 1,
        districts_per_wh: 2,
        customers_per_district: 10,
        items: 30,
        orders_per_district: 5,
    };
    let plain = mysql_stack();
    let enc = cryptdb_stack(EncryptionPolicy::All);
    for stack in [&plain, &enc] {
        let mut rng = StdRng::seed_from_u64(1);
        for ddl in tpcc::schema() {
            stack.run(&ddl);
        }
        for stmt in tpcc::load_statements(&mut rng, &scale) {
            stack.run(&stmt);
        }
    }
    let p = match &plain {
        Stack::MySql(e) => e.storage_bytes(),
        _ => unreachable!(),
    };
    let c = match &enc {
        Stack::CryptDb(px) => px.engine().storage_bytes(),
        _ => unreachable!(),
    };
    (p, c)
}

fn phpbb_pair() -> (usize, usize) {
    let scale = phpbb::PhpbbScale::default();
    let plain = mysql_stack();
    let enc = cryptdb_stack(sensitive_policy(&phpbb::sensitive_fields()));
    for stack in [&plain, &enc] {
        let mut rng = StdRng::seed_from_u64(2);
        for ddl in phpbb::schema() {
            stack.run(&ddl);
        }
        for stmt in phpbb::load_statements(&mut rng, &scale) {
            stack.run(&stmt);
        }
    }
    let p = match &plain {
        Stack::MySql(e) => e.storage_bytes(),
        _ => unreachable!(),
    };
    let c = match &enc {
        Stack::CryptDb(px) => px.engine().storage_bytes(),
        _ => unreachable!(),
    };
    (p, c)
}

fn main() {
    banner("§8.4.3", "database storage expansion under CryptDB");
    let t = TablePrinter::new(vec![10, 16, 16, 10, 18]);
    t.row(&[
        "workload".into(),
        "plain bytes".into(),
        "CryptDB bytes".into(),
        "ratio".into(),
        "paper ratio".into(),
    ]);
    t.rule();
    let (p, c) = tpcc_pair();
    t.row(&[
        "TPC-C".into(),
        p.to_string(),
        c.to_string(),
        format!("{:.2}x", c as f64 / p as f64),
        "3.76x".into(),
    ]);
    let (p, c) = phpbb_pair();
    t.row(&[
        "phpBB".into(),
        p.to_string(),
        c.to_string(),
        format!("{:.2}x", c as f64 / p as f64),
        "~1.2x".into(),
    ]);
    println!();
    println!(
        "note: our TPC-C ratio exceeds the paper's because every integer\n\
         column carries a {}-bit Paillier ciphertext and a 256-bit JOIN-ADJ\n\
         tag (the paper packs neither); the *source* of the expansion — the\n\
         HOM onion — is the same. phpBB stays small because only the\n\
         sensitive fields are encrypted (§3.5.2).",
        2 * ProxyConfig::default().paillier_bits
    );
}
