//! End-to-end tests: full CryptDB pipeline over the embedded engine.

use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_core::{ProxyError, SecLevel};
use cryptdb_engine::{Engine, QueryResult, Value};
use std::sync::Arc;

fn proxy() -> Proxy {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    Proxy::new(Arc::new(Engine::new()), [42u8; 32], cfg)
}

fn seeded(p: &Proxy) {
    p.execute(
        "CREATE TABLE employees (id int, name text, dept text, salary int); \
         INSERT INTO employees (id, name, dept, salary) VALUES \
           (23, 'Alice', 'sales', 60000), \
           (2, 'Bob', 'sales', 55000), \
           (3, 'Carol', 'eng', 80000), \
           (4, 'Dave', 'eng', 75000)",
    )
    .unwrap();
}

fn strs(r: &QueryResult) -> Vec<String> {
    r.rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn paper_example_equality_select() {
    // §3.3's running example: SELECT ID FROM Employees WHERE Name = 'Alice'.
    let p = proxy();
    seeded(&p);
    let r = p
        .execute("SELECT id FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(r.rows(), &[vec![Value::Int(23)]]);
    // Follow-up equality on the same column: no further adjustment needed;
    // and COUNT works over DET.
    let r = p
        .execute("SELECT COUNT(*) FROM employees WHERE name = 'Bob'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn server_never_sees_plaintext() {
    let p = proxy();
    seeded(&p);
    // Check every value stored at the server: no plaintext strings, no
    // plaintext salaries.
    let engine = p.engine();
    for t in engine.table_names() {
        if t.starts_with("cryptdb_") {
            continue;
        }
        engine
            .with_table(&t, |tab| {
                for (_, row) in tab.iter() {
                    for v in row {
                        match v {
                            Value::Str(s) => panic!("plaintext string at server: {s}"),
                            Value::Int(i) => {
                                assert!(
                                    ![23i64, 2, 3, 4, 60000, 55000, 80000, 75000].contains(i)
                                        || *i <= 4, // rid values are small ints
                                    "plaintext int at server: {i}"
                                );
                            }
                            _ => {}
                        }
                    }
                }
            })
            .unwrap();
    }
    // Table and column names are anonymised.
    assert!(engine.table_names().iter().any(|t| t.starts_with("table")));
    assert!(!engine.table_names().contains(&"employees".to_string()));
}

#[test]
fn onion_levels_adjust_on_demand() {
    let p = proxy();
    seeded(&p);
    let level =
        |col: &str| p.with_schema(|s| s.table("employees").unwrap().column(col).unwrap().min_enc());
    // Initially everything sits at RND.
    assert_eq!(level("name"), SecLevel::Rnd);
    assert_eq!(level("salary"), SecLevel::Rnd);
    // An equality predicate lowers Eq to DET.
    p.execute("SELECT id FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(level("name"), SecLevel::Det);
    // A range predicate lowers Ord to OPE.
    p.execute("SELECT id FROM employees WHERE salary > 60000")
        .unwrap();
    assert_eq!(level("salary"), SecLevel::Ope);
    // Projection-only columns stay at RND.
    assert_eq!(level("dept"), SecLevel::Rnd);
}

#[test]
fn range_order_and_aggregates() {
    let p = proxy();
    seeded(&p);
    let r = p
        .execute("SELECT name FROM employees WHERE salary >= 75000 ORDER BY salary DESC LIMIT 2")
        .unwrap();
    assert_eq!(strs(&r), vec!["Carol", "Dave"]);
    let r = p.execute("SELECT SUM(salary) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(270_000)));
    let r = p.execute("SELECT AVG(salary) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(67_500)));
    let r = p.execute("SELECT MIN(salary) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(55_000)));
    let r = p.execute("SELECT MAX(salary) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(80_000)));
    let r = p
        .execute("SELECT COUNT(*) FROM employees WHERE salary BETWEEN 55000 AND 75000")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn in_proxy_sorting_keeps_ope_sealed() {
    let p = proxy();
    seeded(&p);
    // ORDER BY without LIMIT is sorted in the proxy (§3.5.1) — the Ord
    // onion must stay at RND.
    let r = p
        .execute("SELECT name FROM employees ORDER BY salary")
        .unwrap();
    assert_eq!(strs(&r), vec!["Bob", "Alice", "Dave", "Carol"]);
    let min_enc = p.with_schema(|s| {
        s.table("employees")
            .unwrap()
            .column("salary")
            .unwrap()
            .min_enc()
    });
    assert_eq!(min_enc, SecLevel::Rnd, "proxy sort must not expose OPE");
}

#[test]
fn group_by_and_distinct() {
    let p = proxy();
    seeded(&p);
    let r = p
        .execute("SELECT dept, COUNT(*) FROM employees GROUP BY dept ORDER BY dept")
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][0], Value::Str("eng".into()));
    assert_eq!(r.rows()[0][1], Value::Int(2));
    let r = p
        .execute("SELECT DISTINCT dept FROM employees ORDER BY dept")
        .unwrap();
    assert_eq!(strs(&r), vec!["eng", "sales"]);
    let r = p
        .execute("SELECT dept, SUM(salary) FROM employees GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept")
        .unwrap();
    assert_eq!(r.rows()[0][1], Value::Int(155_000));
}

#[test]
fn equi_join_via_join_adj() {
    let p = proxy();
    seeded(&p);
    p.execute(
        "CREATE TABLE bonuses (emp_name text, amount int); \
         INSERT INTO bonuses (emp_name, amount) VALUES ('Alice', 500), ('Carol', 700)",
    )
    .unwrap();
    let r = p
        .execute(
            "SELECT employees.dept, bonuses.amount FROM employees \
             JOIN bonuses ON employees.name = bonuses.emp_name ORDER BY bonuses.amount",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][0], Value::Str("sales".into()));
    assert_eq!(r.rows()[0][1], Value::Int(500));
    // Join again — steady state, no re-adjustment needed, same answer.
    let r2 = p
        .execute("SELECT COUNT(*) FROM employees JOIN bonuses ON employees.name = bonuses.emp_name")
        .unwrap();
    assert_eq!(r2.scalar(), Some(&Value::Int(2)));
    // Equality constants still work on the re-keyed column.
    let r3 = p
        .execute("SELECT amount FROM bonuses WHERE emp_name = 'Carol'")
        .unwrap();
    assert_eq!(r3.scalar(), Some(&Value::Int(700)));
}

#[test]
fn search_onion_serves_like() {
    let p = proxy();
    p.execute(
        "CREATE TABLE messages (id int, msg text); \
         INSERT INTO messages (id, msg) VALUES \
           (1, 'meet alice at noon'), \
           (2, 'nothing to see here'), \
           (3, 'Alice and bob talk')",
    )
    .unwrap();
    let r = p
        .execute("SELECT id FROM messages WHERE msg LIKE '%alice%' ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![Value::Int(1), Value::Int(3)]
    );
    // Word search, not substring: 'al' must not match.
    let r = p
        .execute("SELECT COUNT(*) FROM messages WHERE msg LIKE '%al%'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(0)));
}

#[test]
fn update_delete_insert_roundtrip() {
    let p = proxy();
    seeded(&p);
    p.execute("UPDATE employees SET salary = 90000 WHERE name = 'Carol'")
        .unwrap();
    let r = p
        .execute("SELECT salary FROM employees WHERE name = 'Carol'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(90_000)));
    let r = p
        .execute("DELETE FROM employees WHERE dept = 'sales'")
        .unwrap();
    assert_eq!(r, QueryResult::Affected(2));
    let r = p.execute("SELECT COUNT(*) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)));
}

#[test]
fn increment_update_uses_hom_and_staleness() {
    let p = proxy();
    seeded(&p);
    // Increment: server-side HOM multiplication (§3.3).
    p.execute("UPDATE employees SET salary = salary + 1000")
        .unwrap();
    // Projection is served from the Add onion.
    let r = p
        .execute("SELECT salary FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(61_000)));
    // A later comparison triggers the SELECT-then-UPDATE refresh.
    let r = p
        .execute("SELECT name FROM employees WHERE salary > 80000")
        .unwrap();
    assert_eq!(strs(&r), vec!["Carol"]);
    // And SUM still agrees.
    let r = p.execute("SELECT SUM(salary) FROM employees").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(274_000)));
}

#[test]
fn unsupported_computations_are_flagged() {
    let p = proxy();
    seeded(&p);
    // §6: computation and comparison on the same column.
    let err = p
        .execute("SELECT id FROM employees WHERE salary > id * 2 + 10")
        .unwrap_err();
    assert!(matches!(err, ProxyError::NeedsPlaintext(_)), "{err}");
    // §8.2: string manipulation over encrypted data.
    let err = p.execute("SELECT LOWER(name) FROM employees").unwrap_err();
    assert!(matches!(err, ProxyError::NeedsPlaintext(_)), "{err}");
    // LIKE with non-word pattern.
    let err = p
        .execute("SELECT id FROM employees WHERE name LIKE 'Al%ce'")
        .unwrap_err();
    assert!(matches!(err, ProxyError::NeedsPlaintext(_)), "{err}");
}

#[test]
fn min_level_floor_enforced() {
    let p = proxy();
    seeded(&p);
    // §3.5.1: credit-card style floor — never below DET.
    p.set_min_level("employees", "salary", SecLevel::Det)
        .unwrap();
    let err = p
        .execute("SELECT id FROM employees WHERE salary > 60000")
        .unwrap_err();
    assert!(matches!(err, ProxyError::PolicyViolation(_)), "{err}");
    // Equality (DET) is still fine.
    let r = p
        .execute("SELECT COUNT(*) FROM employees WHERE salary = 60000")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn nulls_pass_through() {
    let p = proxy();
    p.execute(
        "CREATE TABLE t (a int, b text); \
         INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    )
    .unwrap();
    let r = p.execute("SELECT b FROM t WHERE a = 2").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Null));
    let r = p.execute("SELECT a FROM t WHERE b IS NULL").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)));
    let r = p.execute("SELECT COUNT(b) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn explicit_policy_leaves_marked_columns_plain() {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        policy: EncryptionPolicy::Explicit(
            [("notes".to_string(), vec!["body".to_string()])]
                .into_iter()
                .collect(),
        ),
        ..Default::default()
    };
    let p = Proxy::new(Arc::new(Engine::new()), [1u8; 32], cfg);
    p.execute(
        "CREATE TABLE notes (id int, body text); \
         INSERT INTO notes (id, body) VALUES (7, 'secret stuff')",
    )
    .unwrap();
    // id is plaintext at the server; body is encrypted.
    let anon = p.with_schema(|s| s.table("notes").unwrap().anon.clone());
    p.engine()
        .with_table(&anon, |t| {
            let (_, row) = t.iter().next().unwrap();
            assert!(row.iter().any(|v| v == &Value::Int(7)), "id stays plain");
            assert!(
                !row.iter()
                    .any(|v| matches!(v, Value::Str(s) if s.contains("secret"))),
                "body must be encrypted"
            );
        })
        .unwrap();
    let r = p.execute("SELECT body FROM notes WHERE id = 7").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Str("secret stuff".into())));
}

#[test]
fn implicit_join_from_comma_list() {
    let p = proxy();
    seeded(&p);
    p.execute(
        "CREATE TABLE depts (dname text, floor int); \
         INSERT INTO depts (dname, floor) VALUES ('sales', 1), ('eng', 3)",
    )
    .unwrap();
    let r = p
        .execute(
            "SELECT e.name, d.floor FROM employees e, depts d \
             WHERE e.dept = d.dname AND d.floor = 3 ORDER BY e.name",
        )
        .unwrap();
    assert_eq!(strs(&r), vec!["Carol", "Dave"]);
}

#[test]
fn select_star_decrypts_everything() {
    let p = proxy();
    seeded(&p);
    let r = p.execute("SELECT * FROM employees WHERE id = 23").unwrap();
    let QueryResult::Rows { columns, rows } = r else {
        panic!()
    };
    assert_eq!(columns, vec!["id", "name", "dept", "salary"]);
    assert_eq!(
        rows[0],
        vec![
            Value::Int(23),
            Value::Str("Alice".into()),
            Value::Str("sales".into()),
            Value::Int(60000)
        ]
    );
}

#[test]
fn in_list_predicate() {
    let p = proxy();
    seeded(&p);
    let r = p
        .execute("SELECT name FROM employees WHERE id IN (2, 3) ORDER BY name")
        .unwrap();
    assert_eq!(strs(&r), vec!["Bob", "Carol"]);
}

#[test]
fn equality_constants_after_join_rekeying() {
    // Regression: after a join re-keys a column's JOIN-ADJ tags, equality
    // constants for the *re-keyed* column must still match (its DET key
    // is unchanged; only the tag key moved to the join base).
    let p = proxy();
    seeded(&p);
    p.execute(
        "CREATE TABLE zbonus (emp_name text, amount int); \
         INSERT INTO zbonus (emp_name, amount) VALUES ('Alice', 500), ('Dave', 700)",
    )
    .unwrap();
    // employees < zbonus lexicographically, so zbonus.emp_name is re-keyed.
    let r = p
        .execute("SELECT COUNT(*) FROM employees JOIN zbonus ON employees.name = zbonus.emp_name")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)));
    // Equality on the re-keyed column.
    let r = p
        .execute("SELECT amount FROM zbonus WHERE emp_name = 'Dave'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(700)));
    // Equality on the base column too.
    let r = p
        .execute("SELECT salary FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(60000)));
    // And inserts into the re-keyed column still join correctly.
    p.execute("INSERT INTO zbonus (emp_name, amount) VALUES ('Bob', 900)")
        .unwrap();
    let r = p
        .execute("SELECT COUNT(*) FROM employees JOIN zbonus ON employees.name = zbonus.emp_name")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn concurrent_mixed_workload_does_not_deadlock() {
    // Regression: UPDATE once re-acquired the schema read lock while
    // holding it, deadlocking as soon as a writer queued (parking_lot
    // read locks are not reentrant).
    use std::sync::Arc as SArc;
    let p = SArc::new(proxy());
    seeded(&p);
    let mut handles = Vec::new();
    for t in 0..4 {
        let p = SArc::clone(&p);
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                match (t + i) % 3 {
                    0 => {
                        p.execute("SELECT salary FROM employees WHERE name = 'Alice'")
                            .unwrap();
                    }
                    1 => {
                        p.execute(&format!(
                            "UPDATE employees SET dept = 'd{i}' WHERE id = {}",
                            [23, 2, 3, 4][i % 4]
                        ))
                        .unwrap();
                    }
                    _ => {
                        p.execute("SELECT COUNT(*) FROM employees WHERE salary > 60000")
                            .unwrap();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn seal_column_restores_rnd() {
    // §3.5.1 onion re-encryption: after an infrequent low-layer query,
    // the proxy can re-seal the column back to RND.
    let p = proxy();
    seeded(&p);
    p.execute("SELECT id FROM employees WHERE salary > 60000")
        .unwrap();
    let level =
        |col: &str| p.with_schema(|s| s.table("employees").unwrap().column(col).unwrap().min_enc());
    assert_eq!(level("salary"), SecLevel::Ope);
    let sealed = p.seal_column("employees", "salary").unwrap();
    assert_eq!(sealed, 4);
    assert_eq!(level("salary"), SecLevel::Rnd);
    // The data still answers queries correctly (peeling again on demand).
    let r = p
        .execute("SELECT name FROM employees WHERE salary > 60000 ORDER BY salary LIMIT 2")
        .unwrap();
    assert_eq!(strs(&r), vec!["Dave", "Carol"]);
    assert_eq!(level("salary"), SecLevel::Ope);
    // Sealing an equality-exposed text column works too.
    p.execute("SELECT id FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(level("name"), SecLevel::Det);
    p.seal_column("employees", "name").unwrap();
    assert_eq!(level("name"), SecLevel::Rnd);
    let r = p
        .execute("SELECT id FROM employees WHERE name = 'Alice'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(23)));
}

#[test]
fn blinding_pool_refills_in_background_and_shuts_down_cleanly() {
    // §3.5.2 via the crypto runtime: draining the warm pool below its
    // low-water mark must trigger a *background* refill — no INSERT ever
    // generates a blinding factor inline — and dropping the proxy must
    // join the runtime threads without hanging (the test completing is
    // the shutdown assertion).
    let cfg = ProxyConfig {
        paillier_bits: 256,
        runtime_threads: 2,
        ..Default::default()
    };
    let p = Proxy::new(Arc::new(Engine::new()), [42u8; 32], cfg);
    p.execute("CREATE TABLE t (a int)").unwrap();
    p.precompute_hom(24);
    assert_eq!(p.hom_pool_len(), 24);
    // 22 single-row inserts each take one blinding factor: 24 → 2, all
    // below the proxy's low-water floor of 32, never dry.
    for i in 0..22 {
        p.execute(&format!("INSERT INTO t (a) VALUES ({i})"))
            .unwrap();
    }
    p.hom_pool_wait_ready();
    let stats = p.hom_pool_stats();
    assert!(stats.async_refills >= 1, "watermark refill must have run");
    assert_eq!(stats.sync_refills, 0, "no INSERT may generate inline");
    assert!(
        stats.len >= 32,
        "refill restored at least the low-water floor: {}",
        stats.len
    );
    // SUM exercises the pooled batch decryption path end to end.
    let r = p.execute("SELECT SUM(a) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int((0..22).sum())));
    drop(p);
}

#[test]
fn warm_ope_prewalks_the_column_cache() {
    let p = proxy();
    p.execute("CREATE TABLE m (v int)").unwrap();
    let values: Vec<i64> = (0..48).map(|i| i * 37 - 100).collect();
    // Warm on the runtime pool and wait for the walk to finish.
    let warmed = p.warm_ope("m", "v", &values).unwrap().join();
    assert_eq!(warmed, values.len());
    // The warmed values insert and range-query correctly (hits go
    // through the same per-column cache the warmer populated).
    for v in &values[..8] {
        p.execute(&format!("INSERT INTO m (v) VALUES ({v})"))
            .unwrap();
    }
    let r = p
        .execute("SELECT v FROM m WHERE v > -100 ORDER BY v LIMIT 3")
        .unwrap();
    assert_eq!(
        r.rows()
            .iter()
            .map(|row| row[0].clone())
            .collect::<Vec<_>>(),
        vec![Value::Int(-63), Value::Int(-26), Value::Int(11)]
    );
    // Unknown columns are reported, not warmed.
    assert!(p.warm_ope("m", "nope", &values).is_err());
}

#[test]
fn training_emits_hot_values_and_warms_ope_cache() {
    // Train on one proxy (dev), warm a second proxy (prod, same master
    // key) from the report: the trained hot INSERT literals must land in
    // the production OPE cache *before* any query touches the column,
    // and inserting a hot value afterwards must be served from cache.
    let trainer = proxy();
    let mut trace: Vec<String> =
        vec!["CREATE TABLE orders (id int, qty int, note text)".to_string()];
    // Hot values 7 and 42 (many inserts), cold values once each.
    for i in 0..6 {
        trace.push(format!(
            "INSERT INTO orders (id, qty, note) VALUES ({i}, 7, 'x')"
        ));
        trace.push(format!(
            "INSERT INTO orders (id, qty, note) VALUES ({}, 42, 'y')",
            100 + i
        ));
    }
    trace.push("INSERT INTO orders (id, qty, note) VALUES (900, 1234, 'z')".to_string());
    let trace_refs: Vec<&str> = trace.iter().map(String::as_str).collect();
    let report = trainer.train(&trace_refs).unwrap();
    let qty_hot = report
        .hot_values
        .get(&("orders".to_string(), "qty".to_string()))
        .expect("trainer must emit a hot set for orders.qty");
    // Most-frequent first: 7 and 42 (6 each, tie broken by value) ahead
    // of the one-off 1234.
    assert_eq!(&qty_hot[..2], &[7, 42]);
    assert!(qty_hot.contains(&1234));
    assert!(report
        .hot_values
        .contains_key(&("orders".to_string(), "id".to_string())));

    // Fresh proxy, same master key: warm from the report.
    let prod = proxy();
    prod.execute("CREATE TABLE orders (id int, qty int, note text)")
        .unwrap();
    assert_eq!(prod.ope_cached_results("orders", "qty").unwrap(), 0);
    let warmed = prod.warm_ope_from_training(&report).unwrap();
    assert!(warmed > 0, "warming must walk at least the qty hot set");
    let cached_after_warm = prod.ope_cached_results("orders", "qty").unwrap();
    assert!(
        cached_after_warm >= qty_hot.len(),
        "hot set not in cache: {cached_after_warm} < {}",
        qty_hot.len()
    );

    // An INSERT of a hot value must *hit* the cache: the memoised result
    // count stays flat (a miss would add a new entry).
    prod.execute("INSERT INTO orders (id, qty, note) VALUES (1, 7, 'hot')")
        .unwrap();
    assert_eq!(
        prod.ope_cached_results("orders", "qty").unwrap(),
        cached_after_warm,
        "post-training warm must make hot INSERTs cache hits"
    );
    // Sanity: the warmed cache produces the same ciphertext ordering.
    let r = prod
        .execute("SELECT id FROM orders WHERE qty > 5 ORDER BY qty")
        .unwrap();
    assert_eq!(r.rows().len(), 1);
}

/// The schema epoch plus every column's MinEnc: what a refused statement
/// must leave exactly as it found it.
type OnionState = (u64, Vec<(String, String, SecLevel)>);

fn onion_state(p: &Proxy) -> OnionState {
    let mut levels: Vec<_> = p.with_schema(|s| {
        s.tables()
            .flat_map(|t| {
                t.columns
                    .iter()
                    .map(|c| (t.name.clone(), c.name.clone(), c.min_enc()))
            })
            .collect()
    });
    levels.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    (p.schema_epoch(), levels)
}

/// Runs `sql`, which must be refused with the variant `want` names, and
/// reports (rather than panics on) any way the refusal went wrong — the
/// table test below lists every failing case at once.
fn refusal_problem(p: &Proxy, sql: &str, want: &str) -> Option<String> {
    let before = onion_state(p);
    let got = match p.execute(sql) {
        Ok(_) => return Some(format!("{sql}: ran, expected {want}")),
        Err(ProxyError::NeedsPlaintext(_)) => "NeedsPlaintext",
        Err(ProxyError::PolicyViolation(_)) => "PolicyViolation",
        Err(e) => return Some(format!("{sql}: expected {want}, got {e}")),
    };
    if got != want {
        return Some(format!("{sql}: expected {want}, got {got}"));
    }
    let after = onion_state(p);
    (after != before).then(|| format!("{sql}: refused, yet adjusted {before:?} -> {after:?}"))
}

/// A table with `s` encrypted and `a`, `b` plaintext.
fn partial_proxy() -> Proxy {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        policy: EncryptionPolicy::Explicit(
            [("t".to_string(), vec!["s".to_string()])]
                .into_iter()
                .collect(),
        ),
        ..Default::default()
    };
    let p = Proxy::new(Arc::new(Engine::new()), [5u8; 32], cfg);
    p.execute(PARTIAL_TABLE).unwrap();
    p
}

const PARTIAL_TABLE: &str = "CREATE TABLE t (s int, a int, b int); \
     INSERT INTO t (s, a, b) VALUES (5, 3, 2), (5, 4, 4), (6, 9, 8), (7, 1, 0)";

#[test]
fn refused_statements_adjust_no_onion() {
    let mut problems = Vec::new();

    let p = proxy();
    seeded(&p);
    p.execute(
        "CREATE TABLE depts (dname text, floor int); \
         INSERT INTO depts (dname, floor) VALUES ('sales', 1), ('eng', 3)",
    )
    .unwrap();
    // Each refused clause rides behind `id = 2`, which alone would
    // lower `id` to DET: the refusal must win before any adjustment.
    for (sql, want) in [
        // Function over an encrypted column.
        (
            "SELECT name FROM employees WHERE id = 2 AND LOWER(name) = 'bob'",
            "NeedsPlaintext",
        ),
        (
            "SELECT UPPER(name) FROM employees WHERE id = 2",
            "NeedsPlaintext",
        ),
        // Arithmetic in a predicate.
        (
            "SELECT name FROM employees WHERE id = 2 AND salary + 1 > 60000",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND salary > id * 2 + 10",
            "NeedsPlaintext",
        ),
        // Non-word LIKE.
        (
            "SELECT name FROM employees WHERE id = 2 AND name LIKE 'Al%ce'",
            "NeedsPlaintext",
        ),
        // LIKE / IN / BETWEEN over an expression or with column bounds.
        (
            "SELECT name FROM employees WHERE id = 2 AND LOWER(name) LIKE '%bob%'",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND name LIKE dept",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND salary + 1 IN (1, 2)",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND salary IN (id, 2)",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND salary + 1 BETWEEN 1 AND 9",
            "NeedsPlaintext",
        ),
        (
            "SELECT name FROM employees WHERE id = 2 AND salary BETWEEN id AND 70000",
            "NeedsPlaintext",
        ),
        // Range join outside a declared OPE group.
        (
            "SELECT e.name FROM employees e, depts d WHERE e.id = 2 AND e.salary < d.floor",
            "NeedsPlaintext",
        ),
        // HAVING over SUM.
        (
            "SELECT dept FROM employees WHERE id = 2 GROUP BY dept HAVING SUM(salary) > 5",
            "NeedsPlaintext",
        ),
        // ORDER BY over an encrypted expression with LIMIT.
        (
            "SELECT name FROM employees WHERE id = 2 ORDER BY salary + 1 LIMIT 2",
            "NeedsPlaintext",
        ),
        // GROUP BY over an encrypted expression.
        (
            "SELECT COUNT(*) FROM employees WHERE id = 2 GROUP BY salary + 1",
            "NeedsPlaintext",
        ),
        // A constant the rewriter cannot fold, on an encrypted column.
        (
            "SELECT name FROM employees WHERE id = 2 AND name = 1 / 0",
            "NeedsPlaintext",
        ),
    ] {
        problems.extend(refusal_problem(&p, sql, want));
    }

    // Leak: a floor refuses the range half of the statement; the
    // equality half must not have lowered `id` first.
    let floored = proxy();
    seeded(&floored);
    floored
        .set_min_level("employees", "salary", SecLevel::Det)
        .unwrap();
    problems.extend(refusal_problem(
        &floored,
        "SELECT name FROM employees WHERE id = 2 AND salary > 5",
        "PolicyViolation",
    ));

    // Encrypted-vs-plaintext column comparison.
    let partial = partial_proxy();
    problems.extend(refusal_problem(
        &partial,
        "SELECT a FROM t WHERE s = 5 AND s = a",
        "NeedsPlaintext",
    ));
    // Leak: a plaintext comparison the engine can answer must not be
    // refused after the encrypted half lowered `s`; if it is refused at
    // all, nothing may have moved.
    let sql = "SELECT a FROM t WHERE s = 5 AND a = b + 1";
    let before = onion_state(&partial);
    if let Err(e) = partial.execute(sql) {
        let after = onion_state(&partial);
        if after != before {
            problems.push(format!(
                "{sql}: refused ({e}), yet adjusted {before:?} -> {after:?}"
            ));
        }
    }

    // Join on a discarded JOIN layer: `lonely` is empty when the unused
    // layers are dropped, so its columns lose their JOIN-ADJ tags.
    let p = proxy();
    seeded(&p);
    p.execute("CREATE TABLE lonely (k int, v text)").unwrap();
    assert!(p.discard_unused_join_layers() > 0);
    problems.extend(refusal_problem(
        &p,
        "SELECT e.id FROM employees e, lonely l WHERE e.id = 2 AND e.name = l.v",
        "PolicyViolation",
    ));

    // Join on a per-principal column.
    p.execute(
        "PRINCTYPE msg; \
         CREATE TABLE pm (msgid int, body text ENC FOR (msgid msg))",
    )
    .unwrap();
    problems.extend(refusal_problem(
        &p,
        "SELECT e.id FROM employees e, pm m WHERE e.id = 2 AND e.name = m.body",
        "NeedsPlaintext",
    ));

    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn plaintext_expression_comparisons_run() {
    let p = partial_proxy();
    let plain = Engine::new();
    plain
        .execute_sql("CREATE TABLE t (s int, a int, b int)")
        .unwrap();
    plain
        .execute_sql(PARTIAL_TABLE.split_once("; ").unwrap().1)
        .unwrap();
    for sql in [
        "SELECT s, a FROM t WHERE a = b + 1 ORDER BY a",
        "SELECT s, a FROM t WHERE b + 1 = a ORDER BY a",
        "SELECT a FROM t WHERE s = 5 AND a = b + 1",
    ] {
        let want = plain.execute_sql(sql).unwrap();
        let got = p.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(got.rows(), want.rows(), "{sql}");
        assert!(!got.rows().is_empty(), "{sql}: the fixture must match rows");
    }
}

#[test]
fn steady_state_select_takes_only_the_read_lock() {
    use std::sync::mpsc;
    use std::time::Duration;
    let p = Arc::new(proxy());
    seeded(&p);
    let sql = "SELECT name FROM employees WHERE id = 2";
    let epoch = p.schema_epoch();
    p.execute(sql).unwrap();
    assert_eq!(p.schema_epoch(), epoch + 1, "the warm-up lowers id once");
    for _ in 0..3 {
        p.execute(sql).unwrap();
    }
    assert_eq!(p.schema_epoch(), epoch + 1, "repeats adjust nothing");
    let (tx, rx) = mpsc::channel();
    let worker = {
        let p = Arc::clone(&p);
        std::thread::spawn(move || {
            let _ = tx.send(p.execute(sql).map(|r| r.rows().to_vec()));
        })
    };
    // Hold a schema read guard while the repeat runs: a statement that
    // needs no adjustment must not queue for the write lock behind it.
    let got = p.with_schema(|_| rx.recv_timeout(Duration::from_secs(5)));
    worker.join().unwrap();
    let rows = got
        .expect("steady-state SELECT blocked behind a schema read guard")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Str("Bob".into())]]);
    assert_eq!(p.schema_epoch(), epoch + 1);
}

#[test]
fn training_attributes_needs_to_the_columns_the_walk_resolved() {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        policy: EncryptionPolicy::Explicit(
            [
                (
                    "orders".to_string(),
                    vec!["amount".into(), "note".into(), "label".into()],
                ),
                ("patient_data".to_string(), vec!["dob".into()]),
            ]
            .into_iter()
            .collect(),
        ),
        ..Default::default()
    };
    let p = Proxy::new(Arc::new(Engine::new()), [3u8; 32], cfg);
    let report = p
        .train(&[
            "CREATE TABLE orders (id int, amount int, note text, label text)",
            "INSERT INTO orders (id, amount, note, label) VALUES (1, 10, 'n', 'red apple')",
            "CREATE TABLE patient_data (pid int, dob int)",
            "INSERT INTO patient_data (pid, dob) VALUES (1, 19700101)",
            "SELECT SUM(o.amount) FROM orders o",
            "SELECT id FROM orders WHERE label LIKE 'red apple'",
            "SELECT UPPER(o.note) FROM orders o",
            "SELECT pid FROM patient_data WHERE YEAR(dob) = 1970",
        ])
        .unwrap();
    let col = |t: &str, c: &str| {
        report
            .columns
            .iter()
            .find(|r| r.table == t && r.column == c)
            .unwrap_or_else(|| panic!("{t}.{c} missing from the report"))
            .clone()
    };
    assert!(col("orders", "amount").needs_hom, "SUM through an alias");
    let label = col("orders", "label");
    assert!(!label.needs_search, "an exact-match LIKE runs on DET");
    assert_eq!(label.min_enc, SecLevel::Det);
    assert!(
        col("orders", "note").needs_plaintext,
        "UPPER through an alias"
    );
    assert!(col("patient_data", "dob").needs_plaintext);
    let marked: Vec<String> = report
        .columns
        .iter()
        .filter(|c| c.needs_plaintext)
        .map(|c| format!("{}.{}", c.table, c.column))
        .collect();
    assert_eq!(marked, vec!["orders.note", "patient_data.dob"]);
    assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
}
