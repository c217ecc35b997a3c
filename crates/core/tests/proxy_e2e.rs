//! End-to-end tests: full CryptDB pipeline over the embedded engine.

use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig, ProxyMode};
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
fn passthrough_mode_is_transparent() {
    let cfg = ProxyConfig {
        mode: ProxyMode::Passthrough,
        paillier_bits: 256,
        ..Default::default()
    };
    let p = Proxy::new(Arc::new(Engine::new()), [1u8; 32], cfg);
    p.execute("CREATE TABLE t (a int)").unwrap();
    p.execute("INSERT INTO t (a) VALUES (5)").unwrap();
    let r = p.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(5)));
    // Passthrough stores plaintext (it measures proxy overhead only).
    p.engine()
        .with_table("t", |t| {
            assert_eq!(t.iter().next().unwrap().1[0], Value::Int(5));
        })
        .unwrap();
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
