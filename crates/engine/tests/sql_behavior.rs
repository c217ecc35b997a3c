//! End-to-end SQL behaviour tests for the engine.

use cryptdb_engine::{AggregateUdf, Engine, QueryResult, Value};
use std::sync::Arc;

fn db() -> Engine {
    let e = Engine::new();
    e.execute_sql(
        "CREATE TABLE emp (id int, name text, dept text, salary int); \
         CREATE INDEX ON emp (id); \
         CREATE INDEX ON emp (salary); \
         INSERT INTO emp (id, name, dept, salary) VALUES \
           (1, 'alice', 'sales', 60000), \
           (2, 'bob', 'sales', 55000), \
           (3, 'carol', 'eng', 80000), \
           (4, 'dave', 'eng', 75000), \
           (5, 'eve', 'hr', 50000)",
    )
    .unwrap();
    e.execute_sql(
        "CREATE TABLE dept (dname text, budget int); \
         INSERT INTO dept (dname, budget) VALUES ('sales', 100), ('eng', 200), ('hr', 50)",
    )
    .unwrap();
    e
}

fn ints(r: &QueryResult) -> Vec<i64> {
    r.rows()
        .iter()
        .map(|row| row[0].as_int().unwrap())
        .collect()
}

fn strs(r: &QueryResult) -> Vec<String> {
    r.rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn point_select_with_index() {
    let e = db();
    let r = e.execute_sql("SELECT name FROM emp WHERE id = 3").unwrap();
    assert_eq!(strs(&r), vec!["carol"]);
}

#[test]
fn range_select() {
    let e = db();
    let r = e
        .execute_sql("SELECT name FROM emp WHERE salary > 60000 ORDER BY salary")
        .unwrap();
    assert_eq!(strs(&r), vec!["dave", "carol"]);
    let r = e
        .execute_sql("SELECT name FROM emp WHERE salary BETWEEN 55000 AND 75000 ORDER BY name")
        .unwrap();
    assert_eq!(strs(&r), vec!["alice", "bob", "dave"]);
}

#[test]
fn aggregates() {
    let e = db();
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(5))
    );
    assert_eq!(
        e.execute_sql("SELECT SUM(salary) FROM emp")
            .unwrap()
            .scalar(),
        Some(&Value::Int(320_000))
    );
    assert_eq!(
        e.execute_sql("SELECT MIN(salary) FROM emp")
            .unwrap()
            .scalar(),
        Some(&Value::Int(50_000))
    );
    assert_eq!(
        e.execute_sql("SELECT MAX(salary) FROM emp")
            .unwrap()
            .scalar(),
        Some(&Value::Int(80_000))
    );
    assert_eq!(
        e.execute_sql("SELECT AVG(salary) FROM emp")
            .unwrap()
            .scalar(),
        Some(&Value::Int(64_000))
    );
}

#[test]
fn group_by_having() {
    let e = db();
    let r = e
        .execute_sql(
            "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept \
             HAVING COUNT(*) > 1 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][0], Value::Str("eng".into()));
    assert_eq!(r.rows()[0][2], Value::Int(155_000));
    assert_eq!(r.rows()[1][0], Value::Str("sales".into()));
}

#[test]
fn explicit_join() {
    let e = db();
    let r = e
        .execute_sql(
            "SELECT emp.name, dept.budget FROM emp JOIN dept ON emp.dept = dept.dname \
             WHERE dept.budget >= 100 ORDER BY emp.name",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 4);
    assert_eq!(r.rows()[0][0], Value::Str("alice".into()));
    assert_eq!(r.rows()[0][1], Value::Int(100));
}

#[test]
fn implicit_join() {
    let e = db();
    let r = e
        .execute_sql(
            "SELECT COUNT(*) FROM emp, dept WHERE emp.dept = dept.dname AND dept.budget > 60",
        )
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(4)));
}

#[test]
fn self_join_with_aliases() {
    let e = db();
    let r = e
        .execute_sql(
            "SELECT a.name FROM emp a, emp b \
             WHERE a.dept = b.dept AND a.id <> b.id ORDER BY a.name",
        )
        .unwrap();
    assert_eq!(strs(&r), vec!["alice", "bob", "carol", "dave"]);
}

#[test]
fn distinct_and_limit() {
    let e = db();
    let r = e
        .execute_sql("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2")
        .unwrap();
    assert_eq!(strs(&r), vec!["eng", "hr"]);
}

#[test]
fn order_by_desc_and_alias() {
    let e = db();
    let r = e
        .execute_sql("SELECT name, salary AS s FROM emp ORDER BY s DESC LIMIT 3")
        .unwrap();
    assert_eq!(
        r.rows()
            .iter()
            .map(|r| r[1].as_int().unwrap())
            .collect::<Vec<_>>(),
        vec![80000, 75000, 60000]
    );
}

#[test]
fn update_and_delete() {
    let e = db();
    let r = e
        .execute_sql("UPDATE emp SET salary = salary + 1000 WHERE dept = 'sales'")
        .unwrap();
    assert_eq!(r, QueryResult::Affected(2));
    assert_eq!(
        e.execute_sql("SELECT salary FROM emp WHERE id = 1")
            .unwrap()
            .scalar(),
        Some(&Value::Int(61_000))
    );
    let r = e
        .execute_sql("DELETE FROM emp WHERE salary < 52000")
        .unwrap();
    assert_eq!(r, QueryResult::Affected(1));
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(4))
    );
}

#[test]
fn like_predicate() {
    let e = db();
    let r = e
        .execute_sql("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name")
        .unwrap();
    assert_eq!(strs(&r), vec!["alice", "carol", "dave"]);
    let r = e
        .execute_sql("SELECT name FROM emp WHERE name LIKE '_ob'")
        .unwrap();
    assert_eq!(strs(&r), vec!["bob"]);
}

#[test]
fn in_list_and_not() {
    let e = db();
    let r = e
        .execute_sql("SELECT id FROM emp WHERE dept IN ('sales', 'hr') ORDER BY id")
        .unwrap();
    assert_eq!(ints(&r), vec![1, 2, 5]);
    let r = e
        .execute_sql("SELECT id FROM emp WHERE dept NOT IN ('sales', 'hr') ORDER BY id")
        .unwrap();
    assert_eq!(ints(&r), vec![3, 4]);
}

#[test]
fn null_semantics() {
    let e = Engine::new();
    e.execute_sql("CREATE TABLE t (a int, b int)").unwrap();
    e.execute_sql("INSERT INTO t (a, b) VALUES (1, 10), (2, NULL), (3, 30)")
        .unwrap();
    // NULL comparisons never match.
    let r = e.execute_sql("SELECT a FROM t WHERE b = NULL").unwrap();
    assert!(r.rows().is_empty());
    let r = e.execute_sql("SELECT a FROM t WHERE b > 5").unwrap();
    assert_eq!(ints(&r), vec![1, 3]);
    let r = e.execute_sql("SELECT a FROM t WHERE b IS NULL").unwrap();
    assert_eq!(ints(&r), vec![2]);
    let r = e
        .execute_sql("SELECT a FROM t WHERE b IS NOT NULL ORDER BY a")
        .unwrap();
    assert_eq!(ints(&r), vec![1, 3]);
    // Aggregates skip NULLs; COUNT(*) does not.
    assert_eq!(
        e.execute_sql("SELECT COUNT(b) FROM t").unwrap().scalar(),
        Some(&Value::Int(2))
    );
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Int(3))
    );
    assert_eq!(
        e.execute_sql("SELECT SUM(b) FROM t").unwrap().scalar(),
        Some(&Value::Int(40))
    );
}

#[test]
fn transactions_rollback() {
    let e = db();
    e.execute_sql("BEGIN").unwrap();
    e.execute_sql("DELETE FROM emp").unwrap();
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(0))
    );
    e.execute_sql("ROLLBACK").unwrap();
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(5))
    );
    e.execute_sql("BEGIN").unwrap();
    e.execute_sql("DELETE FROM emp WHERE id = 1").unwrap();
    e.execute_sql("COMMIT").unwrap();
    assert_eq!(
        e.execute_sql("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(4))
    );
}

#[test]
fn scalar_udf_in_where_and_set() {
    let e = db();
    e.register_scalar_udf("plus_one", |args| {
        Ok(Value::Int(args[0].as_int().unwrap_or(0) + 1))
    });
    let r = e
        .execute_sql("SELECT name FROM emp WHERE PLUS_ONE(id) = 4")
        .unwrap();
    assert_eq!(strs(&r), vec!["carol"]);
    e.execute_sql("UPDATE emp SET salary = PLUS_ONE(salary) WHERE id = 1")
        .unwrap();
    assert_eq!(
        e.execute_sql("SELECT salary FROM emp WHERE id = 1")
            .unwrap()
            .scalar(),
        Some(&Value::Int(60_001))
    );
}

#[test]
fn aggregate_udf() {
    let e = db();
    e.register_aggregate_udf(
        "product",
        AggregateUdf {
            init: Value::Int(1),
            step: Arc::new(|acc, v| {
                Ok(Value::Int(acc.as_int().unwrap() * v.as_int().unwrap_or(1)))
            }),
        },
    );
    let r = e.execute_sql("SELECT PRODUCT(budget) FROM dept").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(100 * 200 * 50)));
}

#[test]
fn builtin_string_and_date_functions() {
    let e = Engine::new();
    e.execute_sql("CREATE TABLE ev (name text, day int)")
        .unwrap();
    e.execute_sql("INSERT INTO ev (name, day) VALUES ('Standup', 20260611), ('Review', 20251224)")
        .unwrap();
    let r = e
        .execute_sql("SELECT LOWER(name) FROM ev WHERE YEAR(day) = 2026")
        .unwrap();
    assert_eq!(strs(&r), vec!["standup"]);
    let r = e
        .execute_sql("SELECT name FROM ev WHERE MONTH(day) = 12")
        .unwrap();
    assert_eq!(strs(&r), vec!["Review"]);
    let r = e
        .execute_sql("SELECT SUBSTR(name, 1, 3) FROM ev ORDER BY day")
        .unwrap();
    assert_eq!(strs(&r), vec!["Rev", "Sta"]);
}

#[test]
fn multi_row_insert_and_wildcard() {
    let e = db();
    let r = e.execute_sql("SELECT * FROM dept ORDER BY budget").unwrap();
    let QueryResult::Rows { columns, rows } = r else {
        panic!()
    };
    assert_eq!(columns, vec!["dname", "budget"]);
    assert_eq!(rows.len(), 3);
}

#[test]
fn errors() {
    let e = db();
    assert!(e.execute_sql("SELECT * FROM missing").is_err());
    assert!(e.execute_sql("SELECT nocol FROM emp").is_err());
    assert!(e.execute_sql("CREATE TABLE emp (x int)").is_err());
    assert!(e.execute_sql("ROLLBACK").is_err());
    assert!(e.execute_sql("SELECT NOSUCHFUNC(id) FROM emp").is_err());
}

#[test]
fn group_by_with_expression_key() {
    let e = db();
    let r = e
        .execute_sql("SELECT salary / 10000, COUNT(*) FROM emp GROUP BY salary / 10000 ORDER BY salary / 10000")
        .unwrap();
    // Buckets: 5 (50k, 55k), 6 (60k), 7 (75k), 8 (80k).
    assert_eq!(r.rows().len(), 4);
    assert_eq!(r.rows()[0][1], Value::Int(2));
}

#[test]
fn concurrent_reads_and_writes() {
    let e = Arc::new(db());
    let mut handles = Vec::new();
    for t in 0..4 {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                if t % 2 == 0 {
                    e.execute_sql("SELECT COUNT(*) FROM emp").unwrap();
                } else {
                    e.execute_sql(&format!(
                        "INSERT INTO dept (dname, budget) VALUES ('d{t}_{i}', {i})"
                    ))
                    .unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let r = e.execute_sql("SELECT COUNT(*) FROM dept").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3 + 100)));
}

#[test]
fn canonical_text_is_order_insensitive() {
    let e = db();
    // Same rows inserted in different orders must dump identically;
    // different content must not.
    let a = e
        .execute_sql("SELECT name, salary FROM emp ORDER BY salary")
        .unwrap();
    let b = e
        .execute_sql("SELECT name, salary FROM emp ORDER BY name")
        .unwrap();
    assert_eq!(a.canonical_text(), b.canonical_text());
    let c = e.execute_sql("SELECT name FROM emp").unwrap();
    assert_ne!(a.canonical_text(), c.canonical_text());
    // NULL, int, str and bytes all have distinct stable renderings.
    e.execute_sql("CREATE TABLE m (v int)").unwrap();
    e.execute_sql("INSERT INTO m (v) VALUES (NULL); INSERT INTO m (v) VALUES (7)")
        .unwrap();
    let d = e.execute_sql("SELECT v FROM m").unwrap();
    assert_eq!(d.canonical_text(), "7\nNULL");
}

/// `select_within` runs a one-table SELECT only if its scan — the index
/// probe, or the whole table when no index applies — visits at most the
/// cap; a `LIMIT` does not shrink the scan, and joins are refused.
#[test]
fn select_within_refuses_scans_over_the_cap() {
    let e = db();
    let within = |sql: &str, cap: usize| {
        let cryptdb_sqlparser::Stmt::Select(sel) = cryptdb_sqlparser::parse(sql).unwrap().remove(0)
        else {
            panic!("not a SELECT: {sql}");
        };
        e.select_within(&sel, cap).unwrap().map(|r| r.rows().len())
    };
    // Index equality probe: one candidate.
    assert_eq!(within("SELECT name FROM emp WHERE id = 3", 1), Some(1));
    // Index range probe: three candidates.
    let range = "SELECT name FROM emp WHERE salary > 56000";
    assert_eq!(within(range, 2), None);
    assert_eq!(within(range, 3), Some(3));
    // IN list over the id index: two candidates.
    assert_eq!(within("SELECT name FROM emp WHERE id IN (1, 2)", 1), None);
    assert_eq!(
        within("SELECT name FROM emp WHERE id IN (1, 2)", 2),
        Some(2)
    );
    // No index on dept: the whole five-row table is scanned.
    let scan = "SELECT name FROM emp WHERE dept = 'eng'";
    assert_eq!(within(scan, 4), None);
    assert_eq!(within(scan, 5), Some(2));
    assert_eq!(
        within("SELECT name FROM emp WHERE dept = 'eng' LIMIT 1", 4),
        None
    );
    let join = "SELECT name FROM emp JOIN dept ON emp.dept = dept.dname WHERE id = 1";
    assert_eq!(within(join, 1000), None);
}

/// Equi-joins on expressions hash-join: `F` runs once per row, not once
/// per pair, and every join returns the rows of the filtered Cartesian
/// product. That product is the same query with each equality written
/// `(L = R OR 0 = 1)`, which no join can use, so it filters pairs.
#[test]
fn expression_equi_joins_hash_join_and_match_the_cartesian_product() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let e = Engine::new();
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = calls.clone();
    e.register_scalar_udf("f", move |args| {
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(match args[0] {
            Value::Int(v) => Value::Int(v % 3),
            _ => Value::Null,
        })
    });
    let n = 20;
    let mut b_rows: Vec<String> = (0..n).map(|i| format!("({i}, {})", i * 10)).collect();
    b_rows.push("(NULL, -1)".into());
    e.execute_sql(&format!(
        "CREATE TABLE a (k int, tag text); INSERT INTO a (k, tag) VALUES (4, 'one'); \
         CREATE TABLE b (k int, v int); INSERT INTO b (k, v) VALUES {}",
        b_rows.join(", ")
    ))
    .unwrap();
    let rows = b_rows.len();
    calls.store(0, Ordering::Relaxed);
    let r = e
        .execute_sql("SELECT a.tag, b.v FROM a JOIN b ON F(a.k) = F(b.k)")
        .unwrap();
    // k % 3 == 1 for k in 0..20: 1, 4, ..., 19.
    assert_eq!(r.rows().len(), 7);
    let runs = calls.load(Ordering::Relaxed);
    assert!(runs <= rows + 1, "F ran {runs} times for 1 x {rows} rows");

    e.execute_sql(
        "CREATE TABLE l (id int, k int); \
         INSERT INTO l (id, k) VALUES (1, 1), (2, 4), (3, NULL), (4, 2), (5, 1), (6, 7); \
         CREATE TABLE r (id int, k int); \
         INSERT INTO r (id, k) VALUES (10, 1), (11, NULL), (12, 4), (13, 1), (14, 5), (15, 8); \
         CREATE TABLE s (id int, k int); \
         INSERT INTO s (id, k) VALUES (20, 10), (21, 11), (22, NULL), (23, 13), (24, 12)",
    )
    .unwrap();
    let sorted = |sql: &str| {
        let mut rows = e.execute_sql(sql).expect(sql).rows().to_vec();
        rows.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        rows
    };
    let cases: [(&str, &str, usize); 7] = [
        // NULL and duplicate keys, expression edge.
        (
            "SELECT l.id, r.id FROM l JOIN r ON F(l.k) = F(r.k)",
            "SELECT l.id, r.id FROM l JOIN r ON (F(l.k) = F(r.k) OR 0 = 1)",
            14,
        ),
        // NULL and duplicate keys, column edge.
        (
            "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k",
            "SELECT l.id, r.id FROM l JOIN r ON (l.k = r.k OR 0 = 1)",
            5,
        ),
        // Aliased self-join, explicit and implicit.
        (
            "SELECT x.id, y.id FROM l x JOIN l y ON F(x.k) = F(y.k)",
            "SELECT x.id, y.id FROM l x JOIN l y ON (F(x.k) = F(y.k) OR 0 = 1)",
            17,
        ),
        (
            "SELECT x.id, y.id FROM l x, l AS y WHERE F(x.k) = F(y.k) AND x.id <> y.id",
            "SELECT x.id, y.id FROM l x, l AS y WHERE (F(x.k) = F(y.k) OR 0 = 1) AND x.id <> y.id",
            12,
        ),
        // Three-way: a column edge, then an expression edge to the
        // second source and a column edge to the first.
        (
            "SELECT l.id, r.id, s.id FROM l JOIN r ON l.k = r.k \
             JOIN s ON F(r.id) = F(s.k) AND s.id - 19 = l.id",
            "SELECT l.id, r.id, s.id FROM l JOIN r ON (l.k = r.k OR 0 = 1) \
             JOIN s ON (F(r.id) = F(s.k) OR 0 = 1) AND (s.id - 19 = l.id OR 0 = 1)",
            2,
        ),
        // Expression edge between the first and third source only.
        (
            "SELECT l.id, s.id FROM l, r, s WHERE F(l.id) = F(s.k) AND r.id = 10",
            "SELECT l.id, s.id FROM l, r, s WHERE (F(l.id) = F(s.k) OR 0 = 1) AND r.id = 10",
            8,
        ),
        // `<>` is no equi-edge: it filters the product.
        (
            "SELECT l.id, r.id FROM l JOIN r ON l.k <> r.k",
            "SELECT l.id, r.id FROM l JOIN r ON (l.k <> r.k OR 0 = 1)",
            20,
        ),
    ];
    for (joined, product, len) in cases {
        let got = sorted(joined);
        assert_eq!(got.len(), len, "{joined}");
        assert_eq!(got, sorted(product), "{joined}");
    }
    // A `<>` ON clause stays a residual filter: evaluated per pair.
    calls.store(0, Ordering::Relaxed);
    sorted("SELECT l.id, r.id FROM l JOIN r ON F(l.k) <> F(r.k)");
    assert_eq!(calls.load(Ordering::Relaxed), 2 * 6 * 6);
}

/// Column and table references match the lowercase schema names in any
/// case.
#[test]
fn identifiers_resolve_case_insensitively() {
    let e = db();
    let r = e
        .execute_sql("SELECT EMP.Name FROM emp WHERE Emp.ID = 3 AND SALARY > 1")
        .unwrap();
    assert_eq!(strs(&r), vec!["carol"]);
    let r = e
        .execute_sql(
            "SELECT E.name, D.Budget FROM emp e JOIN dept d ON E.DEPT = d.DNAME WHERE e.Id = 5",
        )
        .unwrap();
    assert_eq!(r.rows(), &[vec![Value::Str("eve".into()), Value::Int(50)]]);
}
