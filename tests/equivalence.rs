//! Semantic equivalence: every supported query must return the same
//! result through CryptDB as through the plaintext engine. This is the
//! paper's core functional claim — "the DBMS's query plan ... is
//! typically the same as for the original query" (§3) — checked over a
//! generated workload.

use cryptdb::core::proxy::{Proxy, ProxyConfig};
use cryptdb::core::ProxyError;
use cryptdb::engine::{Engine, EngineError, QueryResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Pair {
    plain: Engine,
    cryptdb: Proxy,
}

impl Pair {
    fn new(seed: u64) -> Self {
        let cfg = ProxyConfig {
            paillier_bits: 256,
            ..Default::default()
        };
        Pair {
            plain: Engine::new(),
            cryptdb: Proxy::new(Arc::new(Engine::new()), [seed as u8; 32], cfg),
        }
    }

    fn run_both(&self, sql: &str) -> (QueryResult, QueryResult) {
        let a = self.plain.execute_sql(sql).expect(sql);
        let b = self.cryptdb.execute(sql).expect(sql);
        (a, b)
    }

    /// Runs on both stacks and asserts result-set equality modulo row
    /// order (unordered queries may differ in order).
    fn check(&self, sql: &str, ordered: bool) {
        let (a, b) = self.run_both(sql);
        let (QueryResult::Rows { rows: mut ra, .. }, QueryResult::Rows { rows: mut rb, .. }) =
            (a, b)
        else {
            return;
        };
        if !ordered {
            ra.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            rb.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        }
        assert_eq!(ra, rb, "result mismatch for: {sql}");
    }
}

fn setup(seed: u64, rows: usize) -> Pair {
    let pair = Pair::new(seed);
    let ddl = "CREATE TABLE inv (id int, name text, qty int, price int, note text); \
               CREATE INDEX ON inv (id); CREATE INDEX ON inv (qty)";
    pair.plain.execute_sql(ddl).unwrap();
    pair.cryptdb.execute(ddl).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let words = ["red", "green", "blue", "heavy", "light"];
    for i in 0..rows {
        let name = format!("item{}", rng.gen_range(0..20));
        let qty = rng.gen_range(-5..50);
        let price = rng.gen_range(1..1000);
        let note = format!(
            "{} {} widget",
            words[rng.gen_range(0..words.len())],
            words[rng.gen_range(0..words.len())]
        );
        let stmt = format!(
            "INSERT INTO inv (id, name, qty, price, note) VALUES \
             ({i}, '{name}', {qty}, {price}, '{note}')"
        );
        pair.plain.execute_sql(&stmt).unwrap();
        pair.cryptdb.execute(&stmt).unwrap();
    }
    pair
}

#[test]
fn point_and_range_queries_agree() {
    let pair = setup(1, 60);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..25 {
        let id = rng.gen_range(0..60);
        pair.check(&format!("SELECT name, qty FROM inv WHERE id = {id}"), false);
        let lo = rng.gen_range(-5..25);
        pair.check(
            &format!("SELECT id FROM inv WHERE qty > {lo} AND qty <= {}", lo + 10),
            false,
        );
        pair.check(
            &format!(
                "SELECT id FROM inv WHERE price BETWEEN {lo} AND {}",
                lo + 300
            ),
            false,
        );
    }
}

#[test]
fn aggregates_agree() {
    let pair = setup(3, 80);
    for q in [
        "SELECT COUNT(*) FROM inv",
        "SELECT SUM(qty) FROM inv",
        "SELECT SUM(price) FROM inv WHERE qty > 10",
        "SELECT AVG(price) FROM inv",
        "SELECT MIN(qty) FROM inv",
        "SELECT MAX(price) FROM inv",
        "SELECT COUNT(DISTINCT name) FROM inv",
    ] {
        pair.check(q, false);
    }
}

#[test]
fn group_order_distinct_agree() {
    let pair = setup(4, 70);
    pair.check(
        "SELECT name, COUNT(*), SUM(qty) FROM inv GROUP BY name ORDER BY name",
        true,
    );
    pair.check("SELECT DISTINCT name FROM inv ORDER BY name", true);
    pair.check(
        "SELECT id, price FROM inv ORDER BY price DESC LIMIT 7",
        false, // Ties in price make the tail order ambiguous.
    );
    pair.check(
        "SELECT name FROM inv GROUP BY name HAVING COUNT(*) > 2 ORDER BY name",
        true,
    );
}

#[test]
fn search_and_in_agree() {
    let pair = setup(5, 50);
    pair.check("SELECT id FROM inv WHERE note LIKE '%heavy%'", false);
    pair.check("SELECT id FROM inv WHERE note LIKE '%red%'", false);
    pair.check("SELECT id FROM inv WHERE id IN (1, 5, 9, 13)", false);
    pair.check(
        "SELECT id FROM inv WHERE name NOT IN ('item1', 'item2')",
        false,
    );
}

#[test]
fn updates_and_deletes_agree() {
    let pair = setup(6, 50);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..12 {
        let id = rng.gen_range(0..50);
        let stmt = match rng.gen_range(0..4) {
            0 => format!(
                "UPDATE inv SET price = {} WHERE id = {id}",
                rng.gen_range(1..500)
            ),
            1 => format!(
                "UPDATE inv SET qty = qty + {} WHERE id = {id}",
                rng.gen_range(1..5)
            ),
            2 => format!("DELETE FROM inv WHERE id = {id}"),
            _ => format!(
                "INSERT INTO inv (id, name, qty, price, note) VALUES \
                 ({}, 'fresh', 1, 10, 'fresh note')",
                1000 + rng.gen_range(0..100)
            ),
        };
        let (a, b) = pair.run_both(&stmt);
        assert_eq!(a, b, "affected-rows mismatch for {stmt}");
        // Increment updates force the refresh path on the next compare.
        pair.check("SELECT id, qty FROM inv WHERE qty >= 0", false);
        pair.check("SELECT COUNT(*) FROM inv", false);
        pair.check("SELECT SUM(price) FROM inv", false);
    }
}

#[test]
fn joins_agree() {
    let pair = setup(8, 40);
    let ddl = "CREATE TABLE tags (item_name text, tag text)";
    pair.plain.execute_sql(ddl).unwrap();
    pair.cryptdb.execute(ddl).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..30 {
        let stmt = format!(
            "INSERT INTO tags (item_name, tag) VALUES ('item{}', 'tag{}')",
            rng.gen_range(0..20),
            i % 4
        );
        pair.plain.execute_sql(&stmt).unwrap();
        pair.cryptdb.execute(&stmt).unwrap();
    }
    pair.check(
        "SELECT inv.id, tags.tag FROM inv JOIN tags ON inv.name = tags.item_name",
        false,
    );
    pair.check(
        "SELECT COUNT(*) FROM inv, tags WHERE inv.name = tags.item_name AND inv.qty > 0",
        false,
    );
    // Implicit comma join returning sensitive columns of both sides.
    pair.check(
        "SELECT inv.price, inv.note, tags.tag FROM inv, tags \
         WHERE tags.item_name = inv.name AND inv.price > 300",
        false,
    );
    // The TPC-C shape: one order joined to its customer.
    let ddl = "CREATE TABLE orders (o_id int, o_c_id int, o_carrier int); \
               CREATE INDEX ON orders (o_id); \
               CREATE TABLE customer (c_id int, c_last text, c_balance int)";
    pair.plain.execute_sql(ddl).unwrap();
    pair.cryptdb.execute(ddl).unwrap();
    for i in 0..30 {
        let stmts = [
            format!(
                "INSERT INTO customer (c_id, c_last, c_balance) VALUES ({i}, 'last{}', {})",
                i % 7,
                i * 11
            ),
            format!(
                "INSERT INTO orders (o_id, o_c_id, o_carrier) VALUES ({i}, {}, {})",
                rng.gen_range(0..30),
                i % 5
            ),
        ];
        for stmt in &stmts {
            pair.plain.execute_sql(stmt).unwrap();
            pair.cryptdb.execute(stmt).unwrap();
        }
    }
    for o_id in [0, 7, 29] {
        pair.check(
            &format!(
                "SELECT c_last, c_balance, o_carrier FROM orders \
                 JOIN customer ON o_c_id = c_id WHERE o_id = {o_id}"
            ),
            false,
        );
    }
    // NULL join keys on both sides match nothing.
    for stmt in [
        "INSERT INTO orders (o_id, o_c_id, o_carrier) VALUES (100, NULL, 1)",
        "INSERT INTO customer (c_id, c_last, c_balance) VALUES (NULL, 'nobody', 5)",
    ] {
        pair.plain.execute_sql(stmt).unwrap();
        pair.cryptdb.execute(stmt).unwrap();
    }
    pair.check(
        "SELECT o_id, c_last FROM orders JOIN customer ON o_c_id = c_id",
        false,
    );
    pair.check(
        "SELECT COUNT(*) FROM orders JOIN customer ON o_c_id = c_id WHERE o_id = 100",
        false,
    );
}

#[test]
fn null_behaviour_agrees() {
    let pair = Pair::new(10);
    let ddl = "CREATE TABLE n (a int, b int)";
    pair.plain.execute_sql(ddl).unwrap();
    pair.cryptdb.execute(ddl).unwrap();
    let stmt = "INSERT INTO n (a, b) VALUES (1, 10), (2, NULL), (3, 30), (4, NULL)";
    pair.plain.execute_sql(stmt).unwrap();
    pair.cryptdb.execute(stmt).unwrap();
    for q in [
        "SELECT a FROM n WHERE b IS NULL",
        "SELECT a FROM n WHERE b IS NOT NULL",
        "SELECT COUNT(b) FROM n",
        "SELECT COUNT(*) FROM n",
        "SELECT SUM(b) FROM n",
        "SELECT a FROM n WHERE b > 5",
    ] {
        pair.check(q, false);
    }
}

/// `NULL + 1` is NULL: an increment UPDATE of a NULL cell must not store
/// 1 in the Add onion while the other onions still say NULL.
#[test]
fn null_increment_stays_null() {
    let pair = Pair::new(11);
    for stmt in [
        "CREATE TABLE t (id int, v int)",
        // Four non-NULL cells: once `v` is stale, `SELECT id, v` reads
        // them all from the Add onion.
        "INSERT INTO t (id, v) VALUES (1, NULL), (2, 5), (3, -7), (4, 0), (5, 9)",
        "UPDATE t SET v = v + 1 WHERE id = 1",
    ] {
        pair.run_both(stmt);
    }
    for q in [
        "SELECT id, v FROM t",
        "SELECT id FROM t WHERE v IS NULL",
        "SELECT COUNT(v) FROM t",
        "SELECT SUM(v) FROM t",
    ] {
        pair.check(q, false);
    }
}

/// `SUM` and `AVG` over no non-NULL value are NULL, not 0.
#[test]
fn sum_over_no_values_is_null() {
    let pair = Pair::new(12);
    for stmt in [
        "CREATE TABLE t (id int, g int, v int)",
        "INSERT INTO t (id, g, v) VALUES (1, 1, 4), (2, 1, 6), (3, 2, NULL), (4, 2, NULL)",
    ] {
        pair.run_both(stmt);
    }
    for q in [
        "SELECT SUM(v) FROM t WHERE id > 100",
        "SELECT g, SUM(v) FROM t GROUP BY g",
        "SELECT g, AVG(v) FROM t GROUP BY g",
    ] {
        pair.check(q, false);
    }
}

/// `SUM`/`AVG` past the 64-bit range fail on both paths (SQLSTATE 22003
/// on the wire) instead of wrapping on one and failing on the other.
#[test]
fn sum_overflow_is_out_of_range() {
    let pair = Pair::new(13);
    for stmt in [
        "CREATE TABLE t (id int, q int)".to_string(),
        format!("INSERT INTO t (id, q) VALUES (1, {}), (2, 42)", i64::MAX),
    ] {
        pair.run_both(&stmt);
    }
    for q in ["SELECT SUM(q) FROM t", "SELECT AVG(q) FROM t"] {
        let plain = pair.plain.execute_sql(q);
        assert!(
            matches!(plain, Err(EngineError::Overflow(_))),
            "{q}: {plain:?}"
        );
        let enc = pair.cryptdb.execute(q);
        assert!(
            matches!(enc, Err(ProxyError::OutOfRange(_))),
            "{q}: {enc:?}"
        );
    }
}
