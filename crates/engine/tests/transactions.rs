//! Transactions owned by sessions: each `Txn` handle has its own undo
//! log, row write locks make a second writer wait, and a wait that
//! cannot end fails with `Conflict` instead of hanging.

use cryptdb_engine::{Engine, EngineError, QueryResult, Txn, WalConfig, LOCK_WAIT};
use cryptdb_sqlparser::{parse, Stmt};
use std::sync::mpsc::channel;
use std::thread;
use std::time::{Duration, Instant};

fn stmt(sql: &str) -> Stmt {
    parse(sql).unwrap().remove(0)
}

fn run(e: &Engine, txn: &Txn, sql: &str) -> Result<QueryResult, EngineError> {
    e.execute_in(txn, &stmt(sql), None)
}

fn ints(e: &Engine, sql: &str) -> Vec<i64> {
    let mut v: Vec<i64> = e
        .execute_sql(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

fn accounts() -> Engine {
    let e = Engine::new();
    e.execute_sql(
        "CREATE TABLE acct (id int, bal int); CREATE INDEX ON acct (id); \
         INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200)",
    )
    .unwrap();
    e
}

#[test]
fn rollback_keeps_other_sessions_writes() {
    let e = accounts();
    let (a, b) = (Txn::new(), Txn::new());
    run(&e, &a, "BEGIN").unwrap();
    run(&e, &a, "INSERT INTO acct (id, bal) VALUES (3, 300)").unwrap();
    run(&e, &b, "INSERT INTO acct (id, bal) VALUES (4, 400)").unwrap();
    run(&e, &b, "UPDATE acct SET bal = 250 WHERE id = 2").unwrap();
    run(&e, &a, "ROLLBACK").unwrap();
    assert_eq!(ints(&e, "SELECT id FROM acct"), vec![1, 2, 4]);
    assert_eq!(ints(&e, "SELECT bal FROM acct WHERE id = 2"), vec![250]);
}

#[test]
fn write_to_a_locked_row_waits_for_its_transaction() {
    let e = accounts();
    let a = Txn::new();
    run(&e, &a, "BEGIN").unwrap();
    run(&e, &a, "UPDATE acct SET bal = bal + 5 WHERE id = 1").unwrap();
    // Reads never wait, and see the uncommitted write.
    assert_eq!(ints(&e, "SELECT bal FROM acct WHERE id = 1"), vec![105]);
    // A write to the other row does not wait.
    e.execute_sql("UPDATE acct SET bal = bal + 1 WHERE id = 2")
        .unwrap();
    thread::scope(|s| {
        let (tx, rx) = channel();
        let e = &e;
        s.spawn(move || {
            let b = Txn::new();
            let r = run(e, &b, "UPDATE acct SET bal = bal + 7 WHERE id = 1");
            tx.send(r).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "the second writer must wait for the row lock"
        );
        run(e, &a, "ROLLBACK").unwrap();
        let r = rx.recv_timeout(LOCK_WAIT).expect("the waiter resumes");
        assert_eq!(r, Ok(QueryResult::Affected(1)));
    });
    assert_eq!(ints(&e, "SELECT bal FROM acct"), vec![107, 201]);
}

#[test]
fn opposite_lock_order_fails_one_writer_and_commits_the_other() {
    let e = accounts();
    let (a, b) = (Txn::new(), Txn::new());
    run(&e, &a, "BEGIN").unwrap();
    run(&e, &b, "BEGIN").unwrap();
    run(&e, &a, "UPDATE acct SET bal = bal + 1 WHERE id = 1").unwrap();
    run(&e, &b, "UPDATE acct SET bal = bal + 10 WHERE id = 2").unwrap();
    let t0 = Instant::now();
    // Each now writes the other's row: whichever waits second closes
    // the cycle and fails, which aborts it and frees the first.
    let (ra, rb) = thread::scope(|s| {
        let wa = s.spawn(|| run(&e, &a, "UPDATE acct SET bal = bal + 1 WHERE id = 2"));
        let rb = run(&e, &b, "UPDATE acct SET bal = bal + 10 WHERE id = 1");
        (wa.join().unwrap(), rb)
    });
    assert!(
        t0.elapsed() < LOCK_WAIT,
        "resolved without waiting out the bound"
    );
    let (winner, loser, want) = match (&ra, &rb) {
        (Ok(_), Err(EngineError::Conflict(_))) => (&a, &b, vec![101, 201]),
        (Err(EngineError::Conflict(_)), Ok(_)) => (&b, &a, vec![110, 210]),
        other => panic!("exactly one writer must fail with a conflict: {other:?}"),
    };
    assert_eq!(
        run(&e, loser, "INSERT INTO acct (id, bal) VALUES (9, 9)"),
        Err(EngineError::TxnAborted),
        "an aborted block refuses writes"
    );
    run(&e, loser, "ROLLBACK").unwrap();
    run(&e, winner, "COMMIT").unwrap();
    assert_eq!(ints(&e, "SELECT bal FROM acct"), want);
}

#[test]
fn a_lock_held_past_the_bound_fails_the_waiter() {
    let e = accounts();
    let a = Txn::new();
    run(&e, &a, "BEGIN").unwrap();
    run(&e, &a, "UPDATE acct SET bal = 1 WHERE id = 1").unwrap();
    let t0 = Instant::now();
    let r = e.execute_sql("UPDATE acct SET bal = 0");
    assert!(matches!(r, Err(EngineError::Conflict(_))), "{r:?}");
    assert!(t0.elapsed() >= LOCK_WAIT);
    // The failed autocommit statement changed nothing.
    assert_eq!(ints(&e, "SELECT bal FROM acct"), vec![1, 200]);
    run(&e, &a, "ROLLBACK").unwrap();
    assert_eq!(ints(&e, "SELECT bal FROM acct"), vec![100, 200]);
}

#[test]
fn onion_adjustment_refuses_columns_an_open_transaction_wrote() {
    let e = accounts();
    let a = Txn::new();
    let adjust = |col: &str| {
        let Stmt::Update(upd) = stmt(&format!("UPDATE acct SET {col} = {col}")) else {
            unreachable!()
        };
        e.execute_adjustment(&[upd], &[], None)
    };
    run(&e, &a, "BEGIN").unwrap();
    run(&e, &a, "UPDATE acct SET bal = 1 WHERE id = 1").unwrap();
    assert!(matches!(adjust("bal"), Err(EngineError::Conflict(_))));
    // Other columns of the same rows adjust, ignoring the row locks.
    assert_eq!(adjust("id"), Ok(QueryResult::Affected(2)));
    run(&e, &a, "COMMIT").unwrap();
    assert_eq!(adjust("bal"), Ok(QueryResult::Affected(2)));
}

#[test]
fn snapshot_waits_for_transactions_that_wrote() {
    let dir = std::env::temp_dir().join(format!("cryptdb-engine-txn-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Engine::new();
    e.attach_wal(&dir, WalConfig::default()).unwrap();
    e.execute_sql("CREATE TABLE t (x int)").unwrap();
    let a = Txn::new();
    run(&e, &a, "BEGIN").unwrap();
    assert!(e.snapshot_now().unwrap().is_some(), "nothing written yet");
    run(&e, &a, "INSERT INTO t (x) VALUES (1)").unwrap();
    assert_eq!(e.snapshot_now().unwrap(), None);
    run(&e, &a, "COMMIT").unwrap();
    assert!(e.snapshot_now().unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BEGIN` copies nothing: an empty `BEGIN`/`COMMIT` costs the same on
/// a 20 000-row catalog as on a 10-row one.
#[test]
fn begin_commit_cost_is_flat_in_table_size() {
    let cost = |rows: usize| {
        let e = Engine::new();
        e.execute_sql("CREATE TABLE t (id int, v text)").unwrap();
        for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
            let values: Vec<String> = chunk.iter().map(|i| format!("({i}, 'row')")).collect();
            e.execute_sql(&format!(
                "INSERT INTO t (id, v) VALUES {}",
                values.join(", ")
            ))
            .unwrap();
        }
        let (begin, commit) = (stmt("BEGIN"), stmt("COMMIT"));
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..200 {
                    e.execute(&begin).unwrap();
                    e.execute(&commit).unwrap();
                }
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let small = cost(10);
    let large = cost(20_000);
    assert!(
        large < small * 3 + Duration::from_millis(5),
        "200 BEGIN/COMMIT pairs: {small:?} at 10 rows, {large:?} at 20 000"
    );
}
