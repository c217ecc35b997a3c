//! Transactions across sessions: each `StatementSession` owns its
//! transaction, so one session's `ROLLBACK` undoes only its own writes,
//! an onion adjustment made inside a transaction outlives its
//! `ROLLBACK`, same-row writers queue on the row lock, and a lock cycle
//! fails one writer with SQLSTATE 40001 instead of hanging.

use cryptdb_core::proxy::{Proxy, ProxyConfig};
use cryptdb_core::ProxyError;
use cryptdb_engine::{Engine, QueryResult, Value, LOCK_WAIT};
use cryptdb_server::{canonical_dump, StatementSession};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Reply = Result<QueryResult, ProxyError>;

fn new_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        // A writer waiting for a row lock holds a worker; the lock's
        // owner needs another to finish.
        runtime_threads: 4,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

fn submit(s: &StatementSession, sql: &str) -> Receiver<Reply> {
    let (tx, rx) = channel();
    s.submit(sql.to_string(), move |r, _| {
        let _ = tx.send(r);
    });
    rx
}

fn exec(s: &StatementSession, sql: &str) -> Reply {
    submit(s, sql).recv().expect("session answers")
}

fn ok(s: &StatementSession, sql: &str) -> QueryResult {
    exec(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn ints(r: &QueryResult) -> Vec<i64> {
    let mut v: Vec<i64> = r.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    v.sort_unstable();
    v
}

#[test]
fn rollback_keeps_another_sessions_autocommitted_row() {
    let proxy = new_proxy();
    let (a, b) = (
        StatementSession::new(proxy.clone()),
        StatementSession::new(proxy.clone()),
    );
    ok(&a, "CREATE TABLE t (id int)");
    ok(&a, "BEGIN");
    ok(&a, "INSERT INTO t (id) VALUES (1)");
    ok(&b, "INSERT INTO t (id) VALUES (2)");
    ok(&a, "ROLLBACK");
    assert_eq!(ints(&ok(&b, "SELECT id FROM t")), vec![2]);
}

#[test]
fn adjustment_inside_a_transaction_survives_its_rollback() {
    let proxy = new_proxy();
    let a = StatementSession::new(proxy.clone());
    ok(&a, "CREATE TABLE e (id int, name text)");
    ok(
        &a,
        "INSERT INTO e (id, name) VALUES (1, 'Alice'), (2, 'Bob')",
    );
    ok(&a, "BEGIN");
    // Lowers `name` RND -> DET: a permanent disclosure that commits on
    // its own, not with the transaction.
    let found = ok(&a, "SELECT id FROM e WHERE name = 'Alice'");
    assert_eq!(ints(&found), vec![1]);
    ok(&a, "ROLLBACK");
    assert_eq!(
        ints(&ok(&a, "SELECT id FROM e WHERE name = 'Alice'")),
        vec![1]
    );
    let name = ok(&a, "SELECT name FROM e WHERE id = 1");
    assert_eq!(name.rows(), &[vec![Value::Str("Alice".into())]]);
}

#[test]
fn adjustment_of_a_column_an_open_transaction_wrote_is_refused() {
    let proxy = new_proxy();
    let (a, b) = (
        StatementSession::new(proxy.clone()),
        StatementSession::new(proxy.clone()),
    );
    ok(&a, "CREATE TABLE e (id int, name text)");
    ok(
        &a,
        "INSERT INTO e (id, name) VALUES (1, 'Alice'), (2, 'Bob')",
    );
    ok(&a, "BEGIN");
    ok(&a, "UPDATE e SET name = 'Zed' WHERE id = 2");
    // Peeling `name` now would leave A's before-image at RND under a
    // DET schema after A's rollback: refused before anything changes.
    match exec(&b, "SELECT id FROM e WHERE name = 'Alice'") {
        Err(ProxyError::Conflict(_)) => {}
        other => panic!("expected a 40001 conflict, got {other:?}"),
    }
    ok(&a, "ROLLBACK");
    assert_eq!(
        ints(&ok(&b, "SELECT id FROM e WHERE name = 'Bob'")),
        vec![2]
    );
}

/// Two sessions increment one row; one of them rolls back. The waiter
/// queues on the row lock, and the result is the serial schedule that
/// runs only the committed increments.
#[test]
fn interleaved_same_row_increments_match_the_serial_schedule() {
    let proxy = new_proxy();
    let (a, b) = (
        StatementSession::new(proxy.clone()),
        StatementSession::new(proxy.clone()),
    );
    let setup = [
        "CREATE TABLE acct (id int, bal int)",
        "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200)",
    ];
    for sql in setup {
        ok(&a, sql);
    }
    ok(&a, "BEGIN");
    ok(&a, "UPDATE acct SET bal = bal + 5 WHERE id = 1");
    ok(&b, "BEGIN");
    let waiting = submit(&b, "UPDATE acct SET bal = bal + 7 WHERE id = 1");
    assert!(
        waiting.recv_timeout(Duration::from_millis(200)).is_err(),
        "B must queue behind A's row lock"
    );
    ok(&a, "UPDATE acct SET bal = bal + 1 WHERE id = 2");
    ok(&a, "ROLLBACK");
    waiting
        .recv_timeout(LOCK_WAIT)
        .expect("B resumes once A ends")
        .unwrap();
    ok(&b, "UPDATE acct SET bal = bal + 3 WHERE id = 2");
    ok(&b, "COMMIT");
    ok(&a, "UPDATE acct SET bal = bal + 10 WHERE id = 1");

    let serial = new_proxy();
    let s = StatementSession::new(serial.clone());
    for sql in setup.iter().chain(&[
        "UPDATE acct SET bal = bal + 7 WHERE id = 1",
        "UPDATE acct SET bal = bal + 3 WHERE id = 2",
        "UPDATE acct SET bal = bal + 10 WHERE id = 1",
    ]) {
        ok(&s, sql);
    }
    assert_eq!(
        canonical_dump(&proxy).unwrap(),
        canonical_dump(&serial).unwrap()
    );
}

#[test]
fn opposite_lock_order_fails_one_session_and_commits_the_other() {
    let proxy = new_proxy();
    let (a, b) = (
        StatementSession::new(proxy.clone()),
        StatementSession::new(proxy.clone()),
    );
    ok(&a, "CREATE TABLE acct (id int, bal int)");
    ok(&a, "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200)");
    ok(&a, "BEGIN");
    ok(&b, "BEGIN");
    ok(&a, "UPDATE acct SET bal = 101 WHERE id = 1");
    ok(&b, "UPDATE acct SET bal = 202 WHERE id = 2");
    // Each now writes the other's row: whichever waits second closes
    // the cycle and fails at once, which aborts it and frees the first.
    let t0 = Instant::now();
    let a_reply = submit(&a, "UPDATE acct SET bal = 102 WHERE id = 2");
    let b_reply = submit(&b, "UPDATE acct SET bal = 201 WHERE id = 1");
    let (ra, rb) = (
        a_reply.recv_timeout(2 * LOCK_WAIT).expect("A answers"),
        b_reply.recv_timeout(2 * LOCK_WAIT).expect("B answers"),
    );
    assert!(t0.elapsed() < LOCK_WAIT, "a deadlock is refused at once");
    let (winner, loser, want) = match (&ra, &rb) {
        (Ok(_), Err(ProxyError::Conflict(_))) => (&a, &b, vec![101, 102]),
        (Err(ProxyError::Conflict(_)), Ok(_)) => (&b, &a, vec![201, 202]),
        other => panic!("exactly one session must get 40001: {other:?}"),
    };
    // The loser's transaction was rolled back by the conflict; it
    // refuses writes until the session ends the block.
    match exec(loser, "UPDATE acct SET bal = 0 WHERE id = 2") {
        Err(ProxyError::Aborted(_)) => {}
        other => panic!("expected an aborted block, got {other:?}"),
    }
    ok(loser, "ROLLBACK");
    ok(winner, "COMMIT");
    assert_eq!(ints(&ok(&a, "SELECT bal FROM acct")), want);
}

#[test]
fn closing_a_session_rolls_back_its_transaction() {
    let proxy = new_proxy();
    let a = StatementSession::new(proxy.clone());
    ok(&a, "CREATE TABLE t (id int)");
    ok(&a, "INSERT INTO t (id) VALUES (1)");
    ok(&a, "BEGIN");
    ok(&a, "INSERT INTO t (id) VALUES (2)");
    a.close();
    a.wait_idle();
    drop(a);
    // The rollback runs when the last chain job lets go of the session,
    // just after `wait_idle` returns.
    let t0 = Instant::now();
    while ints(&proxy.execute("SELECT id FROM t").unwrap()) != [1] {
        assert!(
            t0.elapsed() < LOCK_WAIT,
            "the closed session's insert stayed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
