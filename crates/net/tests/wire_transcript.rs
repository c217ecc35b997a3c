//! Byte-transcript oracle for extended-protocol batching.
//!
//! The mux turns the extended-protocol frames it parses out of one read
//! into ONE run whose answers leave in one write. That may change *how
//! many* runs and writes a conversation costs — never *which bytes* the
//! client sees, or their order. Each scenario of `wire_extended.rs`,
//! plus a pipelined one, is played twice against a fresh server: every
//! step's frames in a single `write`, and one frame per `write` with a
//! pause in between (one run per frame). The two
//! server→client byte streams must be identical. One more scenario
//! holds the same oracle between the two places a batch can run: the
//! mux thread (quiet connection) and a session job (pipelined behind an
//! unanswered query).

mod common;

use common::*;
use cryptdb_net::{protocol, NetLimits, NetServer};
use std::time::Duration;

const SEED: [&str; 2] = [
    "CREATE TABLE emp (id int, name text)",
    "INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cy')",
];

/// Plays `steps` on a fresh server. Each step is sent, then answered
/// through its last `ReadyForQuery`, before the next one goes out.
fn play(limits: &NetLimits, steps: &[Vec<Frame>], one_frame_per_write: bool) -> Vec<u8> {
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits.clone()).unwrap();
    let mut conn = RawConn::open(server.local_addr());
    let mut out = Vec::new();
    for step in steps {
        if one_frame_per_write {
            for frame in step {
                conn.send(&wire(std::slice::from_ref(frame)));
                std::thread::sleep(Duration::from_millis(3));
            }
        } else {
            conn.send(&wire(step));
        }
        out.extend(conn.read_cycles(cycles(step)));
    }
    out.extend(conn.finish());
    out
}

/// Asserts both ways of sending `steps` draw the same bytes, and
/// returns the frame tags of that stream.
fn same_bytes_either_way(limits: NetLimits, steps: Vec<Vec<Frame>>) -> String {
    let batched = play(&limits, &steps, false);
    let dribbled = play(&limits, &steps, true);
    assert!(
        batched == dribbled,
        "coalescing changed the byte stream:\n  batched  {}\n  dribbled {}",
        tags(&batched),
        tags(&dribbled)
    );
    tags(&batched)
}

fn seeded(mut steps: Vec<Vec<Frame>>) -> Vec<Vec<Frame>> {
    let mut all: Vec<Vec<Frame>> = SEED.iter().map(|sql| vec![query(sql)]).collect();
    all.append(&mut steps);
    all
}

fn prepare(name: &str, sql: &str) -> Vec<Frame> {
    vec![parse(name, sql), describe(b'S', name), sync()]
}

fn run(stmt: &str, params: &[Option<&str>]) -> Vec<Frame> {
    vec![bind("", stmt, params), execute(""), sync()]
}

#[test]
fn every_frame_kind_in_one_write() {
    // The seven client frames `frame_parser_reassembles_at_every_byte_
    // boundary` feeds the parser, here fed to a server: one batch of
    // six and a simple query behind it, two ReadyForQuery.
    let tags = same_bytes_either_way(
        NetLimits::default(),
        seeded(vec![vec![
            parse("s1", "SELECT id FROM emp WHERE id = $1"),
            bind("", "s1", &[Some("2")]),
            describe(b'S', "s1"),
            execute(""),
            close(b'S', "s1"),
            sync(),
            query("SELECT 1"),
        ]]),
    );
    assert_eq!(tags, "CZCZ12tTTDC3ZTDCZ");
}

#[test]
fn empty_query() {
    let tags = same_bytes_either_way(
        NetLimits::default(),
        vec![vec![query("")], vec![query("   ")], vec![query("SELECT 1")]],
    );
    assert_eq!(tags, "IZIZTDCZ");
}

#[test]
fn prepared_cycle() {
    let mut steps = vec![prepare("fetch", "SELECT id, name FROM emp WHERE id = $1")];
    for id in ["1", "2", "3"] {
        steps.push(run("fetch", &[Some(id)]));
        steps.push(vec![query(&format!(
            "SELECT id, name FROM emp WHERE id = {id}"
        ))]);
    }
    steps.push(run("fetch", &[None]));
    steps.push(prepare("ins", "INSERT INTO emp (id, name) VALUES ($1, $2)"));
    steps.push(run("ins", &[Some("4"), Some("di")]));
    steps.push(vec![query("SELECT COUNT(*) FROM emp")]);
    same_bytes_either_way(NetLimits::default(), seeded(steps));
}

#[test]
fn unknown_statement_name() {
    let tags = same_bytes_either_way(
        NetLimits::default(),
        vec![run("nosuch", &[]), vec![query("SELECT 1")]],
    );
    assert_eq!(tags, "EZTDCZ");
}

#[test]
fn duplicate_statement_name() {
    same_bytes_either_way(
        NetLimits::default(),
        seeded(vec![
            prepare("dup", "SELECT id FROM emp"),
            prepare("dup", "SELECT name FROM emp"),
            vec![close(b'S', "dup"), sync()],
            vec![close(b'S', "never-existed"), sync()],
            prepare("dup", "SELECT name FROM emp"),
            run("dup", &[]),
        ]),
    );
}

#[test]
fn error_skips_messages_until_sync() {
    let tags = same_bytes_either_way(
        NetLimits::default(),
        seeded(vec![
            vec![
                bind("p1", "ghost", &[]),
                describe(b'P', "p1"),
                execute("p1"),
                sync(),
            ],
            vec![query("SELECT COUNT(*) FROM emp")],
        ]),
    );
    assert_eq!(tags, "CZCZEZTDCZ");
}

#[test]
fn simple_and_extended_interleave() {
    same_bytes_either_way(
        NetLimits::default(),
        seeded(vec![
            prepare("byid", "SELECT name FROM emp WHERE id = $1"),
            run("byid", &[Some("1")]),
            vec![query("INSERT INTO emp (id, name) VALUES (9, 'zed')")],
            run("byid", &[Some("9")]),
            vec![query("SELECT nope FROM emp")],
            run("byid", &[Some("2")]),
        ]),
    );
}

#[test]
fn ddl_invalidates_cached_plan() {
    same_bytes_either_way(
        NetLimits::default(),
        vec![
            vec![query("CREATE TABLE t (k int, v text)")],
            vec![query("INSERT INTO t (k, v) VALUES (1, 'old')")],
            prepare("get", "SELECT v FROM t WHERE k = $1"),
            run("get", &[Some("1")]),
            vec![query("DROP TABLE t")],
            vec![query("CREATE TABLE t (k int, v text)")],
            vec![query("INSERT INTO t (k, v) VALUES (1, 'new')")],
            run("get", &[Some("1")]),
        ],
    );
}

#[test]
fn prepared_statement_cap() {
    let limits = NetLimits {
        max_prepared_statements: 2,
        ..NetLimits::default()
    };
    same_bytes_either_way(
        limits,
        seeded(vec![
            prepare("a", "SELECT id FROM emp"),
            prepare("b", "SELECT name FROM emp"),
            prepare("c", "SELECT id, name FROM emp"),
            vec![close(b'S', "a"), sync()],
            prepare("c", "SELECT id, name FROM emp"),
            run("c", &[]),
        ]),
    );
}

#[test]
fn empty_prepared_statement() {
    let tags = same_bytes_either_way(
        NetLimits::default(),
        vec![
            prepare("nop", "   "),
            run("nop", &[]),
            vec![query("SELECT 1")],
        ],
    );
    assert_eq!(tags, "1tnZ2IZTDCZ");
}

#[test]
fn bind_arity_mismatch() {
    same_bytes_either_way(
        NetLimits::default(),
        seeded(vec![
            prepare("one", "SELECT id FROM emp WHERE name = $1"),
            run("one", &[]),
            run("one", &[Some("x"), Some("y")]),
            run("one", &[Some("ann")]),
        ]),
    );
}

/// A bounded `Bind`/`Execute`/`Sync` on a quiet connection runs on the
/// mux thread; pipelined behind an unanswered simple query it runs as a
/// session job. The client must not be able to tell which.
#[test]
fn mux_thread_and_session_job_send_the_same_bytes() {
    let proxy = one_worker_proxy();
    let server = NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", NetLimits::default()).unwrap();
    let mut conn = RawConn::open(server.local_addr());
    for sql in SEED {
        conn.send(&wire(&[query(sql)]));
        conn.read_cycles(1);
    }
    conn.prepare("byid", "SELECT id, name FROM emp WHERE id = $1");
    // Put the bound id in the constant cache: a miss would send even a
    // quiet connection's Execute to the worker.
    conn.send(&wire(&[query("SELECT name FROM emp WHERE id = 2")]));
    conn.read_cycles(1);
    let step = run("byid", &[Some("2")]);
    let slow = query("SELECT name FROM emp WHERE id = 3");

    let gate = hold_worker(&proxy);
    // Quiet connection: answered although the only worker is held.
    conn.send(&wire(&step));
    let inline = conn.read_cycles(1);
    assert_eq!(tags(&inline), "2TDCZ");
    // Behind a query that cannot run until the worker is free.
    let mut pipelined = vec![slow.clone()];
    pipelined.extend(step);
    conn.send(&wire(&pipelined));
    assert!(
        conn.silent_for(Duration::from_millis(200)),
        "the pipelined Execute overtook the query ahead of it"
    );
    gate.send(()).unwrap();
    let chained = conn.read_cycles(2);

    conn.send(&wire(&[slow]));
    let mut expected = conn.read_cycles(1);
    expected.extend_from_slice(&inline);
    assert!(
        chained == expected,
        "the two paths differ:\n  chained  {}\n  expected {}",
        tags(&chained),
        tags(&expected)
    );
}

#[test]
fn pipelined_executes_with_a_failure_in_the_middle() {
    // Three Bind/Execute pairs behind one Sync, the second binding text
    // to an int slot: the first pair answers in full, the failure is
    // one ErrorResponse, the third pair is skipped without a trace, and
    // the single Sync ends the cycle.
    let limits = NetLimits::default();
    let steps = seeded(vec![
        prepare("byid", "SELECT name FROM emp WHERE id = $1"),
        vec![
            bind("p1", "byid", &[Some("1")]),
            execute("p1"),
            bind("p2", "byid", &[Some("two")]),
            execute("p2"),
            bind("p3", "byid", &[Some("3")]),
            execute("p3"),
            sync(),
        ],
        // p1 was bound before the failure and survives it; p3 never was.
        vec![execute("p1"), execute("p3"), sync()],
    ]);
    let tags = same_bytes_either_way(limits.clone(), steps.clone());
    assert_eq!(tags, "CZCZ1tTZ2TDCEZTDCEZ");
    let stream = play(&limits, &steps, false);
    let mut rest = &stream[..];
    let mut codes = Vec::new();
    while let Ok(Some((tag, body, used))) = protocol::try_parse_frame(rest, protocol::MAX_FRAME) {
        if tag == b'E' {
            codes.push(protocol::parse_error_body(&body).1);
        }
        rest = &rest[used..];
    }
    assert_eq!(codes, ["22P02", "34000"]);
}
