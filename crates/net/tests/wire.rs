//! End-to-end wire-protocol tests: handshake + auth, query cycle,
//! failure containment (malformed frames, abrupt disconnects), and
//! serial-oracle equality through real sockets.

use cryptdb_apps::mixed::{self, MixedScale};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_engine::Engine;
use cryptdb_net::{wire_canonical_dump, NetClient, NetServer, WireError};
use cryptdb_server::{canonical_dump, schema_tables};
use std::sync::Arc;

fn small_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

fn mixed_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(mixed::encrypted_columns()),
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

fn prepare(proxy: &Proxy, scale: &MixedScale) {
    for stmt in mixed::setup_statements(11, scale) {
        proxy
            .execute(&stmt)
            .unwrap_or_else(|e| panic!("{e}: {stmt}"));
    }
    for stmt in mixed::training_statements(scale) {
        proxy
            .execute(&stmt)
            .unwrap_or_else(|e| panic!("{e}: {stmt}"));
    }
}

#[test]
fn handshake_query_cycle_and_terminate() {
    let server = NetServer::spawn(small_proxy(), "127.0.0.1:0").unwrap();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();

    let r = c
        .simple_query("CREATE TABLE emp (id int, name text)")
        .unwrap();
    assert_eq!(r.command_tag, "CREATE TABLE");
    let r = c
        .simple_query("INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, 'bo|b')")
        .unwrap();
    assert_eq!(r.command_tag, "INSERT 0 2");
    let r = c
        .simple_query("SELECT id, name FROM emp WHERE id = 2")
        .unwrap();
    assert_eq!(
        r.columns
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["id", "name"]
    );
    assert_eq!(r.rows, vec![vec![Some("2".into()), Some("bo|b".into())]]);
    assert_eq!(r.command_tag, "SELECT 1");

    // A statement error keeps the connection usable (severity ERROR).
    let err = c.simple_query("SELECT nope FROM emp").unwrap_err();
    match err {
        WireError::Server { severity, .. } => assert_eq!(severity, "ERROR"),
        other => panic!("expected server error, got {other}"),
    }
    let r = c.simple_query("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(r.rows, vec![vec![Some("2".into())]]);
    c.terminate().unwrap();
}

#[test]
fn cleartext_auth_names_the_principal() {
    let proxy = small_proxy();
    let server = NetServer::spawn(proxy, "127.0.0.1:0").unwrap();
    // First login mints carol's external key...
    let c = NetClient::connect(server.local_addr(), "carol", "s3cret").unwrap();
    c.terminate().unwrap();
    // ...re-connecting with the right password works, a wrong one is
    // refused during the handshake with a FATAL ErrorResponse.
    let c = NetClient::connect(server.local_addr(), "carol", "s3cret").unwrap();
    c.terminate().unwrap();
    match NetClient::connect(server.local_addr(), "carol", "wrong") {
        Err(WireError::Server { severity, code, .. }) => {
            assert_eq!(severity, "FATAL");
            assert_eq!(code, "28P01");
        }
        Err(other) => panic!("expected auth failure, got {other}"),
        Ok(_) => panic!("wrong password must not authenticate"),
    }
}

#[test]
fn wire_dump_matches_in_process_dump() {
    let proxy = small_proxy();
    let server = NetServer::spawn(proxy.clone(), "127.0.0.1:0").unwrap();
    let mut c = NetClient::connect(server.local_addr(), "dump", "").unwrap();
    for sql in [
        "CREATE TABLE t (a int, b text)",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL), (-3, 'pipe|and\\slash')",
    ] {
        c.simple_query(sql).unwrap();
    }
    let wire = wire_canonical_dump(&mut c, &schema_tables(&proxy)).unwrap();
    let inproc = canonical_dump(&proxy).unwrap();
    assert_eq!(wire, inproc, "wire rendering must mirror canonical_text");
    c.terminate().unwrap();
}

/// `connections` real socket clients, each replaying a fresh
/// `steps`-step `mixed` session trace, interleave on one server with the
/// default limits, which multiplex every connection on two reader
/// threads. The run must be error-free, and its database state
/// byte-identical to a serial oracle of the same traces, both dumps read
/// back through the socket path.
fn wire_connections_match_serial_oracle(connections: usize, steps: usize) {
    let scale = MixedScale::default();
    let traces: Vec<Vec<String>> = (0..connections)
        .map(|i| mixed::session_trace(5, i, steps, &scale))
        .collect();

    let concurrent = mixed_proxy();
    prepare(&concurrent, &scale);
    let server = NetServer::spawn(concurrent.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let workers: Vec<_> = traces
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, trace)| {
            std::thread::spawn(move || {
                let mut c = NetClient::connect(addr, &format!("s{i}"), "").unwrap();
                let mut errors = 0;
                for stmt in &trace {
                    match c.simple_query(stmt) {
                        Ok(_) => {}
                        Err(WireError::Server { .. }) => errors += 1,
                        Err(e) => panic!("transport failure: {e}"),
                    }
                }
                c.terminate().unwrap();
                errors
            })
        })
        .collect();
    let errors: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(
        errors, 0,
        "{connections}-connection wire run must be error-free"
    );

    // Serial oracle: the same traces, replayed one session at a time —
    // ALSO through a socket, so both dumps cross the same wire path.
    let oracle = mixed_proxy();
    prepare(&oracle, &scale);
    let oracle_server = NetServer::spawn(oracle.clone(), "127.0.0.1:0").unwrap();
    let mut oc = NetClient::connect(oracle_server.local_addr(), "oracle", "").unwrap();
    for stmt in traces.iter().flatten() {
        oc.simple_query(stmt).unwrap();
    }

    let mut cc = NetClient::connect(addr, "dump", "").unwrap();
    let concurrent_dump = wire_canonical_dump(&mut cc, &schema_tables(&concurrent)).unwrap();
    let oracle_dump = wire_canonical_dump(&mut oc, &schema_tables(&oracle)).unwrap();
    assert!(
        concurrent_dump.contains("== warehouse =="),
        "dump must cover the mixed schema"
    );
    assert_eq!(
        concurrent_dump, oracle_dump,
        "{connections}-connection wire run diverged from the serial oracle"
    );
}

#[test]
fn four_wire_connections_match_serial_oracle() {
    wire_connections_match_serial_oracle(4, 6);
    // Wide fan-out: 64 connections on the same two reader threads.
    wire_connections_match_serial_oracle(64, 1);
}

#[test]
fn malformed_frame_closes_only_that_connection() {
    let server = NetServer::spawn(small_proxy(), "127.0.0.1:0").unwrap();
    let mut healthy = NetClient::connect(server.local_addr(), "good", "").unwrap();
    healthy.simple_query("CREATE TABLE ok (a int)").unwrap();

    // Declared frame length far beyond MAX_FRAME: malformed, not an
    // allocation request.
    let mut bad = NetClient::connect(server.local_addr(), "bad", "").unwrap();
    bad.send_raw(&[b'Q', 0x7f, 0xff, 0xff, 0xff]).unwrap();
    let (tag, body) = bad.read_raw_frame().unwrap();
    assert_eq!(tag, b'E');
    let (severity, code, _) = cryptdb_net::protocol::parse_error_body(&body);
    assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "08P01"));
    assert!(
        bad.read_raw_frame().is_err(),
        "server must close the bad connection"
    );

    // An unknown message type is also fatal to its own connection.
    let mut bad2 = NetClient::connect(server.local_addr(), "bad2", "").unwrap();
    bad2.send_raw(&[b'?', 0, 0, 0, 4]).unwrap();
    let (tag, _) = bad2.read_raw_frame().unwrap();
    assert_eq!(tag, b'E');

    // Other connections keep being served, and new ones connect fine.
    healthy
        .simple_query("INSERT INTO ok (a) VALUES (1)")
        .unwrap();
    let mut fresh = NetClient::connect(server.local_addr(), "fresh", "").unwrap();
    let r = fresh.simple_query("SELECT COUNT(*) FROM ok").unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
}

#[test]
fn terminate_drains_pipelined_statements() {
    // PostgreSQL processes messages in order: statements pipelined
    // BEFORE a Terminate must execute, even though the reader sees the
    // 'X' while they are still queued.
    let server = NetServer::spawn(small_proxy(), "127.0.0.1:0").unwrap();
    let mut setup = NetClient::connect(server.local_addr(), "setup", "").unwrap();
    setup.simple_query("CREATE TABLE log (id int)").unwrap();

    let mut c = NetClient::connect(server.local_addr(), "pipeliner", "").unwrap();
    let mut burst = Vec::new();
    for i in 0..10 {
        let sql = format!("INSERT INTO log (id) VALUES ({i})\0");
        burst.push(b'Q');
        burst.extend_from_slice(&(sql.len() as i32 + 4).to_be_bytes());
        burst.extend_from_slice(sql.as_bytes());
    }
    burst.push(b'X');
    burst.extend_from_slice(&4i32.to_be_bytes());
    c.send_raw(&burst).unwrap();
    // The server drains the chain before closing; EOF on our read side
    // means every response was written and the socket shut down.
    while c.read_raw_frame().is_ok() {}

    let r = setup.simple_query("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Some("10".into())]],
        "all pipelined inserts must land before Terminate closes"
    );
    setup.terminate().unwrap();
}

#[test]
fn abrupt_disconnect_mid_chain_releases_session() {
    // One pool worker: if a dead connection's chain wedged the pool,
    // every later statement would hang.
    let cfg = ProxyConfig {
        paillier_bits: 256,
        runtime_threads: 1,
        ..Default::default()
    };
    let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [9u8; 32], cfg));
    let server = NetServer::spawn(proxy.clone(), "127.0.0.1:0").unwrap();
    let mut setup = NetClient::connect(server.local_addr(), "setup", "").unwrap();
    setup
        .simple_query("CREATE TABLE acct (id int, bal int)")
        .unwrap();

    // Pipeline a burst of statements WITHOUT reading any response, then
    // vanish: the reader sees EOF mid-chain and must drop the queued
    // tail while the in-flight statement completes.
    let mut rude = NetClient::connect(server.local_addr(), "rude", "").unwrap();
    let mut burst = Vec::new();
    for i in 0..50 {
        let sql = format!("INSERT INTO acct (id, bal) VALUES ({i}, {i})\0");
        burst.push(b'Q');
        burst.extend_from_slice(&(sql.len() as i32 + 4).to_be_bytes());
        burst.extend_from_slice(sql.as_bytes());
    }
    rude.send_raw(&burst).unwrap();
    drop(rude); // Abrupt close; no Terminate, responses never read.

    // The server must keep serving: a fresh connection's statements run
    // on the same single worker.
    let mut after = NetClient::connect(server.local_addr(), "after", "").unwrap();
    after
        .simple_query("INSERT INTO acct (id, bal) VALUES (999, 0)")
        .unwrap();
    let r = after.simple_query("SELECT COUNT(*) FROM acct").unwrap();
    let count: i64 = r.rows[0][0].as_deref().unwrap().parse().unwrap();
    // Some prefix of the burst may have executed before the disconnect
    // was noticed; the tail is dropped, nothing hangs, nothing doubles.
    assert!((1..=51).contains(&count), "unexpected row count {count}");
    after.terminate().unwrap();
}

#[test]
fn restarted_server_resumes_persisted_state() {
    let dir = std::env::temp_dir().join(format!("cryptdb-net-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = cryptdb_server::PersistConfig::new(&dir);
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };

    let first_dump;
    {
        let (server, recovery) =
            NetServer::spawn_persistent(&persist, [7u8; 32], cfg.clone(), "127.0.0.1:0").unwrap();
        assert_eq!(recovery.report.records_applied, 0, "fresh directory");
        let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
        for sql in [
            "CREATE TABLE notes (id int, body text)",
            "INSERT INTO notes (id, body) VALUES (1, 'first'), (2, 'second')",
            "SELECT body FROM notes WHERE id = 2", // exposes DET on id
        ] {
            c.simple_query(sql).unwrap();
        }
        first_dump = wire_canonical_dump(&mut c, &schema_tables(server.proxy())).unwrap();
        c.terminate().unwrap();
        // Dropping the NetServer kills the listener — an abrupt stop as
        // far as the persisted directory is concerned.
    }

    let (server, recovery) =
        NetServer::spawn_persistent(&persist, [7u8; 32], cfg, "127.0.0.1:0").unwrap();
    assert!(recovery.report.records_applied > 0);
    assert!(!recovery.report.corruption_detected);
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    // The recovered server keeps serving: old rows decrypt, the exposed
    // DET level still answers equality, and new writes land.
    let dump = wire_canonical_dump(&mut c, &schema_tables(server.proxy())).unwrap();
    assert_eq!(dump, first_dump, "restart changed the served state");
    let r = c
        .simple_query("SELECT body FROM notes WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Some("second".into())]]);
    c.simple_query("INSERT INTO notes (id, body) VALUES (3, 'post-restart')")
        .unwrap();
    let r = c.simple_query("SELECT COUNT(*) FROM notes").unwrap();
    assert_eq!(r.rows, vec![vec![Some("3".into())]]);
    c.terminate().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_retries_until_the_server_is_up() {
    use cryptdb_net::ConnectConfig;
    use std::time::Duration;

    // Reserve a port, free it, and bring the server up only after a
    // delay — the first connect attempts must fail and be retried.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let spawner = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        NetServer::spawn(small_proxy(), addr).unwrap()
    });

    let retry = ConnectConfig {
        attempts: 10,
        timeout: Duration::from_millis(500),
        backoff: Duration::from_millis(50),
    };
    let mut c = NetClient::connect_with(addr, "late", "", &retry).unwrap();
    let r = c.simple_query("SELECT 1 + 1").unwrap();
    assert_eq!(r.rows, vec![vec![Some("2".into())]]);
    c.terminate().unwrap();
    drop(spawner.join().unwrap());

    // With the listener gone and a single attempt, the failure is
    // immediate (no retry loop) and surfaces as a transport error.
    let once = ConnectConfig {
        attempts: 1,
        timeout: Duration::from_millis(200),
        backoff: Duration::from_millis(1),
    };
    match NetClient::connect_with(addr, "late", "", &once) {
        Err(WireError::Io(_)) => {}
        Err(other) => panic!("expected a transport error, got {other}"),
        Ok(_) => panic!("connect must fail with no listener"),
    }
}
