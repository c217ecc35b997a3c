//! Overload and hostile-client harness for the multiplexed serving
//! edge: slowloris handshakes, byte-at-a-time frames, slow-consumer
//! eviction, connection-cap floods, statement deadlines, the in-flight
//! budget, deadlines on a silent server, an idle-connection soak with a
//! wake-up budget, drain-during-flood with a WAL recovery oracle, and
//! which statements a mux thread runs while every worker is busy. Every
//! test drives real sockets against a real server; none may panic a
//! server thread.

mod common;

use common::{
    bind, execute, hold_worker, one_worker_proxy, parse, query, sync, tags, wire, RawConn,
};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_engine::Engine;
use cryptdb_net::{protocol, NetClient, NetLimits, NetServer, WireError};
use cryptdb_server::percentile;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

/// A proxy that encrypts nothing: for tests exercising pure transport
/// mechanics (egress bounds, eviction), where crypto latency would only
/// slow the flood down.
fn plaintext_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(Default::default()),
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

/// Polls `cond` until it returns true or `timeout` elapses.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn stalled_handshake_times_out_without_pinning_a_thread() {
    let limits = NetLimits {
        handshake_deadline: Duration::from_millis(300),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();

    // Three slowloris sockets that never send a byte...
    let stalled: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    // ...while a well-behaved client is served concurrently.
    let mut good = NetClient::connect(server.local_addr(), "good", "").unwrap();
    good.simple_query("CREATE TABLE t (a int)").unwrap();

    // Each stalled socket gets the FATAL refusal and a close, within
    // the deadline plus scheduling slack.
    for mut s in stalled {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (tag, body) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(tag, b'E');
        let (severity, code, _) = protocol::parse_error_body(&body);
        assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "08P01"));
        assert!(
            protocol::read_frame(&mut s).is_err(),
            "socket must be closed after the handshake timeout"
        );
    }
    assert!(wait_for(Duration::from_secs(5), || {
        server.stats().handshake_timeouts == 3
    }));
    // The healthy connection never noticed.
    good.simple_query("INSERT INTO t (a) VALUES (1)").unwrap();
    good.terminate().unwrap();
}

/// With blocking waits nothing ticks: a deadline fires only because it
/// was the `poll` timeout. These two run on an otherwise silent server
/// — no other client whose traffic could wake the reader threads.
#[test]
fn stalled_handshake_is_closed_on_time_on_a_silent_server() {
    let deadline = Duration::from_millis(400);
    let limits = NetLimits {
        handshake_deadline: deadline,
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let t0 = Instant::now();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (tag, body) = protocol::read_frame(&mut s).unwrap();
    let took = t0.elapsed();
    assert_eq!(tag, b'E');
    let (severity, code, _) = protocol::parse_error_body(&body);
    assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "08P01"));
    assert!(
        took >= deadline.mul_f64(0.9) && took <= deadline.mul_f64(1.5),
        "handshake deadline {deadline:?} fired after {took:?}"
    );
    assert!(protocol::read_frame(&mut s).is_err(), "socket must close");
    let stats = server.stats();
    assert_eq!(stats.handshake_timeouts, 1);
    // Adoption, the deadline, the reap: not a tick every few ms.
    assert!(stats.reader_wakeups <= 8, "{stats:?}");
}

#[test]
fn idle_session_is_closed_on_time_on_a_silent_server() {
    let idle = Duration::from_millis(400);
    let limits = NetLimits {
        idle_deadline: Some(idle),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "sleepy", "").unwrap();
    let t0 = Instant::now();
    let (tag, body) = c.read_raw_frame().unwrap();
    let took = t0.elapsed();
    assert_eq!(tag, b'E');
    let (severity, code, _) = protocol::parse_error_body(&body);
    assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "57P05"));
    assert!(
        took >= idle.mul_f64(0.9) && took <= idle.mul_f64(1.5),
        "idle deadline {idle:?} fired after {took:?}"
    );
    assert!(c.read_raw_frame().is_err(), "socket must close");
    assert_eq!(server.stats().idle_timeouts, 1);

    // A session that keeps talking is never idle, however long it lives.
    let mut c = NetClient::connect(server.local_addr(), "chatty", "").unwrap();
    for _ in 0..8 {
        std::thread::sleep(idle / 4);
        c.simple_query("SELECT 1").unwrap();
    }
    c.terminate().unwrap();
    assert_eq!(server.stats().idle_timeouts, 1);
}

/// The idle clock counts from the client's last byte, not from the
/// server's last response: a deadline that passes while a statement is
/// outstanding closes the session as soon as the response is out, not a
/// whole idle window later.
#[test]
fn idle_deadline_passing_mid_statement_closes_once_the_response_is_out() {
    let idle = Duration::from_millis(600);
    let limits = NetLimits {
        idle_deadline: Some(idle),
        ..NetLimits::default()
    };
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(Default::default()),
        paillier_bits: 256,
        runtime_threads: 1,
    };
    let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg));
    let server = NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "busy", "").unwrap();

    // Hold the only worker, so the statement stays outstanding until
    // the gate opens half an idle window past the deadline.
    let gate = hold_worker(&proxy);
    let mut query = Vec::new();
    protocol::push_frame(&mut query, b'Q', b"SELECT 1\0");
    let t0 = Instant::now();
    c.send_raw(&query).unwrap();
    std::thread::sleep(idle.mul_f64(1.5));
    assert_eq!(server.stats().idle_timeouts, 0, "busy is not idle");
    gate.send(()).unwrap();

    while c.read_raw_frame().unwrap().0 != b'Z' {}
    let answered = Instant::now();
    assert!(answered.duration_since(t0) >= idle);
    let (tag, body) = c.read_raw_frame().unwrap();
    let lag = answered.elapsed();
    assert_eq!(tag, b'E');
    let (severity, code, _) = protocol::parse_error_body(&body);
    assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "57P05"));
    assert!(
        lag <= idle / 4,
        "close came {lag:?} after the response, idle deadline {idle:?}"
    );
    assert!(c.read_raw_frame().is_err(), "socket must close");
    assert_eq!(server.stats().idle_timeouts, 1);
}

#[test]
fn byte_at_a_time_client_is_served_within_its_deadline() {
    // A client dribbling one byte at a time is indistinguishable from a
    // slow link; as long as it beats the handshake deadline it must be
    // served — and it must never block other clients (the mux owns the
    // socket, no thread waits on it).
    let limits = NetLimits {
        handshake_deadline: Duration::from_secs(10),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let addr = server.local_addr();

    let dribbler = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut startup = Vec::new();
        protocol::write_startup(&mut startup, &[("user", "drip")]).unwrap();
        for b in startup {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let (tag, body) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(tag, b'R');
        assert_eq!(i32::from_be_bytes(body[0..4].try_into().unwrap()), 3);
        // Password frame, also byte by byte.
        let mut pw = Vec::new();
        protocol::push_frame(&mut pw, b'p', &[0]);
        for b in pw {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        loop {
            let (tag, _) = protocol::read_frame(&mut s).unwrap();
            if tag == b'Z' {
                break;
            }
        }
        // One query, one byte at a time.
        let mut q = Vec::new();
        protocol::push_frame(&mut q, b'Q', b"SELECT 2 + 3\0");
        for b in q {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut saw_row = false;
        loop {
            let (tag, body) = protocol::read_frame(&mut s).unwrap();
            match tag {
                b'D' => {
                    saw_row = true;
                    assert!(body.ends_with(b"5"), "expected SELECT 2+3 to answer 5");
                }
                b'Z' => break,
                _ => {}
            }
        }
        assert!(saw_row);
    });

    // Meanwhile ordinary clients run at full speed.
    let mut fast = NetClient::connect(addr, "fast", "").unwrap();
    fast.simple_query("CREATE TABLE speed (a int)").unwrap();
    let t0 = Instant::now();
    for i in 0..10 {
        fast.simple_query(&format!("INSERT INTO speed (a) VALUES ({i})"))
            .unwrap();
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fast client was starved by the dribbler"
    );
    fast.terminate().unwrap();
    dribbler.join().unwrap();
}

#[test]
fn slow_consumer_is_evicted_after_grace() {
    let limits = NetLimits {
        egress_bytes: 32 * 1024,
        slow_consumer_grace: Duration::from_millis(300),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(plaintext_proxy(), "127.0.0.1:0", limits).unwrap();

    // Seed a table whose full scan dwarfs egress_bytes AND the kernel's
    // socket buffers, so an unread response keeps egress pinned over
    // the bound.
    let mut seed = NetClient::connect(server.local_addr(), "seed", "").unwrap();
    seed.simple_query("CREATE TABLE blob (id int, body text)")
        .unwrap();
    let chunk = "x".repeat(16_000);
    for i in 0..20 {
        let values: Vec<String> = (0..10)
            .map(|j| format!("({}, '{chunk}')", i * 10 + j))
            .collect();
        seed.simple_query(&format!(
            "INSERT INTO blob (id, body) VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }

    // The slow consumer pipelines full scans (~3.2 MB each) and never
    // reads a byte back.
    let mut slow = NetClient::connect(server.local_addr(), "slow", "").unwrap();
    let mut burst = Vec::new();
    for _ in 0..4 {
        protocol::push_frame(&mut burst, b'Q', b"SELECT id, body FROM blob\0");
    }
    slow.send_raw(&burst).unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            server.stats().evicted_slow_consumers >= 1
        }),
        "slow consumer was never evicted (stats: {:?})",
        server.stats()
    );
    // The rest of the edge is unaffected.
    let r = seed.simple_query("SELECT COUNT(*) FROM blob").unwrap();
    assert_eq!(r.rows, vec![vec![Some("200".into())]]);
    seed.terminate().unwrap();
}

#[test]
fn flood_past_cap_sheds_53300_and_recovers() {
    let limits = NetLimits {
        max_connections: 8,
        reader_threads: 2,
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let addr = server.local_addr();

    // Fill the cap with held, authenticated connections.
    let held: Vec<NetClient> = (0..8)
        .map(|i| NetClient::connect(addr, &format!("h{i}"), "").unwrap())
        .collect();
    assert!(wait_for(Duration::from_secs(5), || {
        server.stats().live_connections >= 8
    }));

    // A 2x-cap flood: every connection over the cap must be refused
    // with a clean, in-protocol FATAL 53300 — not a reset, not a hang.
    for i in 0..16 {
        match NetClient::connect(addr, &format!("f{i}"), "") {
            Err(WireError::Server {
                severity,
                code,
                message,
            }) => {
                assert_eq!(severity, "FATAL");
                assert_eq!(code, "53300", "flood conn {i}: wrong SQLSTATE");
                assert!(message.contains("too many clients"));
            }
            Err(other) => panic!("flood conn {i}: expected FATAL 53300, got {other}"),
            Ok(_) => panic!("flood conn {i}: admitted past the cap"),
        }
    }
    assert!(server.stats().shed_connections >= 16);

    // Held connections were untouched by the flood.
    for (i, mut c) in held.into_iter().enumerate() {
        c.simple_query("SELECT 1 + 1")
            .unwrap_or_else(|e| panic!("held conn {i} broken after flood: {e}"));
        c.terminate().unwrap();
    }
    // Once the cap frees up, new connections are admitted again.
    let recovered = wait_for(Duration::from_secs(5), || {
        NetClient::connect(addr, "post-flood", "").is_ok()
    });
    assert!(recovered, "edge did not recover after the flood ended");
}

#[test]
fn statement_deadline_cancels_queued_statements_with_57014() {
    // A zero deadline expires every statement while it is still queued:
    // each draws ERROR 57014 without executing, and the connection
    // stays usable — the shed is per-statement, not per-connection.
    let limits = NetLimits {
        statement_deadline: Some(Duration::ZERO),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "late", "").unwrap();
    for _ in 0..3 {
        match c.simple_query("CREATE TABLE never (a int)") {
            Err(WireError::Server { severity, code, .. }) => {
                assert_eq!(severity, "ERROR");
                assert_eq!(code, "57014");
            }
            other => panic!("expected ERROR 57014, got {other:?}"),
        }
    }
    c.terminate().unwrap();

    // A generous deadline never fires for a healthy workload.
    let limits = NetLimits {
        statement_deadline: Some(Duration::from_secs(30)),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "ontime", "").unwrap();
    c.simple_query("CREATE TABLE fine (a int)").unwrap();
    c.simple_query("INSERT INTO fine (a) VALUES (1)").unwrap();
    c.terminate().unwrap();
}

#[test]
fn inflight_budget_sheds_excess_statements_with_53400() {
    let limits = NetLimits {
        max_inflight_statements: 1,
        ..NetLimits::default()
    };
    let proxy = one_worker_proxy();
    let server = NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "burst", "").unwrap();
    c.simple_query("CREATE TABLE q (a int)").unwrap();

    // Pipeline one bulky statement and five fast ones in a single write.
    // The only worker is held, so the INSERT keeps the only budget slot
    // until the mux has read every trailing statement and rejected it in
    // pipeline order with ERROR 53400; only then does the INSERT run.
    let values: Vec<String> = (0..800).map(|i| format!("({i})")).collect();
    let big = format!("INSERT INTO q (a) VALUES {}\0", values.join(", "));
    let mut burst = Vec::new();
    protocol::push_frame(&mut burst, b'Q', big.as_bytes());
    for _ in 0..5 {
        protocol::push_frame(&mut burst, b'Q', b"SELECT COUNT(*) FROM q\0");
    }
    let gate = hold_worker(&proxy);
    c.send_raw(&burst).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || server
            .stats()
            .rejected_statements
            >= 5),
        "the five statements behind the held INSERT were not all shed"
    );
    gate.send(()).unwrap();

    let mut ok = 0usize;
    let mut rejected = 0usize;
    for _ in 0..6 {
        let mut code = None;
        loop {
            let (tag, body) = c.read_raw_frame().unwrap();
            match tag {
                b'E' => code = Some(protocol::parse_error_body(&body).1),
                b'Z' => break,
                _ => {}
            }
        }
        match code {
            None => ok += 1,
            Some(c) => {
                assert_eq!(c, "53400", "rejections must carry SQLSTATE 53400");
                rejected += 1;
            }
        }
    }
    assert_eq!(ok + rejected, 6);
    assert!(ok >= 1, "the first statement held the slot and must run");
    assert!(
        rejected >= 3,
        "pipelined statements behind a full budget must shed (got {rejected})"
    );
    assert!(server.stats().rejected_statements >= rejected);

    // The connection survived the shedding and the budget recovered.
    let r = c.simple_query("SELECT COUNT(*) FROM q").unwrap();
    assert_eq!(r.rows, vec![vec![Some("800".into())]]);
    c.terminate().unwrap();
}

#[test]
fn soak_512_idle_connections_on_two_reader_threads() {
    let limits = NetLimits {
        max_connections: 600,
        reader_threads: 2,
        handshake_deadline: Duration::from_secs(30),
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let addr = server.local_addr();

    let mut conns: Vec<NetClient> = Vec::with_capacity(512);
    for i in 0..512 {
        conns.push(
            NetClient::connect(addr, &format!("idle{i}"), "")
                .unwrap_or_else(|e| panic!("connection {i} failed during soak ramp: {e}")),
        );
    }
    assert!(server.stats().live_connections >= 512);

    // Idle connections cost nothing: the two reader threads sleep in
    // poll(2) with no timeout (no deadline is armed once every
    // handshake is done) until a socket has bytes.
    let before = server.stats().reader_wakeups;
    std::thread::sleep(Duration::from_secs(1));
    let woken = server.stats().reader_wakeups - before;
    assert!(
        woken <= 4,
        "512 idle connections woke the reader threads {woken} times in 1 s"
    );

    // With 512 idle sockets multiplexed on two threads, active clients
    // must still be served promptly.
    let first = conns.first_mut().unwrap();
    first.simple_query("CREATE TABLE soak (a int)").unwrap();
    let t0 = Instant::now();
    for i in 0..20 {
        first
            .simple_query(&format!("INSERT INTO soak (a) VALUES ({i})"))
            .unwrap();
    }
    let active_elapsed = t0.elapsed();
    assert!(
        active_elapsed < Duration::from_secs(10),
        "active client starved under idle soak: 20 statements took {active_elapsed:?}"
    );
    // Spot-check connections across the whole range (both mux threads).
    for i in [1usize, 100, 255, 256, 400, 511] {
        let r = conns[i].simple_query("SELECT COUNT(*) FROM soak").unwrap();
        assert_eq!(r.rows, vec![vec![Some("20".into())]], "conn {i}");
    }
    for c in conns {
        c.terminate().unwrap();
    }
    assert!(wait_for(Duration::from_secs(10), || {
        server.stats().live_connections == 0
    }));
}

#[test]
fn drain_during_flood_loses_no_acknowledged_statement() {
    let dir = std::env::temp_dir().join(format!("cryptdb-net-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = cryptdb_server::PersistConfig::new(&dir);
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    let limits = NetLimits {
        reader_threads: 2,
        ..NetLimits::default()
    };
    let acked: Vec<i64>;
    let report;
    {
        let (server, recovery) = NetServer::spawn_persistent_with(
            &persist,
            [7u8; 32],
            cfg.clone(),
            "127.0.0.1:0",
            limits,
        )
        .unwrap();
        assert_eq!(recovery.report.records_applied, 0);
        let addr = server.local_addr();
        let mut setup = NetClient::connect(addr, "setup", "").unwrap();
        setup.simple_query("CREATE TABLE acked (id int)").unwrap();
        setup.terminate().unwrap();

        // Four writers flood inserts with disjoint id ranges, recording
        // every id whose response arrived (the acknowledgement).
        let writers: Vec<_> = (0..4)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    let Ok(mut c) = NetClient::connect(addr, &format!("w{w}"), "") else {
                        return acked;
                    };
                    for k in 0..10_000i64 {
                        let id = (w as i64) * 1_000_000 + k;
                        match c.simple_query(&format!("INSERT INTO acked (id) VALUES ({id})")) {
                            Ok(_) => acked.push(id),
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();

        // Let the flood build, then drain mid-flight.
        std::thread::sleep(Duration::from_millis(400));
        report = server.drain(Duration::from_secs(10));
        acked = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
    }
    assert!(report.wal_synced, "drain must end with a successful fsync");
    assert!(
        !acked.is_empty(),
        "the flood must acknowledge some inserts before the drain"
    );
    assert!(report.drained_connections + report.aborted_connections >= 1);

    // WAL recovery oracle: every acknowledged insert survives.
    let (proxy, recovery) = cryptdb_server::open_persistent(&persist, [7u8; 32], cfg).unwrap();
    assert!(!recovery.report.corruption_detected);
    let r = proxy.execute("SELECT id FROM acked").unwrap();
    let recovered: std::collections::HashSet<i64> = r
        .rows()
        .iter()
        .map(|row| row[0].as_int().unwrap())
        .collect();
    for id in &acked {
        assert!(
            recovered.contains(id),
            "acknowledged insert {id} was lost across drain + recovery \
             ({} acked, {} recovered)",
            acked.len(),
            recovered.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rollback_is_never_shed_while_degraded() {
    // A session holding an open transaction when the disk fails must be
    // able to ROLLBACK while the engine is degraded: transaction-control
    // verbs bypass the probe-every-4 shedding and always reach the
    // engine, which answers deterministically (53100 with the
    // transaction intact while appends still fail, ROLLBACK once they
    // succeed). A transient-EIO window is used rather than ENOSPC
    // because it fails appends regardless of record size (a tiny
    // ROLLBACK record could squeeze into an almost-full disk).
    let dir = std::env::temp_dir().join(format!("cryptdb-net-txshed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let proxy_cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    // Proxy startup appends internal records (key tables etc.), so the
    // attempt number of the first in-transaction INSERT is measured on
    // a fault-free twin run rather than hardcoded.
    let setup_appends = {
        let probe_dir = dir.join("probe");
        let (proxy, _) = cryptdb_server::open_persistent(
            &cryptdb_server::PersistConfig::new(&probe_dir),
            [7u8; 32],
            proxy_cfg.clone(),
        )
        .unwrap();
        proxy.execute("CREATE TABLE txq (id int)").unwrap();
        proxy.execute("BEGIN").unwrap();
        let n = proxy.engine().wal_seq();
        drop(proxy);
        let _ = std::fs::remove_dir_all(&probe_dir);
        n
    };
    let persist = cryptdb_server::PersistConfig {
        dir: dir.clone(),
        wal: cryptdb_engine::WalConfig {
            snapshot_every: None,
            // The window fails the in-transaction INSERT, the probe
            // INSERT and the first ROLLBACK; the append after it (the
            // second ROLLBACK) succeeds.
            fault: Some(cryptdb_engine::FaultPlan::eio_on_appends(
                setup_appends + 1,
                3,
            )),
            ..cryptdb_engine::WalConfig::default()
        },
    };
    let (server, _) = NetServer::spawn_persistent_with(
        &persist,
        [7u8; 32],
        proxy_cfg,
        "127.0.0.1:0",
        NetLimits::default(),
    )
    .unwrap();
    let mut c = NetClient::connect(server.local_addr(), "tx", "").unwrap();
    c.simple_query("CREATE TABLE txq (id int)").unwrap();
    c.simple_query("BEGIN").unwrap();
    // The disk starts failing inside the transaction: append failure #1
    // flips the engine into degraded read-only mode.
    match c.simple_query("INSERT INTO txq (id) VALUES (1)") {
        Err(WireError::Server { code, .. }) if code == "53100" => {}
        other => panic!("expected 53100 from the injected EIO, got {other:?}"),
    }
    // Degraded write #1 is the probe (append failure #2), #2 is shed at
    // the edge without reaching the WAL.
    for _ in 0..2 {
        match c.simple_query("INSERT INTO txq (id) VALUES (2)") {
            Err(WireError::Server { code, .. }) if code == "53100" => {}
            other => panic!("expected 53100 while degraded, got {other:?}"),
        }
    }
    // ROLLBACK passes through unconditionally. The first one draws the
    // window's last EIO and leaves the transaction intact; the second
    // appends successfully, closes the transaction and ends degraded
    // mode — were it shed like a plain write, it could not have reached
    // the engine here.
    match c.simple_query("ROLLBACK") {
        Err(WireError::Server { code, .. }) if code == "53100" => {}
        other => panic!("expected deterministic 53100 from the engine, got {other:?}"),
    }
    c.simple_query("ROLLBACK")
        .expect("ROLLBACK must reach the engine and succeed once appends do");
    let stats = server.stats();
    assert!(
        !stats.degraded,
        "the successful ROLLBACK append restores service"
    );
    assert_eq!(
        stats.shed_writes, 1,
        "only the one plain INSERT may be shed at the edge"
    );
    // The transaction really rolled back, and writes work again.
    let r = c.simple_query("SELECT COUNT(id) FROM txq").unwrap();
    assert_eq!(r.rows, vec![vec![Some("0".into())]]);
    c.simple_query("INSERT INTO txq (id) VALUES (1)").unwrap();
    let r = c.simple_query("SELECT COUNT(id) FROM txq").unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
    c.terminate().unwrap();
    assert!(server.drain(Duration::from_secs(10)).wal_synced);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_full_sheds_writes_cleanly_and_self_restores() {
    // ENOSPC fires mid-trace under the wire front-end: writes shed as
    // clean ERROR 53100 while reads keep answering on the same
    // connection, service restores itself once space clears — same
    // process, no restart — and no acknowledged statement is lost.
    let dir = std::env::temp_dir().join(format!("cryptdb-net-diskfull-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    let persist = cryptdb_server::PersistConfig {
        dir: dir.clone(),
        wal: cryptdb_engine::WalConfig {
            fsync: cryptdb_engine::FsyncPolicy::Always,
            snapshot_every: None,
            // The disk "fills" ~4 KiB in and frees after three rejected
            // appends; with probe-every-4 shedding, clearing takes a
            // dozen-odd client writes.
            fault: Some(cryptdb_engine::FaultPlan::enospc_clearing(4096, 3)),
            ..cryptdb_engine::WalConfig::default()
        },
    };
    let (server, _) = NetServer::spawn_persistent_with(
        &persist,
        [7u8; 32],
        cfg.clone(),
        "127.0.0.1:0",
        NetLimits::default(),
    )
    .unwrap();
    let mut c = NetClient::connect(server.local_addr(), "df", "").unwrap();
    c.simple_query("CREATE TABLE acked (id int)").unwrap();
    let mut acked = Vec::new();
    let mut sheds = 0usize;
    let mut last_write_ok = false;
    for id in 0..60i64 {
        match c.simple_query(&format!("INSERT INTO acked (id) VALUES ({id})")) {
            Ok(_) => acked.push(id),
            Err(WireError::Server { code, .. }) if code == "53100" => {
                sheds += 1;
                // Degraded means read-only, not down.
                c.simple_query("SELECT COUNT(id) FROM acked")
                    .unwrap_or_else(|e| panic!("read refused while degraded: {e}"));
            }
            Err(e) => panic!("insert {id}: expected success or ERROR 53100, got {e}"),
        }
        last_write_ok = acked.last() == Some(&id);
    }
    assert!(sheds > 0, "the injected ENOSPC must shed some writes");
    let stats = server.stats();
    assert!(
        last_write_ok && !stats.degraded,
        "service must self-restore once space clears"
    );
    c.terminate().unwrap();
    assert!(server.drain(Duration::from_secs(10)).wal_synced);

    let (proxy, recovery) =
        cryptdb_server::open_persistent(&cryptdb_server::PersistConfig::new(&dir), [7u8; 32], cfg)
            .unwrap();
    assert!(!recovery.report.corruption_detected);
    let r = proxy.execute("SELECT id FROM acked").unwrap();
    let recovered: std::collections::HashSet<i64> = r
        .rows()
        .iter()
        .map(|row| row[0].as_int().unwrap())
        .collect();
    for id in &acked {
        assert!(recovered.contains(id), "acknowledged insert {id} was lost");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admitted_p99_holds_under_a_reconnect_flood() {
    // The cap is filled by admitted clients timing a HOM SUM while 2x
    // the cap in paced reconnect loops hammer the accept edge: every
    // over-cap attempt must shed as a clean FATAL 53300, admitted
    // statements must stay error-free, and (in an optimised build)
    // admitted p99 under the flood must stay within 5x of unloaded p99.
    // Unloaded and flooded rounds alternate so load from the binary's
    // other tests falls on both sides.
    const CAP: usize = 4;
    const FLOODERS: usize = 8;
    const ROUNDS: usize = 5;
    const REPS_PER_ROUND: usize = 10;
    let mut policy = std::collections::HashMap::new();
    policy.insert("ov".to_string(), vec!["val".to_string()]);
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(policy),
        paillier_bits: 256,
        ..Default::default()
    };
    let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg));
    proxy.execute("CREATE TABLE ov (id int, val int)").unwrap();
    let values: Vec<String> = (0..128).map(|i| format!("({i}, {i})")).collect();
    proxy
        .execute(&format!(
            "INSERT INTO ov (id, val) VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    proxy.hom_pool_wait_ready();
    let limits = NetLimits {
        max_connections: CAP,
        reader_threads: 2,
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(proxy, "127.0.0.1:0", limits).unwrap();
    let addr = server.local_addr();
    let mut admitted: Vec<NetClient> = (0..CAP)
        .map(|i| NetClient::connect(addr, &format!("adm{i}"), "").unwrap())
        .collect();
    // One round of the timed query on every admitted connection at once;
    // returns the errors and appends the latencies to `lats`.
    let timed = |conns: &mut Vec<NetClient>, lats: &mut Vec<u64>| -> usize {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        (0..REPS_PER_ROUND)
                            .map(|_| {
                                let t = Instant::now();
                                let err = c.simple_query("SELECT SUM(val) FROM ov WHERE id < 64");
                                (t.elapsed().as_nanos() as u64, err.is_err())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut errors = 0;
            for h in handles {
                for (ns, err) in h.join().unwrap() {
                    lats.push(ns);
                    errors += usize::from(err);
                }
            }
            errors
        })
    };
    let (mut unloaded, mut flooded) = (Vec::new(), Vec::new());
    let (mut clean, mut dirty, mut errors) = (0usize, 0usize, 0usize);
    for _ in 0..ROUNDS {
        errors += timed(&mut admitted, &mut unloaded);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let flooders: Vec<_> = (0..FLOODERS)
                .map(|i| {
                    let stop = &stop;
                    s.spawn(move || {
                        let (mut clean, mut dirty) = (0usize, 0usize);
                        while !stop.load(Ordering::Relaxed) {
                            match NetClient::connect(addr, &format!("fl{i}"), "") {
                                Err(WireError::Server { code, .. }) if code == "53300" => {
                                    clean += 1
                                }
                                Ok(c) => {
                                    dirty += 1; // Admitted past a full cap.
                                    let _ = c.terminate();
                                }
                                Err(_) => dirty += 1, // Reset/hang, not FATAL 53300.
                            }
                            // Paced, so on a small host the flood measures
                            // the edge's shedding, not CPU theft by the
                            // flooder threads.
                            std::thread::sleep(Duration::from_millis(3));
                        }
                        (clean, dirty)
                    })
                })
                .collect();
            // Let the flood establish before timing admitted work.
            std::thread::sleep(Duration::from_millis(100));
            errors += timed(&mut admitted, &mut flooded);
            stop.store(true, Ordering::Relaxed);
            for f in flooders {
                let (c, d) = f.join().unwrap();
                clean += c;
                dirty += d;
            }
        });
    }
    assert!(clean > 0, "the flood must reach the full cap");
    assert_eq!(dirty, 0, "over-cap connections must shed as FATAL 53300");
    assert_eq!(
        errors, 0,
        "admitted statements must not fail under the flood"
    );
    for c in admitted {
        c.terminate().unwrap();
    }
    unloaded.sort_unstable();
    flooded.sort_unstable();
    let p99 = |sorted: &[u64]| percentile(sorted, 0.99).max(1) as f64;
    let ratio = p99(&flooded) / p99(&unloaded);
    eprintln!("overload_p99_ratio = {ratio:.2}");
    if !cfg!(debug_assertions) {
        assert!(
            ratio <= 5.0,
            "admitted p99 degraded {ratio:.2}x under the flood"
        );
    }
}

/// Which batches a mux thread runs itself: with the only worker held,
/// a bounded prepared read on a quiet connection still answers, while
/// a prepared write, a prepared HOM `SUM`, a batch holding a `Parse`
/// and an `Execute` of a plan that DDL made stale all wait for the
/// worker — and so does a bounded read pipelined behind any of them,
/// which answers after it, in submission order.
#[test]
fn only_bounded_reads_on_quiet_connections_skip_the_worker() {
    const GET: &str = "SELECT owner FROM acct WHERE id = $1";
    let proxy = one_worker_proxy();
    let server = NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", NetLimits::default()).unwrap();
    let addr = server.local_addr();
    let mut setup = RawConn::open(addr);
    for sql in [
        "CREATE TABLE acct (id int, owner text, bal int)",
        "INSERT INTO acct (id, owner, bal) VALUES (1, 'ann', 5), (2, 'bob', 7)",
        // Expose every onion level the statements below use, so no
        // later prepare adjusts one and moves the schema epoch; this
        // also puts the point read's bound id in the constant cache.
        "SELECT owner FROM acct WHERE id = 2",
        "SELECT owner FROM acct WHERE bal = 5",
        "SELECT SUM(bal) FROM acct WHERE owner = 'ann'",
    ] {
        setup.send(&wire(&[query(sql)]));
        assert!(tags(&setup.read_cycles(1)).ends_with("CZ"), "{sql}");
    }
    let mut stale = RawConn::open(addr);
    stale.prepare("old", "SELECT owner FROM acct WHERE bal = $1");
    let epoch = proxy.schema_epoch();
    setup.send(&wire(&[query("CREATE TABLE other (x int)")]));
    setup.read_cycles(1);
    assert!(proxy.schema_epoch() > epoch, "DDL must move the epoch");

    let mut write = RawConn::open(addr);
    write.prepare(
        "ins",
        "INSERT INTO acct (id, owner, bal) VALUES ($1, $2, $3)",
    );
    let mut sum = RawConn::open(addr);
    sum.prepare("total", "SELECT SUM(bal) FROM acct WHERE owner = $1");
    let parsing = RawConn::open(addr);
    let mut point = RawConn::open(addr);
    let mut waiting = [
        (
            write,
            vec![
                bind("", "ins", &[Some("3"), Some("cy"), Some("9")]),
                execute(""),
                sync(),
            ],
            "2CZ",
        ),
        (
            sum,
            vec![bind("", "total", &[Some("ann")]), execute(""), sync()],
            "2TDCZ",
        ),
        (
            parsing,
            vec![
                parse("again", GET),
                bind("", "again", &[Some("1")]),
                execute(""),
                sync(),
            ],
            "12TDCZ",
        ),
        (
            stale,
            vec![bind("", "old", &[Some("5")]), execute(""), sync()],
            "2TDCZ",
        ),
    ];
    // Prepared last, so nothing after it moves the epoch.
    for (conn, _, _) in &mut waiting {
        conn.prepare("get", GET);
    }
    point.prepare("get", GET);
    let read = [bind("", "get", &[Some("2")]), execute(""), sync()];

    let gate = hold_worker(&proxy);
    point.send(&wire(&read));
    assert!(
        !point.silent_for(Duration::from_secs(5)),
        "a bounded read on a quiet connection waited for the worker"
    );
    let answer = point.read_cycles(1);
    assert_eq!(tags(&answer), "2TDCZ");
    assert!(answer.windows(3).any(|w| w == b"bob"));

    for (conn, batch, _) in &mut waiting {
        conn.send(&wire(batch));
        conn.send(&wire(&read));
    }
    for (conn, batch, _) in &mut waiting {
        assert!(
            conn.silent_for(Duration::from_millis(200)),
            "{} ran without the worker",
            tags(&wire(batch))
        );
    }
    gate.send(()).unwrap();
    for (conn, batch, shape) in &mut waiting {
        let first = conn.read_cycles(1);
        assert_eq!(tags(&first), *shape, "answer to {}", tags(&wire(batch)));
        let second = conn.read_cycles(1);
        assert_eq!(tags(&second), "2TDCZ");
        assert!(second.windows(3).any(|w| w == b"bob"));
    }
}

/// The mux thread is bounded by what a read scans, not by what it
/// returns: with the only worker held, a prepared range read over a
/// three-row table answers on a quiet connection, while the same read
/// over a table larger than the mux thread's cell budget — a full scan,
/// with or without a `LIMIT` — waits for the worker, then answers.
#[test]
fn full_scans_over_the_cell_budget_wait_for_the_worker() {
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(Default::default()),
        paillier_bits: 256,
        runtime_threads: 1,
    };
    let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg));
    let server = NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", NetLimits::default()).unwrap();
    let addr = server.local_addr();
    let mut setup = RawConn::open(addr);
    let rows: Vec<String> = (1..=300).map(|n| format!("({n})")).collect();
    for sql in [
        "CREATE TABLE small (n int)".to_string(),
        "CREATE TABLE big (n int)".to_string(),
        "INSERT INTO small (n) VALUES (1), (2), (3)".to_string(),
        format!("INSERT INTO big (n) VALUES {}", rows.join(", ")),
    ] {
        setup.send(&wire(&[query(&sql)]));
        assert!(tags(&setup.read_cycles(1)).ends_with("CZ"), "{sql}");
    }
    let mut small = RawConn::open(addr);
    small.prepare("s", "SELECT n FROM small WHERE n > $1");
    let mut scan = RawConn::open(addr);
    scan.prepare("s", "SELECT n FROM big WHERE n > $1");
    let mut top = RawConn::open(addr);
    top.prepare("s", "SELECT n FROM big WHERE n > $1 ORDER BY n LIMIT 1");
    let read = [bind("", "s", &[Some("0")]), execute(""), sync()];

    let gate = hold_worker(&proxy);
    small.send(&wire(&read));
    assert!(
        !small.silent_for(Duration::from_secs(5)),
        "a three-row scan waited for the worker"
    );
    assert_eq!(tags(&small.read_cycles(1)), "2TDDDCZ");
    for conn in [&mut scan, &mut top] {
        conn.send(&wire(&read));
        assert!(
            conn.silent_for(Duration::from_millis(200)),
            "a 300-row scan ran on the mux thread"
        );
    }
    gate.send(()).unwrap();
    assert_eq!(
        tags(&scan.read_cycles(1)),
        format!("2T{}CZ", "D".repeat(300))
    );
    assert_eq!(tags(&top.read_cycles(1)), "2TDCZ");
}
