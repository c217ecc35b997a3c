//! End-to-end serving-layer tests: per-session counts, fan-out liveness on
//! the shared worker pool, and concurrent-vs-serial-oracle consistency
//! on the mixed multi-app trace.

use cryptdb_apps::mixed::{self, MixedScale};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_engine::Engine;
use cryptdb_server::{canonical_dump, replay_serial, Server, SessionTrace};
use std::sync::Arc;

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

fn mixed_traces(scale: &MixedScale, sessions: usize, steps: usize) -> Vec<SessionTrace> {
    (0..sessions)
        .map(|i| SessionTrace::new(format!("s{i}"), mixed::session_trace(5, i, steps, scale)))
        .collect()
}

#[test]
fn serve_reports_per_session_stats() {
    let proxy = mixed_proxy();
    proxy
        .execute("CREATE TABLE kv (id int, note text)")
        .unwrap();
    let traces: Vec<SessionTrace> = (0..3)
        .map(|s| {
            let mut stmts = Vec::new();
            for i in 0..8 {
                let id = s * 100 + i;
                stmts.push(format!(
                    "INSERT INTO kv (id, note) VALUES ({id}, 'note {id}')"
                ));
                stmts.push(format!("SELECT note FROM kv WHERE id = {id}"));
            }
            SessionTrace::new(format!("session-{s}"), stmts)
        })
        .collect();
    let server = Server::new(proxy);
    let report = server.serve(traces);
    assert_eq!(report.sessions.len(), 3);
    assert_eq!(report.queries, 3 * 16);
    assert_eq!(report.errors, 0);
    let names: Vec<&str> = report.sessions.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["session-0", "session-1", "session-2"]);
    for s in &report.sessions {
        assert_eq!(s.queries, 16, "{}: wrong count", s.name);
        assert_eq!(s.errors, 0);
    }
    // Every row must have landed exactly once.
    let r = server.proxy().execute("SELECT COUNT(*) FROM kv").unwrap();
    assert_eq!(r.scalar().and_then(cryptdb_engine::Value::as_int), Some(24));
}

#[test]
fn concurrent_serving_matches_serial_oracle() {
    let scale = MixedScale::default();

    // Concurrent run: 4 sessions interleaving on the shared proxy.
    let concurrent = mixed_proxy();
    prepare(&concurrent, &scale);
    let report = Server::new(concurrent.clone()).serve(mixed_traces(&scale, 4, 8));
    assert_eq!(report.errors, 0, "concurrent run must be error-free");

    // Serial oracle: identical traces, replayed one session at a time
    // on a fresh proxy.
    let oracle = mixed_proxy();
    prepare(&oracle, &scale);
    let traces = mixed_traces(&scale, 4, 8);
    let (queries, errors) = replay_serial(&oracle, &traces);
    assert_eq!(queries, report.queries, "trace sets must be identical");
    assert_eq!(errors, 0);

    let concurrent_dump = canonical_dump(&concurrent).unwrap();
    let oracle_dump = canonical_dump(&oracle).unwrap();
    assert!(
        !concurrent_dump.is_empty() && concurrent_dump.contains("== warehouse =="),
        "dump must cover the mixed schema"
    );
    assert_eq!(
        concurrent_dump, oracle_dump,
        "interleaved execution diverged from the serial oracle"
    );
}

#[test]
fn panicking_responder_does_not_wedge_wait_idle() {
    use cryptdb_server::StatementSession;
    let proxy = mixed_proxy();
    proxy.execute("CREATE TABLE t (a int)").unwrap();
    let session = StatementSession::new(proxy);
    session.submit("INSERT INTO t (a) VALUES (1)".into(), |_res, _ns| {
        panic!("responder blew up");
    });
    // The pool contains the panic per job; the poison guard must still
    // release the chain, or this call blocks forever.
    session.wait_idle();
    // The session is closed by the poison guard: later submissions are
    // dropped rather than executed against a half-torn-down chain.
    session.submit("INSERT INTO t (a) VALUES (2)".into(), |_res, _ns| {});
    session.wait_idle();
}

#[test]
fn sessions_outnumbering_workers_complete() {
    // More sessions than pool threads: chains must interleave on the
    // queue without wedging (runtime_threads = 1 forces the worst case).
    // `acct.bal` is encrypted, so the SUMs decrypt HOM cells on the same
    // pool threads, and the GROUP BY decrypts one per group.
    for runtime_threads in [1, 2] {
        let mut columns = mixed::encrypted_columns();
        columns.insert("acct".into(), vec!["bal".into()]);
        let cfg = ProxyConfig {
            policy: EncryptionPolicy::Explicit(columns),
            paillier_bits: 256,
            runtime_threads,
        };
        let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [9u8; 32], cfg));
        proxy
            .execute("CREATE TABLE acct (id int, bal int)")
            .unwrap();
        let traces: Vec<SessionTrace> = (0..6)
            .map(|s| {
                let mut stmts = Vec::new();
                for i in 0..4 {
                    stmts.push(format!(
                        "INSERT INTO acct (id, bal) VALUES ({}, {})",
                        s * 10 + i,
                        100 * s
                    ));
                    stmts.push("SELECT SUM(bal) FROM acct".to_string());
                }
                // At least this session's four ids: four HOM cells.
                stmts.push("SELECT id, SUM(bal) FROM acct GROUP BY id".to_string());
                SessionTrace::new(format!("s{s}"), stmts)
            })
            .collect();
        let report = Server::new(proxy).serve(traces);
        assert_eq!(report.errors, 0, "runtime_threads = {runtime_threads}");
        assert_eq!(report.queries, 6 * 9);
    }
}
