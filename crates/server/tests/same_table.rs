//! Same-table contention battery: N concurrent sessions hammer ONE
//! table through the serving layer with a seeded INSERT / UPDATE /
//! DELETE / SELECT / SUM mix, then the decrypted full-database state is
//! byte-compared against a serial oracle replay of the identical
//! traces. The per-session traces commute (each session owns an id
//! partition), so any divergence is a real bug in the engine's sharded
//! row locking or the proxy's shared state.
//!
//! The scaling bars live here too: four sessions must serve the mixed
//! trace at twice one session's throughput, and four raw threads must
//! write one engine table at twice one thread's rate. Both are timed in
//! one test body, so they never compete with each other for cores.

use cryptdb_apps::mixed::{self, MixedScale};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_engine::{Engine, Value};
use cryptdb_server::{canonical_dump, replay_serial, Server, SessionTrace};
use cryptdb_sqlparser::Stmt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
const OPS_PER_SESSION: usize = 48;
const SEED: u64 = 0xC0DE_2026;

fn test_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256, // Small key: this is a correctness test.
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [9u8; 32], cfg))
}

/// Creates the one shared table and pre-adjusts every onion the traces
/// need (equality on id/owner, SUM and increment on bal, deletes), so
/// no session races an onion adjustment mid-run.
fn setup(proxy: &Proxy) {
    for stmt in [
        "CREATE TABLE acct (id int, owner text, bal int, note text)",
        "INSERT INTO acct (id, owner, bal, note) VALUES (0, 'seed', 1, 'seed row')",
        "SELECT note FROM acct WHERE id = 0",
        "SELECT SUM(bal) FROM acct WHERE owner = 'seed'",
        "UPDATE acct SET bal = bal + 1 WHERE id = 0",
        "DELETE FROM acct WHERE id = -1",
    ] {
        proxy
            .execute(stmt)
            .unwrap_or_else(|e| panic!("setup: {e}: {stmt}"));
    }
}

/// Session `s`'s seeded trace against the shared table. Each session
/// inserts into its own id partition and only updates/deletes rows it
/// owns, so traces commute and the final state is schedule-independent.
fn session_trace(s: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let base = 10_000 * (s as i64 + 1);
    let mut live: Vec<i64> = Vec::new();
    let mut next = 0i64;
    let mut stmts = Vec::with_capacity(OPS_PER_SESSION);
    for _ in 0..OPS_PER_SESSION {
        let roll = rng.gen_range(0u32..100);
        if roll < 40 || live.is_empty() {
            let id = base + next;
            next += 1;
            stmts.push(format!(
                "INSERT INTO acct (id, owner, bal, note) VALUES \
                 ({id}, 'sess{s}', {}, 'entry {id}')",
                rng.gen_range(0i64..1000)
            ));
            live.push(id);
        } else if roll < 60 {
            let id = live[rng.gen_range(0usize..live.len())];
            stmts.push(format!(
                "UPDATE acct SET bal = bal + {} WHERE id = {id}",
                rng.gen_range(1i64..50)
            ));
        } else if roll < 75 {
            let i = rng.gen_range(0usize..live.len());
            let id = live.remove(i);
            stmts.push(format!("DELETE FROM acct WHERE id = {id}"));
        } else if roll < 90 {
            let id = live[rng.gen_range(0usize..live.len())];
            stmts.push(format!("SELECT note, bal FROM acct WHERE id = {id}"));
        } else {
            stmts.push(format!("SELECT SUM(bal) FROM acct WHERE owner = 'sess{s}'"));
        }
    }
    stmts
}

fn traces(seed: u64) -> Vec<SessionTrace> {
    (0..SESSIONS)
        .map(|s| SessionTrace::new(format!("sess{s}"), session_trace(s, seed)))
        .collect()
}

#[test]
fn same_table_sessions_match_serial_oracle() {
    // Concurrent run through the serving layer's shared worker pool.
    let concurrent = test_proxy();
    setup(&concurrent);
    let server = Server::new(concurrent.clone());
    let report = server.serve(traces(SEED));
    assert_eq!(report.queries, SESSIONS * OPS_PER_SESSION);
    assert_eq!(report.errors, 0, "concurrent run must be error-free");

    // Serial oracle: identical traces, one session at a time.
    let oracle = test_proxy();
    setup(&oracle);
    let (queries, errors) = replay_serial(&oracle, &traces(SEED));
    assert_eq!(queries, SESSIONS * OPS_PER_SESSION);
    assert_eq!(errors, 0, "serial oracle must be error-free");

    let got = canonical_dump(&concurrent).unwrap();
    let want = canonical_dump(&oracle).unwrap();
    assert_eq!(
        got, want,
        "concurrent same-table state diverged from serial oracle"
    );

    // The per-session balances must also agree after the dust settles.
    for s in 0..SESSIONS {
        let q = format!("SELECT SUM(bal) FROM acct WHERE owner = 'sess{s}'");
        let a = concurrent.execute(&q).unwrap();
        let b = oracle.execute(&q).unwrap();
        assert_eq!(
            a.scalar().and_then(Value::as_int),
            b.scalar().and_then(Value::as_int),
            "session {s} balance"
        );
    }
}

/// Races each cell writer against the first equality on the column it
/// writes. That equality peels the column's Eq onion (RND → DET) while
/// the writer encrypts; a cell encrypted at RND but written after the
/// peel would be invisible to every later equality.
#[test]
fn cell_writers_never_race_an_onion_peel() {
    const ROWS: i64 = 40;
    type Write = fn(i64) -> String;
    let writers: [(&str, Write); 2] = [
        ("INSERT", |i| {
            format!("INSERT INTO t (id, a) VALUES ({i}, {i})")
        }),
        ("UPDATE", |i| format!("UPDATE t SET a = {i} WHERE id = {i}")),
    ];
    let mut problems = Vec::new();
    for (writer, write) in writers {
        let proxy = test_proxy();
        let mut setup = vec![
            "CREATE TABLE t (id int, a int)".to_string(),
            "INSERT INTO t (id, a) VALUES (0, 0)".to_string(),
            "SELECT a FROM t WHERE id = 0".to_string(),
        ];
        if writer == "UPDATE" {
            setup.extend((1..=ROWS).map(|i| format!("INSERT INTO t (id, a) VALUES ({i}, -{i})")));
        }
        for sql in &setup {
            proxy.execute(sql).unwrap();
        }
        let written = AtomicI64::new(0);
        let peeled_at = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=ROWS {
                    proxy.execute(&write(i)).unwrap();
                    written.store(i, Ordering::Release);
                }
            });
            while written.load(Ordering::Acquire) < ROWS / 2 {
                std::thread::yield_now();
            }
            let first = proxy.execute("SELECT id FROM t WHERE a = 0").unwrap();
            assert_eq!(first.rows(), [vec![Value::Int(0)]], "{writer}");
            written.load(Ordering::Acquire)
        });
        eprintln!("{writer}: the peel finished after {peeled_at}/{ROWS} writes");
        let missing: Vec<i64> = (1..=ROWS)
            .filter(|i| {
                let r = proxy
                    .execute(&format!("SELECT id FROM t WHERE a = {i}"))
                    .unwrap();
                r.rows() != [vec![Value::Int(*i)]]
            })
            .collect();
        if !missing.is_empty() {
            problems.push(format!("{writer}: equality misses rows {missing:?}"));
        }
    }
    assert!(
        problems.is_empty(),
        "written across the peel:\n{}",
        problems.join("\n")
    );
}

/// A fresh proxy over the mixed tpcc + phpbb + hotcrp database, loaded,
/// trained and with its blinding pool full.
fn mixed_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(mixed::encrypted_columns()),
        paillier_bits: 256,
        ..Default::default()
    };
    let proxy = Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg));
    let scale = MixedScale::default();
    for stmt in mixed::setup_statements(17, &scale)
        .into_iter()
        .chain(mixed::training_statements(&scale))
    {
        proxy
            .execute(&stmt)
            .unwrap_or_else(|e| panic!("setup: {e}: {stmt}"));
    }
    proxy.hom_pool_wait_ready();
    proxy
}

/// Serves eight fixed mixed traces split round-robin over `sessions`
/// sessions (each trace keeps its order; traces commute), so every
/// level runs identical work. Returns the time `serve` took and the
/// proxy's worker count.
fn serve_mixed(sessions: usize) -> (Duration, usize) {
    let scale = MixedScale::default();
    let base: Vec<Vec<String>> = (0..8)
        .map(|i| mixed::session_trace(2026, i, 10, &scale))
        .collect();
    let traces = (0..sessions)
        .map(|j| {
            let stmts = base.iter().skip(j).step_by(sessions).flatten().cloned();
            SessionTrace::new(format!("s{j}"), stmts.collect())
        })
        .collect();
    let server = Server::new(mixed_proxy());
    let t0 = Instant::now();
    let report = server.serve(traces);
    let elapsed = t0.elapsed();
    assert_eq!(
        report.errors, 0,
        "{sessions}-session run must be error-free"
    );
    (elapsed, server.proxy().runtime().threads())
}

/// Pre-parsed plaintext INSERT / point-UPDATE traces against one table,
/// one per writer thread; each thread owns an id partition, so the
/// traces commute.
fn contend_traces(threads: usize, ops: usize) -> Vec<Vec<Stmt>> {
    (0..threads)
        .map(|t| {
            let base = 100_000 * (t as i64 + 1);
            let mut next = 0i64;
            (0..ops)
                .map(|i| {
                    let sql = if i % 4 == 3 {
                        let id = base + (i as i64 % next.max(1));
                        format!("UPDATE contend SET v = v + {} WHERE id = {id}", i % 7 + 1)
                    } else {
                        next += 1;
                        format!(
                            "INSERT INTO contend (id, v, tag) VALUES ({}, {}, 'w{t}-{i}')",
                            base + next - 1,
                            (i as i64 * 3) % 97
                        )
                    };
                    cryptdb_sqlparser::parse_statement(&sql).unwrap()
                })
                .collect()
        })
        .collect()
}

/// Runs every trace against a fresh engine, on one thread in trace
/// order or one raw thread per trace. Returns the time taken and the
/// ordered dump.
fn write_contend(traces: &[Vec<Stmt>], threaded: bool) -> (Duration, String) {
    let engine = Engine::new();
    engine
        .execute_sql("CREATE TABLE contend (id int, v int, tag text)")
        .unwrap();
    engine.execute_sql("CREATE INDEX ON contend (id)").unwrap();
    let run = |trace: &Vec<Stmt>| {
        for stmt in trace {
            engine.execute(stmt).expect("same-table write");
        }
    };
    let t0 = Instant::now();
    if threaded {
        std::thread::scope(|s| {
            for trace in traces {
                s.spawn(|| run(trace));
            }
        });
    } else {
        traces.iter().for_each(run);
    }
    let elapsed = t0.elapsed();
    // Rowids interleave differently across schedules; ORDER BY id
    // canonicalizes the dump.
    let dump = engine
        .execute_sql("SELECT id, v, tag FROM contend ORDER BY id")
        .unwrap()
        .canonical_text();
    (elapsed, dump)
}

#[test]
fn four_sessions_and_four_writers_scale() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The 2x bars need an optimised build and real parallelism; the
    // error and parity bars hold everywhere.
    let optimised = !cfg!(debug_assertions);

    // Both levels alternate in rounds, summed, so load from the
    // binary's other test falls on both.
    let rounds = if optimised { 3 } else { 1 };
    let (mut one, mut four, mut workers) = (Duration::ZERO, Duration::ZERO, 0);
    for _ in 0..rounds {
        one += serve_mixed(1).0;
        let (elapsed, threads) = serve_mixed(4);
        four += elapsed;
        workers = threads;
    }
    let scaling_4_vs_1 = one.as_secs_f64() / four.as_secs_f64();
    eprintln!("scaling_4_vs_1 = {scaling_4_vs_1:.2} ({host} hardware threads, {workers} workers)");
    if optimised && host >= 4 && workers >= 4 {
        assert!(
            scaling_4_vs_1 >= 2.0,
            "4 sessions served only {scaling_4_vs_1:.2}x one session's throughput"
        );
    }

    // Same-table writers: the hash-sharded row store must let them run
    // on separate cores. Serial and threaded runs alternate likewise.
    let traces = contend_traces(4, 5_000);
    let (mut serial, mut threaded) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds + 2 {
        let (t1, want) = write_contend(&traces, false);
        let (t4, got) = write_contend(&traces, true);
        assert_eq!(got, want, "same-table writers diverged from the serial run");
        serial += t1;
        threaded += t4;
    }
    let write_scaling = serial.as_secs_f64() / threaded.as_secs_f64();
    eprintln!("same_table_write_scaling = {write_scaling:.2}");
    if optimised && host >= 4 {
        assert!(
            write_scaling >= 2.0,
            "4 same-table writers ran only {write_scaling:.2}x one writer"
        );
    }
}
