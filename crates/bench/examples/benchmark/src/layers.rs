//! The traced pass: where an op's time goes, measured from outside by
//! timing calls into each crate's public functions.
//!
//! Three parts. (1) Slices of the workload's own op stream are replayed
//! at three depths below the wire — `StatementSession::submit`,
//! `Proxy::execute`/`execute_prepared`, pre-parsed statements on the
//! plaintext twin — and every call becomes a span. (2) The eight
//! Fig. 11/12 query classes run through proxy and twin, which gives the
//! per-class cost table on every workload. (3) The primitives under
//! them are timed alone. Spans inside the program are a later issue.

use crate::drive::Phase;
use crate::gen::{Call, Class, Dataset, Workload, TPCC_SCALE};
use crate::stats::{median_f64, median_u64, Metric};
use cryptdb_apps::mixed::MixedScale;
use cryptdb_apps::tpcc;
use cryptdb_bignum::{Montgomery, Ubig};
use cryptdb_core::colcrypt::{encrypt_cell, ColumnKeys, OnionSet};
use cryptdb_core::proxy::{PreparedStatement, Proxy};
use cryptdb_core::{EqLevel, OrdLevel};
use cryptdb_crypto::modes::{cbc_encrypt, cmc_encrypt};
use cryptdb_crypto::{Aes, Blowfish};
use cryptdb_ecgroup::{JoinAdj, JoinKey};
use cryptdb_engine::{Engine, FsyncPolicy, Value, WalConfig};
use cryptdb_net::NetClient;
use cryptdb_paillier::PaillierPrivate;
use cryptdb_search::{matches_any, SearchKey};
use cryptdb_server::StatementSession;
use cryptdb_sqlparser::{parse_statement, BinOp, ColumnType, Expr, Literal, Stmt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Layer of a span: the crate whose public entry point the span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A whole op over the wire (`NetClient`), all its round trips.
    NetOp,
    /// One round trip over the wire.
    NetCall,
    /// `StatementSession::submit` → responder.
    Server,
    /// `Proxy::execute` / `execute_prepared`.
    Core,
    /// The pre-parsed statement on the plaintext twin.
    Engine,
}

impl Layer {
    pub const NAMES: [&'static str; 5] = ["net.op", "net.call", "server", "core", "engine"];
}

/// One traced call. Times are ns since the process-wide trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op_id: u32,
    pub class: Class,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or -1.
    pub parent: i64,
}

/// Budget of one depth replay and of one class on the proxy side.
const DEPTH_BUDGET: Duration = Duration::from_millis(700);
const DEPTH_MAX_CALLS: usize = 3_000;
const CLASS_BUDGET: Duration = Duration::from_millis(300);
const CLASS_CALLS: usize = 200;
const PRIMITIVE_BUDGET: Duration = Duration::from_millis(80);

/// Median per-call ns of `f`, batching calls too short to time alone.
fn bench_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as u64;
    let batch = (20_000 / once).clamp(1, 4096) as usize;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 400) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median_f64(&mut samples)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Converts the traced wire phase into spans: one per op and one per
/// round trip under it.
pub fn wire_spans(phase: &Phase, offset_ns: u64, spans: &mut Vec<Span>) {
    let mut op_index = std::collections::HashMap::new();
    for op in &phase.ops {
        let id = (op.conn as u32) << 24 | op.seq;
        op_index.insert(id, spans.len() as i64);
        spans.push(Span {
            op_id: id,
            class: op.class,
            layer: Layer::NetOp,
            start_ns: offset_ns + op.start_ns,
            end_ns: offset_ns + op.end_ns,
            parent: -1,
        });
    }
    for call in &phase.calls {
        let id = (call.conn as u32) << 24 | call.seq;
        spans.push(Span {
            op_id: id,
            class: call.class,
            layer: Layer::NetCall,
            start_ns: offset_ns + call.start_ns,
            end_ns: offset_ns + call.end_ns,
            parent: op_index.get(&id).copied().unwrap_or(-1),
        });
    }
}

/// Median round-trip ns per class over the traced wire phase.
pub fn wire_class_medians(phase: &Phase) -> [f64; Class::COUNT] {
    let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); Class::COUNT];
    for c in &phase.calls {
        by_class[c.class.idx()].push(c.end_ns - c.start_ns);
    }
    let mut out = [0.0; Class::COUNT];
    for (i, v) in by_class.iter_mut().enumerate() {
        out[i] = median_u64(v) as f64;
    }
    out
}

/// What the depth replays feed into metrics (every call is also a
/// span, so per-class medians at each depth can be read off the trace).
struct Depths {
    /// Per class: submit→responder ns.
    session: Vec<Vec<u64>>,
    /// submit→responder minus the service time the responder reports.
    chain: Vec<u64>,
    /// `execute_prepared` ns (prepared workloads only).
    core_prepared: Vec<u64>,
    /// Per op that grew the log: WAL bytes added, plaintext bytes written.
    wal_bytes: Vec<u64>,
    plain_bytes: Vec<u64>,
}

fn literal_bytes(e: &Expr) -> u64 {
    match e {
        Expr::Literal(Literal::Str(s)) => s.len() as u64,
        Expr::Literal(Literal::Null) => 1,
        _ => 8,
    }
}

/// Plaintext bytes a statement writes (the twin's storage accounting:
/// 8 per int, the length per string).
fn plain_bytes_written(stmt: &Stmt) -> u64 {
    match stmt {
        Stmt::Insert(i) => i.rows.iter().flatten().map(literal_bytes).sum(),
        Stmt::Update(u) => u.sets.iter().map(|(_, e)| literal_bytes(e)).sum(),
        _ => 0,
    }
}

/// Replays disjoint slices of connection 0's stream, starting after the
/// last op the wire phases executed, at the three in-process depths.
fn replay_depths(
    proxy: &Arc<Proxy>,
    twin: &Engine,
    wl: &Workload,
    prepared: &[PreparedStatement],
    from: usize,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Depths {
    let stream = &wl.streams[0];
    let mut d = Depths {
        session: vec![Vec::new(); Class::COUNT],
        chain: Vec::new(),
        core_prepared: Vec::new(),
        wal_bytes: Vec::new(),
        plain_bytes: Vec::new(),
    };
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut pos = from;
    let mut span = |pos: usize, call: &Call, layer: Layer, start_ns: u64, end_ns: u64| {
        spans.push(Span {
            op_id: pos as u32,
            class: call.class,
            layer,
            start_ns,
            end_ns,
            parent: -1,
        });
    };

    // Depth 2: the server's session chain, one statement in flight.
    let session = StatementSession::new(proxy.clone());
    let t_depth = Instant::now();
    let mut calls = 0;
    while t_depth.elapsed() < DEPTH_BUDGET && calls < DEPTH_MAX_CALLS {
        for call in &stream[pos % stream.len()].calls {
            let (tx, rx) = channel();
            let start = Instant::now();
            let start_ns = now();
            let respond = move |r: Result<_, _>, service_ns: u64| {
                let _ = tx.send((Instant::now(), service_ns, r.is_ok()));
            };
            match &call.prepared {
                Some((shape, params)) => {
                    session.submit_prepared(prepared[*shape].clone(), params.clone(), respond)
                }
                None => session.submit(call.sql.clone(), respond),
            }
            let (end, service_ns, _) = rx.recv().expect("session responder ran");
            let total = (end - start).as_nanos() as u64;
            d.session[call.class.idx()].push(total);
            d.chain.push(total.saturating_sub(service_ns));
            span(pos, call, Layer::Server, start_ns, start_ns + total);
            calls += 1;
        }
        pos += 1;
    }
    session.wait_idle();

    // Depth 3: the proxy alone, on this thread.
    let t_depth = Instant::now();
    let mut calls = 0;
    while t_depth.elapsed() < DEPTH_BUDGET && calls < DEPTH_MAX_CALLS {
        let op = &stream[pos % stream.len()];
        let wal_before = proxy.engine().wal_len();
        for call in &op.calls {
            let start_ns = now();
            let t = Instant::now();
            let ok = match &call.prepared {
                Some((shape, params)) => proxy.execute_prepared(&prepared[*shape], params).is_ok(),
                None => proxy.execute(&call.sql).is_ok(),
            };
            let ns = t.elapsed().as_nanos() as u64;
            black_box(ok);
            if call.prepared.is_some() {
                d.core_prepared.push(ns);
            }
            span(pos, call, Layer::Core, start_ns, start_ns + ns);
            calls += 1;
        }
        // A rotation or a retention sweep shrinks the chain; only ops
        // that grew it tell how much they logged.
        let wal_after = proxy.engine().wal_len();
        if wal_after > wal_before {
            d.wal_bytes.push(wal_after - wal_before);
            d.plain_bytes.push(
                op.calls
                    .iter()
                    .filter_map(|c| parse_statement(&c.sql).ok())
                    .map(|s| plain_bytes_written(&s))
                    .sum(),
            );
        }
        pos += 1;
    }

    // Depth 4: the same statements, pre-parsed, on the plaintext twin.
    let t_depth = Instant::now();
    let mut calls = 0;
    while t_depth.elapsed() < DEPTH_BUDGET && calls < DEPTH_MAX_CALLS {
        for call in &stream[pos % stream.len()].calls {
            let Ok(stmt) = parse_statement(&call.sql) else {
                continue;
            };
            let start_ns = now();
            let t = Instant::now();
            black_box(twin.execute(&stmt).is_ok());
            let ns = t.elapsed().as_nanos() as u64;
            span(pos, call, Layer::Engine, start_ns, start_ns + ns);
            calls += 1;
        }
        pos += 1;
    }
    d
}

/// The row a key-equality `DELETE` removes, as the `INSERT` that puts
/// it (back): every `column = literal` conjunct becomes a column value.
fn row_of_delete(stmt: &Stmt) -> Option<String> {
    let Stmt::Delete(d) = stmt else {
        return None;
    };
    let mut columns = Vec::new();
    let mut values = Vec::new();
    d.selection.as_ref()?.walk(&mut |e| {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = e
        {
            if let (Expr::Column(c), Expr::Literal(_)) = (&**left, &**right) {
                columns.push(c.column.clone());
                values.push(right.to_string());
            }
        }
    });
    Some(format!(
        "INSERT INTO {} ({}) VALUES ({})",
        d.table,
        columns.join(", "),
        values.join(", ")
    ))
}

/// The Fig. 11/12 table: each class's statements through the proxy,
/// then the statements the proxy executed, pre-parsed, through the twin.
/// Returns per class (proxy ns, twin ns).
///
/// `new_order` holds 16 keys, so a generated `DELETE` would find its row
/// gone after the first few calls: each one's row is inserted first,
/// untimed, and the timed statement always removes a row.
fn class_table(proxy: &Proxy, twin: &Engine, wl: &Workload, seed: u64) -> Vec<(Class, f64, f64)> {
    let scale = match wl.dataset {
        Dataset::Tpcc => TPCC_SCALE,
        Dataset::Mixed => MixedScale::default().tpcc,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c1a5);
    Class::NAMED
        .iter()
        .map(|&class| {
            let kind = class.kind().expect("named classes map to query kinds");
            let mut executed = Vec::new();
            let mut enc = Vec::new();
            let t = Instant::now();
            while enc.len() < CLASS_CALLS && (t.elapsed() < CLASS_BUDGET || enc.len() < 10) {
                let sql = tpcc::gen_query(&mut rng, kind, &scale);
                let stmt = parse_statement(&sql).expect("generated SQL parses");
                let row = row_of_delete(&stmt);
                if let Some(row) = &row {
                    proxy.execute(row).expect("re-insert on proxy");
                }
                let t0 = Instant::now();
                black_box(proxy.execute(&sql).is_ok());
                enc.push(t0.elapsed().as_nanos() as u64);
                executed.push((stmt, row));
            }
            let mut plain = Vec::new();
            for (stmt, row) in &executed {
                if let Some(row) = row {
                    twin.execute_sql(row).expect("re-insert on twin");
                }
                let t0 = Instant::now();
                black_box(twin.execute(stmt).is_ok());
                plain.push(t0.elapsed().as_nanos() as u64);
            }
            (
                class,
                median_u64(&mut enc) as f64,
                median_u64(&mut plain) as f64,
            )
        })
        .collect()
}

/// WAL cost on a plaintext engine, so no crypto hides it: the same
/// INSERTs with and without a log (fsync `Never`), then a forced fsync
/// after each append.
fn wal_probe(run_dir: &Path) -> (f64, f64) {
    let dir = run_dir.join(format!("walprobe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL probe directory");
    let make = |wal: bool| {
        let e = Engine::new();
        if wal {
            let cfg = WalConfig {
                fsync: FsyncPolicy::Never,
                snapshot_every: None,
                ..WalConfig::default()
            };
            e.attach_wal(&dir, cfg).expect("attach probe WAL");
        }
        e.execute_sql("CREATE TABLE t (id int, v int, s text)")
            .expect("probe DDL");
        e
    };
    let stmts: Vec<Stmt> = (0..300)
        .map(|i| {
            parse_statement(&format!(
                "INSERT INTO t (id, v, s) VALUES ({i}, {}, 'payment memo')",
                i * 7
            ))
            .expect("probe SQL parses")
        })
        .collect();
    let time_inserts = |e: &Engine| {
        let mut ns: Vec<u64> = stmts
            .iter()
            .map(|s| {
                let t = Instant::now();
                black_box(e.execute(s).is_ok());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        median_u64(&mut ns) as f64
    };
    let bare = time_inserts(&make(false));
    let logged_engine = make(true);
    let logged = time_inserts(&logged_engine);
    let mut fsync: Vec<u64> = stmts
        .iter()
        .take(100)
        .map(|s| {
            black_box(logged_engine.execute(s).is_ok());
            let t = Instant::now();
            black_box(logged_engine.wal_sync().is_ok());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    drop(logged_engine);
    let _ = std::fs::remove_dir_all(&dir);
    ((logged - bare).max(0.0), median_u64(&mut fsync) as f64)
}

/// The primitives under the layers, each timed alone at the proxy's key
/// sizes.
fn primitives(paillier_bits: usize, out: &mut Vec<Metric>) {
    let mut rng = StdRng::seed_from_u64(0xbe_7c4);
    let b = PRIMITIVE_BUDGET;
    let sk = PaillierPrivate::keygen(&mut rng, paillier_bits);
    let pk = sk.public().clone();

    let blind = bench_ns(b * 2, || {
        black_box(sk.precompute_blinding_batch(&mut rng, 1));
    });
    out.push(Metric::new("paillier.blind_us", us(blind), "us"));
    let blinding = sk.precompute_blinding(&mut rng);
    let m = pk.encode_i64(42);
    let enc = bench_ns(b, || {
        black_box(pk.encrypt_with_blinding(black_box(&m), &blinding));
    });
    out.push(Metric::new("paillier.encrypt_us", us(enc), "us"));
    let ct = sk.encrypt_i64(42, &mut rng);
    let ct2 = sk.encrypt_i64(58, &mut rng);
    let dec = bench_ns(b * 2, || {
        black_box(sk.decrypt_i64(black_box(&ct)));
    });
    out.push(Metric::new("paillier.decrypt_us", us(dec), "us"));
    let add = bench_ns(b, || {
        black_box(pk.add(black_box(&ct), black_box(&ct2)));
    });
    out.push(Metric::new("paillier.add_us", us(add), "us"));

    let n = pk.modulus().clone();
    let mont = Montgomery::new(n.mul(&n));
    let x = mont.to_mont(&Ubig::rand_below(&mut rng, mont.modulus()));
    let y = mont.to_mont(&Ubig::rand_below(&mut rng, mont.modulus()));
    let mut prod = vec![0u64; mont.width()];
    let mut scratch = mont.scratch();
    let mm = bench_ns(b, || {
        mont.mont_mul(black_box(&x), black_box(&y), &mut prod, &mut scratch);
    });
    out.push(Metric::new("bignum.mont_mul_n2_ns", mm, "ns"));

    let keys = ColumnKeys::derive(&[9u8; 32], "bench", "col", None);
    let mut fresh = 1u64 << 40;
    let miss = bench_ns(b * 2, || {
        fresh += 7919;
        black_box(keys.ope_encrypt(fresh, true).is_ok());
    });
    out.push(Metric::new("ope.encrypt_miss_us", us(miss), "us"));
    let hit = bench_ns(b, || {
        black_box(keys.ope_encrypt(black_box(fresh), true).is_ok());
    });
    out.push(Metric::new("ope.encrypt_hit_us", us(hit), "us"));

    let bf = Blowfish::new(b"benchmark-det-int");
    let mut v = 0u64;
    let det_int = bench_ns(b, || {
        v = v.wrapping_add(0x9e37_79b9);
        black_box(bf.encrypt_u64(v));
    });
    out.push(Metric::new("crypto.det_int_us", us(det_int), "us"));
    let aes = Aes::new_128(b"benchmark-aes-16");
    let text = b"customer data blob";
    let det_text = bench_ns(b, || {
        black_box(cmc_encrypt(&aes, black_box(text)));
    });
    out.push(Metric::new("crypto.det_text_us", us(det_text), "us"));
    let iv = [3u8; 16];
    let rnd = bench_ns(b, || {
        black_box(cbc_encrypt(&aes, &iv, black_box(text)));
    });
    out.push(Metric::new("crypto.rnd_us", us(rnd), "us"));

    let ja = JoinAdj::new([5u8; 32]);
    let jk = JoinKey::from_bytes(&[1u8; 32]);
    let tag = bench_ns(b, || {
        black_box(ja.tag(&jk, black_box(b"12345678")));
    });
    out.push(Metric::new("ecgroup.joinadj_us", us(tag), "us"));

    let search = SearchKey::new(&[9u8; 32]);
    let word = bench_ns(b, || {
        black_box(search.encrypt_word(black_box("confidential"), &mut rng));
    });
    out.push(Metric::new("search.encrypt_word_us", us(word), "us"));
    let blob = search.encrypt_text("post body with some searchable words like onion", &mut rng);
    let token = search.token("onion");
    let matched = bench_ns(b, || {
        black_box(matches_any(black_box(&blob), black_box(&token)));
    });
    out.push(Metric::new("search.match_us", us(matched), "us"));

    // A whole cell, every onion, no pooled blinding: what a load or an
    // INSERT pays per value when the pool is dry.
    let onions_int = OnionSet::for_type(ColumnType::Int);
    let onions_text = OnionSet::for_type(ColumnType::Text);
    let levels = (EqLevel::Rnd, OrdLevel::Rnd);
    let mut next = 1i64 << 33;
    let cell_int = bench_ns(b * 3, || {
        next += 104_729;
        black_box(
            encrypt_cell(
                &keys,
                &ja,
                &jk,
                &sk,
                None,
                &Value::Int(next),
                ColumnType::Int,
                &onions_int,
                levels,
                true,
                &mut rng,
            )
            .is_ok(),
        );
    });
    out.push(Metric::new("core.encrypt_cell_us.int", us(cell_int), "us"));
    let cell_text = bench_ns(b * 2, || {
        next += 104_729;
        black_box(
            encrypt_cell(
                &keys,
                &ja,
                &jk,
                &sk,
                None,
                &Value::Str(format!("customer data blob {next}")),
                ColumnType::Text,
                &onions_text,
                levels,
                true,
                &mut rng,
            )
            .is_ok(),
        );
    });
    out.push(Metric::new(
        "core.encrypt_cell_us.text",
        us(cell_text),
        "us",
    ));
}

/// Everything the traced pass measures below the wire. `wire` is the
/// traced wire phase; `from` the first stream position no phase used.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    proxy: &Arc<Proxy>,
    twin: &Engine,
    wl: &Workload,
    addr: SocketAddr,
    wire: &Phase,
    from: usize,
    seed: u64,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Vec<Metric> {
    let mut out = Vec::new();

    // net: the floor — an empty query on an otherwise idle server.
    let mut idle = NetClient::connect(addr, "floor", "").expect("floor connection");
    let floor = bench_ns(PRIMITIVE_BUDGET * 2, || {
        black_box(idle.simple_query("").is_ok());
    });
    let _ = idle.terminate();
    out.push(Metric::new("net.rtt_floor_us", us(floor), "us"));

    let handoff = bench_ns(PRIMITIVE_BUDGET, || {
        let (tx, rx) = channel();
        proxy.runtime().execute(move || {
            let _ = tx.send(());
        });
        let _ = rx.recv();
    });
    out.push(Metric::new("runtime.pool_handoff_us", us(handoff), "us"));

    let prepared: Vec<PreparedStatement> = wl
        .shapes
        .iter()
        .map(|s| proxy.prepare(s).expect("shape prepares"))
        .collect();
    let wire_med = wire_class_medians(wire);
    let mut d = replay_depths(proxy, twin, wl, &prepared, from, epoch, spans);

    // wire − session latency, class by class, weighted by how often the
    // class occurs in the traced wire phase.
    let mut weight = 0.0;
    let mut overhead = 0.0;
    for class in Class::ALL {
        let c = class.idx();
        let n = wire.calls.iter().filter(|x| x.class == class).count() as f64;
        if n > 0.0 && !d.session[c].is_empty() {
            overhead += n * (wire_med[c] - median_u64(&mut d.session[c]) as f64);
            weight += n;
        }
    }
    out.push(Metric::new("net.overhead_us", us(overhead / weight), "us"));
    for class in Class::NAMED {
        out.push(Metric::new(
            format!("net.wire_us.{}", class.name()),
            us(wire_med[class.idx()]),
            "us",
        ));
    }
    out.push(Metric::new(
        "server.chain_us",
        us(median_u64(&mut d.chain) as f64),
        "us",
    ));

    // sqlparser: the workload's own statement texts.
    let texts: Vec<&str> = wl.streams[0]
        .iter()
        .flat_map(|op| &op.calls)
        .map(|c| c.sql.as_str())
        .take(512)
        .collect();
    let mut i = 0;
    let parse = bench_ns(PRIMITIVE_BUDGET, || {
        black_box(parse_statement(texts[i % texts.len()]).is_ok());
        i += 1;
    });
    out.push(Metric::new("sqlparser.parse_us", us(parse), "us"));

    // core: planning a never-seen literal-inlined SELECT (a plan-cache
    // and constant-memo miss every time), then the class table.
    let mut unseen = 5_000_000i64;
    let plan = bench_ns(PRIMITIVE_BUDGET * 2, || {
        unseen += 1;
        black_box(
            proxy
                .prepare(&format!(
                    "SELECT c_first, c_last, c_balance FROM customer \
                     WHERE c_id = {unseen} AND c_d_id = 1"
                ))
                .is_ok(),
        );
    });
    out.push(Metric::new("core.plan_us", us(plan), "us"));
    let table = class_table(proxy, twin, wl, seed);
    for (class, enc, _) in &table {
        out.push(Metric::new(
            format!("core.execute_us.{}", class.name()),
            us(*enc),
            "us",
        ));
    }
    for (class, enc, plain) in &table {
        out.push(Metric::new(
            format!("core.vs_plain_x.{}", class.name()),
            enc / plain.max(1.0),
            "x",
        ));
    }
    for (class, _, plain) in &table {
        out.push(Metric::new(
            format!("engine.plain_us.{}", class.name()),
            us(*plain),
            "us",
        ));
    }
    let exec_prepared = if d.core_prepared.is_empty() {
        // Not a prepared workload: time one point shape anyway, so the
        // metric exists everywhere.
        let ps = proxy
            .prepare(
                "SELECT c_first, c_last, c_balance FROM customer WHERE c_id = $1 AND c_d_id = $2",
            )
            .expect("point shape prepares");
        let mut k = 0i64;
        bench_ns(PRIMITIVE_BUDGET, || {
            k += 1;
            let params = [Value::Int(k % 10 + 1), Value::Int(k % 2 + 1)];
            black_box(proxy.execute_prepared(&ps, &params).is_ok());
        })
    } else {
        median_u64(&mut d.core_prepared) as f64
    };
    out.push(Metric::new(
        "core.exec_prepared_us",
        us(exec_prepared),
        "us",
    ));

    let begin_commit = bench_ns(PRIMITIVE_BUDGET * 2, || {
        black_box(proxy.engine().execute(&Stmt::Begin).is_ok());
        black_box(proxy.engine().execute(&Stmt::Commit).is_ok());
    });
    out.push(Metric::new(
        "engine.begin_commit_us",
        us(begin_commit),
        "us",
    ));

    // wal: only the durable workload has one; the others report 0.
    let (append, fsync, bytes, amp) = if wl.durable {
        let (append, fsync) = wal_probe(Path::new(crate::setup::RUN_DIR));
        let bytes = median_u64(&mut d.wal_bytes) as f64;
        let plain = median_u64(&mut d.plain_bytes) as f64;
        (append, fsync, bytes, bytes / plain.max(1.0))
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    out.push(Metric::new("wal.append_us", us(append), "us"));
    out.push(Metric::new("wal.fsync_us", us(fsync), "us"));
    out.push(Metric::new("wal.bytes_per_op", bytes, "B"));
    out.push(Metric::new("wal.write_amp", amp, "x"));

    primitives(proxy.config().paillier_bits, &mut out);
    out
}

/// Writes spans and counters to `trace.json`.
pub fn write_trace(
    path: &Path,
    wl: &Workload,
    seed: u64,
    spans: &[Span],
    counters: &[Metric],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let classes = Class::ALL.map(Class::name);
    writeln!(f, "{{")?;
    writeln!(f, "  \"workload\": \"{}\", \"seed\": {seed},", wl.name)?;
    writeln!(f, "  \"layers\": [{}],", quoted(&Layer::NAMES))?;
    writeln!(f, "  \"classes\": [{}],", quoted(&classes))?;
    writeln!(
        f,
        "  \"span_fields\": [\"op_id\", \"class\", \"layer\", \"start_ns\", \"end_ns\", \"parent\"],"
    )?;
    writeln!(f, "  \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            f,
            "    [{}, {}, {}, {}, {}, {}]{comma}",
            s.op_id,
            s.class.idx(),
            s.layer as usize,
            s.start_ns,
            s.end_ns,
            s.parent
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"counters\": {{")?;
    for (i, m) in counters.iter().enumerate() {
        let comma = if i + 1 == counters.len() { "" } else { "," };
        writeln!(
            f,
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{comma}",
            m.name, m.value, m.unit
        )?;
    }
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    f.flush()
}
