//! Database set-up: the encrypted proxy, its plaintext twin and the
//! pgwire front-end the clients connect to.

use crate::gen::{self, Dataset, Workload, TPCC_SCALE};
use cryptdb_apps::mixed::{self, MixedScale};
use cryptdb_apps::{phpbb, tpcc};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_engine::{Engine, FsyncPolicy, WalConfig};
use cryptdb_net::{NetLimits, NetServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const MASTER_KEY: [u8; 32] = [7u8; 32];

/// Scratch directory inside the checkout (WAL segments, `trace.json`).
pub const RUN_DIR: &str = ".bench_run";

/// The durable workload's log: every commit fsynced, a snapshot every
/// 1000 records, small segments so rotation and retention both cycle
/// several times within a run.
pub fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: Some(1000),
        segment_bytes: 256 * 1024,
        ..WalConfig::default()
    }
}

/// `NetLimits::default()` with the reader-thread count spelled out,
/// because the header reports it.
pub fn net_limits() -> NetLimits {
    NetLimits {
        reader_threads: 2,
        ..NetLimits::default()
    }
}

/// Encryption policy of the mixed workload, copied from the
/// `e2e_throughput` bench: phpBB's sensitive fields plus the TPC-C and
/// HotCRP columns that route queries through DET, OPE, HOM and AVG.
fn mixed_policy() -> EncryptionPolicy {
    let mut map: HashMap<String, Vec<String>> = phpbb::sensitive_fields()
        .into_iter()
        .map(|(t, cols)| {
            (
                t.to_string(),
                cols.into_iter().map(str::to_string).collect(),
            )
        })
        .collect();
    map.insert("order_line".into(), vec!["ol_amount".into()]);
    map.insert("stock".into(), vec!["s_ytd".into(), "s_quantity".into()]);
    map.insert("customer".into(), vec!["c_balance".into(), "c_last".into()]);
    map.insert("history".into(), vec!["h_amount".into()]);
    map.insert("paperreview".into(), vec!["overallmerit".into()]);
    EncryptionPolicy::Explicit(map)
}

pub fn proxy_config(dataset: Dataset) -> ProxyConfig {
    ProxyConfig {
        policy: match dataset {
            Dataset::Tpcc => EncryptionPolicy::All,
            Dataset::Mixed => mixed_policy(),
        },
        ..ProxyConfig::default()
    }
}

/// DDL, data load and training for a workload, all from `seed`. The
/// training statements include writes, so the twin runs them too.
fn setup_statements(wl: &Workload, seed: u64) -> Vec<String> {
    match wl.dataset {
        Dataset::Tpcc => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = tpcc::schema();
            out.extend(tpcc::indexes());
            out.extend(tpcc::load_statements(&mut rng, &TPCC_SCALE));
            out.extend(tpcc::training_queries(&TPCC_SCALE));
            // One execution per prepared shape, so its onion
            // adjustments (OPE for the range shape) precede the run.
            for shape in 0..wl.shapes.len() {
                let call = wl.streams[0]
                    .iter()
                    .flat_map(|op| &op.calls)
                    .find(|c| c.prepared.as_ref().is_some_and(|(s, _)| *s == shape));
                out.extend(call.map(|c| c.sql.clone()));
            }
            out
        }
        Dataset::Mixed => {
            let scale = MixedScale::default();
            let mut out = mixed::setup_statements(seed, &scale);
            out.extend(mixed::training_statements(&scale));
            out.push(gen::search_training_sql());
            out
        }
    }
}

/// A loaded database pair.
pub struct Db {
    pub proxy: Arc<Proxy>,
    /// The same statements on a plaintext engine: the correctness
    /// oracle and the Fig. 12 baseline.
    pub twin: Arc<Engine>,
    pub wal_dir: Option<PathBuf>,
    pub statements: usize,
}

/// Sets the workload's database up, once: the same statements on the
/// proxy (with a WAL in a fresh directory when the workload is durable)
/// and on the twin, then waits for a ready blinding pool.
pub fn build(wl: &Workload, seed: u64) -> Db {
    let cfg = proxy_config(wl.dataset);
    let wal_dir = wl.durable.then(|| {
        let name = format!("wal-{}-{}", wl.name, std::process::id());
        let dir = Path::new(RUN_DIR).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create WAL directory inside the checkout");
        dir
    });
    let proxy = match &wal_dir {
        Some(dir) => {
            Proxy::open_persistent(dir, MASTER_KEY, cfg, wal_config())
                .expect("open durable proxy")
                .0
        }
        None => Proxy::new(Arc::new(Engine::new()), MASTER_KEY, cfg),
    };
    let twin = Engine::new();
    let statements = setup_statements(wl, seed);
    for stmt in &statements {
        proxy
            .execute(stmt)
            .unwrap_or_else(|e| panic!("set-up on proxy: {e}: {stmt}"));
        twin.execute_sql(stmt)
            .unwrap_or_else(|e| panic!("set-up on twin: {e}: {stmt}"));
    }
    proxy.hom_pool_wait_ready();
    Db {
        proxy: Arc::new(proxy),
        twin: Arc::new(twin),
        wal_dir,
        statements: statements.len(),
    }
}

pub fn serve(proxy: &Arc<Proxy>) -> NetServer {
    NetServer::spawn_with(proxy.clone(), "127.0.0.1:0", net_limits()).expect("bind 127.0.0.1:0")
}
