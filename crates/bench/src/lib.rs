//! Shared harness for the per-figure benchmarks.
//!
//! Each `[[bench]]` target regenerates one table or figure from the
//! paper's evaluation (§8), printing paper-reported values next to the
//! measured ones. Absolute numbers differ (different decade, language,
//! and DBMS substrate); the *shape* — who wins and by roughly what factor
//! — is the reproduction target.

use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig, ProxyMode};
use cryptdb_core::strawman::Strawman;
use cryptdb_engine::Engine;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A uniform "run this SQL" interface over the three stacks.
pub enum Stack {
    /// Plain engine — the "MySQL" baseline.
    MySql(Arc<Engine>),
    /// Parse-and-forward proxy — "MySQL+proxy" in Fig. 14.
    Passthrough(Arc<Proxy>),
    /// Full CryptDB.
    CryptDb(Arc<Proxy>),
    /// The Fig. 11 strawman.
    Strawman(Arc<Strawman>),
}

impl Stack {
    /// Executes one SQL string, panicking on error (benchmark workloads
    /// are known-supported).
    pub fn run(&self, sql: &str) {
        match self {
            Stack::MySql(e) => {
                e.execute_sql(sql)
                    .unwrap_or_else(|err| panic!("mysql: {err}: {sql}"));
            }
            Stack::Passthrough(p) | Stack::CryptDb(p) => {
                p.execute(sql)
                    .unwrap_or_else(|err| panic!("cryptdb: {err}: {sql}"));
            }
            Stack::Strawman(s) => {
                s.execute(sql)
                    .unwrap_or_else(|err| panic!("strawman: {err}: {sql}"));
            }
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Stack::MySql(_) => "MySQL",
            Stack::Passthrough(_) => "MySQL+proxy",
            Stack::CryptDb(_) => "CryptDB",
            Stack::Strawman(_) => "Strawman",
        }
    }
}

/// Builds a plain-engine stack.
pub fn mysql_stack() -> Stack {
    Stack::MySql(Arc::new(Engine::new()))
}

/// Builds a CryptDB stack with the given policy and the paper's
/// 1024-bit Paillier key.
pub fn cryptdb_stack(policy: EncryptionPolicy) -> Stack {
    let cfg = ProxyConfig {
        policy,
        ..Default::default()
    };
    Stack::CryptDb(Arc::new(Proxy::new(
        Arc::new(Engine::new()),
        [7u8; 32],
        cfg,
    )))
}

/// Builds a CryptDB stack with pre-computation disabled (Fig. 12 Proxy⋆).
pub fn cryptdb_stack_no_precompute(policy: EncryptionPolicy) -> Stack {
    let cfg = ProxyConfig {
        policy,
        precompute: false,
        ..Default::default()
    };
    Stack::CryptDb(Arc::new(Proxy::new(
        Arc::new(Engine::new()),
        [7u8; 32],
        cfg,
    )))
}

/// Builds a passthrough stack.
pub fn passthrough_stack() -> Stack {
    let cfg = ProxyConfig {
        mode: ProxyMode::Passthrough,
        paillier_bits: 256,
        ..Default::default()
    };
    Stack::Passthrough(Arc::new(Proxy::new(
        Arc::new(Engine::new()),
        [7u8; 32],
        cfg,
    )))
}

/// Builds a strawman stack.
pub fn strawman_stack() -> Stack {
    Stack::Strawman(Arc::new(Strawman::new(Arc::new(Engine::new()), [7u8; 32])))
}

/// Global scale knob: `CRYPTDB_BENCH_SCALE` in (0, 1] scales iteration
/// counts so CI runs stay quick.
pub fn bench_scale() -> f64 {
    std::env::var("CRYPTDB_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Scales an iteration count by [`bench_scale`], keeping at least 1.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * bench_scale()) as usize).max(1)
}

/// Measures throughput: runs `gen` produced statements for roughly
/// `target` iterations, returning queries/second.
pub fn measure_qps(stack: &Stack, mut gen: impl FnMut() -> String, iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        stack.run(&gen());
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Measures mean latency per statement.
pub fn measure_latency(stack: &Stack, mut gen: impl FnMut() -> String, iters: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        stack.run(&gen());
    }
    start.elapsed() / iters as u32
}

/// Fixed-width table printer for the paper-style outputs.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    pub fn new(widths: Vec<usize>) -> Self {
        TablePrinter { widths }
    }

    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:<w$}  ", w = w));
        }
        println!("{}", line.trim_end());
    }

    pub fn rule(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + 2 * self.widths.len();
        println!("{}", "-".repeat(total));
    }
}

/// Formats a duration in ms with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Per-app sensitive-field policies for the Fig. 9 analysis.
pub fn sensitive_policy(fields: &[(&str, Vec<&str>)]) -> EncryptionPolicy {
    let map: HashMap<String, Vec<String>> = fields
        .iter()
        .map(|(t, cols)| {
            (
                t.to_lowercase(),
                cols.iter().map(|c| c.to_lowercase()).collect(),
            )
        })
        .collect();
    EncryptionPolicy::Explicit(map)
}

/// Standard banner for bench outputs.
pub fn banner(figure: &str, caption: &str) {
    println!();
    println!("=== {figure} — {caption} ===");
    println!(
        "(paper values from Popa et al., SOSP'11; measured on this machine's \
         Rust reproduction — compare shapes, not absolutes)"
    );
    println!();
}
