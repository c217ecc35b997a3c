//! Correctness oracles: every run checks its own answers against the
//! plaintext twin engine.

use crate::drive::Sample;
use crate::gen::Workload;
use cryptdb_core::proxy::Proxy;
use cryptdb_engine::Engine;
use cryptdb_server::{canonical_dump, schema_tables};

/// Read workloads: each kept wire answer must equal the twin's answer
/// to the same statement. Returns the number that do not.
pub fn wrong_samples<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    wl: &Workload,
    twin: &Engine,
) -> usize {
    samples
        .filter(|s| {
            let call = &wl.streams[s.conn][s.pos].calls[0];
            match twin.execute_sql(&call.sql) {
                Ok(expected) => expected.canonical_text() != s.text,
                Err(_) => true,
            }
        })
        .count()
}

/// Replays, serially, exactly the ops each connection executed (all of
/// connection 0, then all of connection 1) on the twin. Returns the
/// number of statements the twin refused.
pub fn replay_on_twin(twin: &Engine, wl: &Workload, executed: &[usize]) -> usize {
    let mut errors = 0;
    for (stream, &n) in wl.streams.iter().zip(executed) {
        for i in 0..n {
            for call in &stream[i % stream.len()].calls {
                errors += usize::from(twin.execute_sql(&call.sql).is_err());
            }
        }
    }
    errors
}

/// The twin's state in `canonical_dump`'s format, over the proxy's
/// table list, so the two dumps are byte-comparable.
pub fn twin_dump(proxy: &Proxy, twin: &Engine) -> String {
    let mut out = String::new();
    for (table, columns) in schema_tables(proxy) {
        let sql = format!("SELECT {} FROM {table}", columns.join(", "));
        let text = twin
            .execute_sql(&sql)
            .map(|r| r.canonical_text())
            .unwrap_or_else(|e| format!("twin error: {e}"));
        out.push_str(&format!("== {table} ==\n{text}\n"));
    }
    out
}

/// True when the proxy's decrypted database equals the twin's.
pub fn state_matches(proxy: &Proxy, twin: &Engine) -> bool {
    match canonical_dump(proxy) {
        Ok(dump) => dump == twin_dump(proxy, twin),
        Err(_) => false,
    }
}
