//! Kill-and-recover fault-injection harness (the durability gate).
//!
//! Drives the mixed tpcc+phpbb+hotcrp trace through a *persistent*
//! proxy, injects deterministic faults into the WAL — torn writes at
//! randomized byte offsets, a failed fsync after the n-th append, and
//! silent single-bit flips — then reopens the directory and requires
//! the recovered canonical dump to be byte-identical to a serial
//! in-memory oracle that executed exactly the acknowledged statement
//! prefix.
//!
//! Why the oracle prefix is statement-aligned: every dump-visible
//! mutation (INSERT/UPDATE/DELETE/DDL) is exactly one WAL record, and
//! it is the *last* record its statement appends (onion adjustments and
//! stale-refresh rows log first and never change decrypted values). So
//! a statement's effect is visible after recovery iff the WAL sequence
//! number sampled right after it is ≤ the recovery watermark
//! `max(last_seq, snapshot_epoch)`.
//!
//! The kill-point count is tunable with `CRYPTDB_KILL_POINTS`
//! (default 20, the CI gate's floor).

use cryptdb_apps::mixed::{self, MixedScale};
use cryptdb_apps::{phpbb, tpcc};
use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_core::{ProxyError, SecLevel};
use cryptdb_engine::{FaultPlan, FsyncPolicy, RecoveryReport, TailState, WalConfig};
use cryptdb_server::{canonical_dump, open_persistent, PersistConfig, Server, SessionTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

const MK: [u8; 32] = [7u8; 32];

fn kill_points() -> usize {
    std::env::var("CRYPTDB_KILL_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cryptdb-kill-recover-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Smaller than [`MixedScale::default`]: the harness replays the trace
/// once per kill point, so setup size multiplies directly into runtime.
fn scale() -> MixedScale {
    MixedScale {
        tpcc: tpcc::TpccScale {
            warehouses: 1,
            districts_per_wh: 2,
            customers_per_district: 4,
            items: 8,
            orders_per_district: 4,
        },
        phpbb: phpbb::PhpbbScale {
            users: 4,
            forums: 2,
            posts: 8,
            messages: 8,
        },
    }
}

fn cfg() -> ProxyConfig {
    ProxyConfig {
        policy: EncryptionPolicy::Explicit(mixed::encrypted_columns()),
        paillier_bits: 256,
        runtime_threads: 1,
    }
}

/// The full serial statement list a kill run drives: setup + training +
/// two session traces. Deterministic, error-free, and identical across
/// runs (record *sizes* are not — ciphertexts are randomized — but the
/// statement and record sequence is).
fn trace() -> Vec<String> {
    let scale = scale();
    let mut out = mixed::setup_statements(11, &scale);
    out.extend(mixed::training_statements(&scale));
    out.extend(mixed::session_trace(5, 0, 3, &scale));
    out.extend(mixed::session_trace(5, 1, 3, &scale));
    out
}

struct DriveOutcome {
    /// WAL sequence number sampled after each completed statement
    /// (index-aligned with the statement list prefix that ran).
    seqs: Vec<u64>,
    /// Index of the statement that hit the injected failpoint, if any.
    killed_at: Option<usize>,
    /// Final log length in bytes (fault-free runs only — sizing input
    /// for kill-offset selection).
    log_len: u64,
}

/// Opens a persistent proxy on `dir` with `wal` faults armed and drives
/// `stmts` serially until the failpoint fires. Any non-failpoint error
/// is a test bug (the mixed trace is error-free by construction).
fn drive(dir: &Path, wal: WalConfig, stmts: &[String]) -> DriveOutcome {
    let (proxy, _) = Proxy::open_persistent(dir, MK, cfg(), wal).unwrap();
    let mut seqs = Vec::new();
    let mut killed_at = None;
    for (i, stmt) in stmts.iter().enumerate() {
        match proxy.execute(stmt) {
            Ok(_) => seqs.push(proxy.engine().wal_seq()),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("failpoint"),
                    "statement {i} failed for a non-injected reason: {msg}\n  {stmt}"
                );
                killed_at = Some(i);
                break;
            }
        }
    }
    let log_len = proxy.engine().wal_len();
    DriveOutcome {
        seqs,
        killed_at,
        log_len,
    }
}

/// Reopens `dir` with a clean config and returns the decrypted
/// canonical dump plus the recovery report.
fn recover_dump(dir: &Path) -> (String, RecoveryReport) {
    let (proxy, recovery) = Proxy::open_persistent(dir, MK, cfg(), WalConfig::default()).unwrap();
    (canonical_dump(&proxy).unwrap(), recovery.report)
}

/// Serial in-memory oracle. Advances monotonically through the
/// statement list and caches dumps, so one oracle replay serves every
/// kill point when outcomes are processed in ascending prefix order.
struct Oracle {
    proxy: Proxy,
    stmts: Vec<String>,
    executed: usize,
    dumps: HashMap<usize, String>,
}

impl Oracle {
    fn new(stmts: &[String]) -> Oracle {
        let engine = std::sync::Arc::new(cryptdb_engine::Engine::new());
        Oracle {
            proxy: Proxy::new(engine, MK, cfg()),
            stmts: stmts.to_vec(),
            executed: 0,
            dumps: HashMap::new(),
        }
    }

    /// Canonical dump after exactly the first `prefix` statements.
    fn dump_at(&mut self, prefix: usize) -> String {
        if let Some(d) = self.dumps.get(&prefix) {
            return d.clone();
        }
        assert!(
            prefix >= self.executed,
            "oracle cannot rewind ({} -> {prefix}); process outcomes in ascending order",
            self.executed
        );
        while self.executed < prefix {
            let stmt = &self.stmts[self.executed];
            self.proxy
                .execute(stmt)
                .unwrap_or_else(|e| panic!("oracle statement failed: {e}\n  {stmt}"));
            self.executed += 1;
        }
        let dump = canonical_dump(&self.proxy).unwrap();
        self.dumps.insert(prefix, dump.clone());
        dump
    }
}

/// Number of leading statements whose effects the recovery watermark
/// covers (see the module docs for why this is statement-aligned).
fn covered_prefix(seqs: &[u64], report: &RecoveryReport) -> usize {
    let watermark = report.last_seq.max(report.snapshot_epoch.unwrap_or(0));
    seqs.iter().take_while(|s| **s <= watermark).count()
}

#[test]
fn randomized_kill_points_recover_to_acked_prefix() {
    let stmts = trace();

    // Fault-free baseline: sizes the log for kill-offset selection and
    // checks clean-shutdown recovery against the full oracle.
    let base_dir = tmpdir("kill-base");
    let base = drive(&base_dir, WalConfig::default(), &stmts);
    assert!(base.killed_at.is_none());
    assert!(base.log_len > 0);
    let (base_dump, base_report) = recover_dump(&base_dir);
    assert!(!base_report.corruption_detected);
    assert_eq!(base_report.tail, TailState::Clean);
    let _ = fs::remove_dir_all(&base_dir);

    let points = kill_points();
    let mut rng = StdRng::seed_from_u64(0xC4D8_2026);
    // Stay below ~90% of the baseline length: ciphertext randomness
    // shifts record sizes slightly between runs, so the extreme tail is
    // not a reliable target (a kill that never fires degrades into a
    // clean-run check, which the assertion below still covers).
    let hi = base.log_len * 9 / 10;
    let mut outcomes = Vec::new();
    let mut fired = 0usize;
    for point in 0..points {
        let offset = rng.gen_range(1..hi);
        let dir = tmpdir(&format!("kill-{point}"));
        let wal = WalConfig {
            fsync: FsyncPolicy::Always,
            // Every other point also exercises snapshot + suffix replay.
            snapshot_every: if point % 2 == 1 { Some(32) } else { None },
            fault: Some(FaultPlan::kill_at(offset)),
            ..WalConfig::default()
        };
        let out = drive(&dir, wal, &stmts);
        fired += usize::from(out.killed_at.is_some());
        let (dump, report) = recover_dump(&dir);
        assert!(
            !report.corruption_detected,
            "point {point}: a torn write is not CRC corruption"
        );
        let prefix = covered_prefix(&out.seqs, &report);
        // fsync=Always means every acknowledged statement is durable:
        // the covered prefix must be exactly the acknowledged prefix.
        assert_eq!(
            prefix,
            out.seqs.len(),
            "point {point}: an acknowledged statement was lost (kill at byte {offset})"
        );
        outcomes.push((prefix, offset, dump));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        fired >= points / 2,
        "only {fired}/{points} kills fired; offsets are mis-sized"
    );

    outcomes.sort();
    let mut oracle = Oracle::new(&stmts);
    for (prefix, offset, dump) in &outcomes {
        assert_eq!(
            dump,
            &oracle.dump_at(*prefix),
            "kill at byte {offset}: recovered state diverged from the \
             acked-prefix oracle ({prefix} statements)"
        );
    }
    // The clean-shutdown dump is the full-trace oracle dump.
    assert_eq!(base_dump, oracle.dump_at(stmts.len()));
}

/// Statements that each mutate MANY shards at once: 8-row inserts
/// (consecutive rowids round-robin across the hash shards), table-wide
/// UPDATEs and windowed DELETEs. Under the sharded store each statement
/// is assembled into ONE composite WAL record while every touched shard
/// lock is held, so a kill anywhere inside that record must recover to
/// all-or-nothing — never a partially applied statement. Plaintext
/// values keep record sizes deterministic, so kill offsets land
/// reliably inside the composite records.
fn multi_shard_trace() -> Vec<String> {
    let mut out = vec!["CREATE TABLE wide (id int, v int)".to_string()];
    let mut next = 0i64;
    for round in 0..10i64 {
        let vals: Vec<String> = (0..8)
            .map(|k| {
                let id = next + k;
                format!("({id}, {})", id * 3 + 1)
            })
            .collect();
        next += 8;
        out.push(format!(
            "INSERT INTO wide (id, v) VALUES {}",
            vals.join(", ")
        ));
        // Touches every live row, i.e. every populated shard.
        out.push(format!(
            "UPDATE wide SET v = v + {} WHERE id >= 0",
            round + 1
        ));
        // Drops the first three rows of this round's batch.
        out.push(format!(
            "DELETE FROM wide WHERE id BETWEEN {} AND {}",
            round * 8,
            round * 8 + 2
        ));
    }
    out
}

#[test]
fn multi_shard_statements_recover_all_or_nothing() {
    let stmts = multi_shard_trace();
    let base_dir = tmpdir("shard-base");
    let base = drive(&base_dir, WalConfig::default(), &stmts);
    assert!(base.killed_at.is_none());
    let (base_dump, base_report) = recover_dump(&base_dir);
    assert!(!base_report.corruption_detected);
    let _ = fs::remove_dir_all(&base_dir);

    let mut rng = StdRng::seed_from_u64(0x5AAD_2026);
    let hi = base.log_len * 9 / 10;
    let mut outcomes = Vec::new();
    let mut fired = 0usize;
    for point in 0..12 {
        let offset = rng.gen_range(1..hi);
        let dir = tmpdir(&format!("shard-{point}"));
        let wal = WalConfig {
            fsync: FsyncPolicy::Always,
            // Every third point also exercises snapshot + suffix replay
            // across the composite records.
            snapshot_every: if point % 3 == 2 { Some(8) } else { None },
            fault: Some(FaultPlan::kill_at(offset)),
            ..WalConfig::default()
        };
        let out = drive(&dir, wal, &stmts);
        fired += usize::from(out.killed_at.is_some());
        let (dump, report) = recover_dump(&dir);
        assert!(
            !report.corruption_detected,
            "point {point}: a torn write is not CRC corruption"
        );
        let prefix = covered_prefix(&out.seqs, &report);
        assert_eq!(
            prefix,
            out.seqs.len(),
            "point {point}: an acknowledged multi-shard statement was lost \
             (kill at byte {offset})"
        );
        outcomes.push((prefix, offset, dump));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        fired >= 8,
        "only {fired}/12 kills fired; offsets are mis-sized"
    );

    outcomes.sort();
    let mut oracle = Oracle::new(&stmts);
    for (prefix, offset, dump) in &outcomes {
        assert_eq!(
            dump,
            &oracle.dump_at(*prefix),
            "kill at byte {offset}: a multi-shard composite record was \
             applied partially ({prefix} statements recovered)"
        );
    }
    assert_eq!(base_dump, oracle.dump_at(stmts.len()));
}

#[test]
fn sync_kill_leaves_consistent_durable_but_unacked_state() {
    let stmts = trace();
    let base_dir = tmpdir("sync-base");
    let base = drive(&base_dir, WalConfig::default(), &stmts);
    assert!(base.killed_at.is_none());
    let total = *base.seqs.last().unwrap();
    let _ = fs::remove_dir_all(&base_dir);

    let mut cases = Vec::new();
    for n in [total / 4, total / 2, total * 3 / 4] {
        let dir = tmpdir(&format!("sync-{n}"));
        let wal = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            fault: Some(FaultPlan::kill_sync_after(n)),
            ..WalConfig::default()
        };
        let out = drive(&dir, wal, &stmts);
        let killed = out
            .killed_at
            .expect("the record count is deterministic, so the sync kill must fire");
        let (dump, report) = recover_dump(&dir);
        assert!(!report.corruption_detected);
        cases.push((killed, n, dump));
        let _ = fs::remove_dir_all(&dir);
    }

    cases.sort();
    let mut oracle = Oracle::new(&stmts);
    for (killed, n, dump) in &cases {
        // The n-th record is on disk but its statement was never
        // acknowledged. If that record was the statement's data record,
        // recovery surfaces the statement; if it was a preparatory
        // (adjustment/meta) record, the statement's data never hit the
        // log. Either way the recovered state must match one of the two
        // serial histories — anything else is corruption.
        let without = oracle.dump_at(*killed);
        let with = oracle.dump_at(*killed + 1);
        assert!(
            *dump == without || *dump == with,
            "sync kill after append {n}: recovered state matches neither \
             the acked prefix ({killed} statements) nor acked+1"
        );
    }
}

#[test]
fn silent_bit_flips_are_detected_and_recovery_lands_on_valid_prefix() {
    let stmts = trace();
    let base_dir = tmpdir("flip-base");
    let base = drive(&base_dir, WalConfig::default(), &stmts);
    let _ = fs::remove_dir_all(&base_dir);

    let hi = base.log_len * 9 / 10;
    let mut rng = StdRng::seed_from_u64(0xB17F_11B5);
    let mut outcomes = Vec::new();
    let mut crc_caught = 0usize;
    for point in 0..5 {
        let offset = rng.gen_range(1..hi);
        let bit = rng.gen_range(0..8u32) as u8;
        let dir = tmpdir(&format!("flip-{point}"));
        let wal = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: if point % 2 == 1 { Some(48) } else { None },
            fault: Some(FaultPlan::flip_bit(offset, bit)),
            ..WalConfig::default()
        };
        let out = drive(&dir, wal, &stmts);
        assert!(
            out.killed_at.is_none(),
            "point {point}: a silent flip must not error the write path"
        );
        let (dump, report) = recover_dump(&dir);
        // The flip damaged one frame. Either its CRC catches it
        // (Corrupt) or it hit the length prefix and the scan reads a
        // torn tail — a Clean scan would mean corrupted ciphertext was
        // silently replayed.
        assert!(
            report.corruption_detected || report.tail == TailState::Torn,
            "point {point}: flip at byte {offset} bit {bit} went undetected \
             (tail {:?})",
            report.tail
        );
        assert!(
            report.bytes_discarded > 0,
            "point {point}: the damaged suffix must be discarded, not replayed"
        );
        crc_caught += usize::from(report.corruption_detected);
        outcomes.push((covered_prefix(&out.seqs, &report), offset, dump));
        let _ = fs::remove_dir_all(&dir);
    }
    // Record bodies dwarf the 8-byte frame header, so with this seed
    // most flips land in CRC-covered bytes.
    assert!(
        crc_caught >= 1,
        "no flip was caught by CRC validation across 5 points"
    );

    outcomes.sort();
    let mut oracle = Oracle::new(&stmts);
    for (prefix, offset, dump) in &outcomes {
        assert_eq!(
            dump,
            &oracle.dump_at(*prefix),
            "flip at byte {offset}: recovered state is not the longest \
             valid prefix ({prefix} statements)"
        );
    }
}

/// Policy/config for the seal-atomicity harness: one table, one
/// sensitive column, single worker for determinism.
fn seal_cfg() -> ProxyConfig {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    map.insert("secrets".into(), vec!["val".into()]);
    ProxyConfig {
        policy: EncryptionPolicy::Explicit(map),
        paillier_bits: 256,
        runtime_threads: 1,
    }
}

/// Setup that leaves `secrets.val` with both Eq and Ord onions exposed:
/// rows, then an equality probe (RND→DET) and a range probe (→OPE).
fn seal_trace() -> Vec<String> {
    vec![
        "CREATE TABLE secrets (id int, val int)".into(),
        "INSERT INTO secrets (id, val) VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)"
            .into(),
        "SELECT id FROM secrets WHERE val = 30".into(),
        "SELECT id FROM secrets WHERE val < 45".into(),
    ]
}

#[test]
fn seal_column_is_crash_atomic_across_kill_points() {
    // Fault-free baseline: size the log around the seal record and pin
    // the two invariants the kill points are judged against.
    let base_dir = tmpdir("seal-base");
    let (before_seal, after_seal, base_dump) = {
        let (proxy, _) =
            Proxy::open_persistent(&base_dir, MK, seal_cfg(), WalConfig::default()).unwrap();
        for stmt in seal_trace() {
            proxy.execute(&stmt).unwrap();
        }
        let pre_dump = canonical_dump(&proxy).unwrap();
        let before_len = proxy.engine().wal_len();
        let before_seq = proxy.engine().wal_seq();
        let sealed = proxy.seal_column("secrets", "val").unwrap();
        assert_eq!(sealed, 6, "every row re-encrypts");
        assert_eq!(
            proxy.engine().wal_seq(),
            before_seq + 1,
            "the whole seal (rows + schema flip) must be ONE composite record"
        );
        assert_eq!(
            canonical_dump(&proxy).unwrap(),
            pre_dump,
            "sealing re-encrypts; plaintext must not change"
        );
        assert_eq!(
            proxy.seal_column("secrets", "val").unwrap(),
            0,
            "a sealed column re-seals as a no-op"
        );
        (before_len, proxy.engine().wal_len(), pre_dump)
    };
    let _ = fs::remove_dir_all(&base_dir);
    assert!(after_seal > before_seal);

    // Kill points spanning the inside of the seal record (ciphertext
    // randomness drifts sizes slightly between runs; interior offsets
    // still land inside or right at the record's edges, and the
    // invariants below hold wherever the kill lands).
    let mut rng = StdRng::seed_from_u64(0x5EA1_2026);
    let mut fired_in_seal = 0usize;
    for point in 0..8 {
        let offset = rng.gen_range(before_seal + 1..after_seal);
        let dir = tmpdir(&format!("seal-{point}"));
        let wal = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            fault: Some(FaultPlan::kill_at(offset)),
            ..WalConfig::default()
        };
        {
            let (proxy, _) = Proxy::open_persistent(&dir, MK, seal_cfg(), wal).unwrap();
            let mut setup_killed = false;
            for stmt in seal_trace() {
                if let Err(e) = proxy.execute(&stmt) {
                    assert!(e.to_string().contains("failpoint"), "unexpected: {e}");
                    setup_killed = true;
                    break;
                }
            }
            if !setup_killed {
                match proxy.seal_column("secrets", "val") {
                    Ok(n) => assert_eq!(n, 6),
                    Err(e) => {
                        assert!(e.to_string().contains("failpoint"), "unexpected: {e}");
                        fired_in_seal += 1;
                    }
                }
            }
        }
        // Recovery must land on a state where every onion still
        // decrypts under the recovered schema levels: fully pre-seal or
        // fully sealed, never RND cells under an exposed-level schema.
        // The decrypted dump is the oracle — a torn mix would decrypt
        // the wrong layer and diverge (or fail outright).
        let (proxy, recovery) =
            Proxy::open_persistent(&dir, MK, seal_cfg(), WalConfig::default()).unwrap();
        assert!(!recovery.report.corruption_detected);
        assert_eq!(
            canonical_dump(&proxy).unwrap(),
            base_dump,
            "point {point}: recovered state is torn (kill at byte {offset})"
        );
        // Whichever side recovery landed on, re-running the seal from
        // here must converge to the sealed state (the documented
        // operational answer to a crash near a seal).
        proxy.seal_column("secrets", "val").unwrap();
        assert_eq!(
            canonical_dump(&proxy).unwrap(),
            base_dump,
            "point {point}: re-seal after recovery diverged"
        );
        drop(proxy);
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        fired_in_seal >= 4,
        "only {fired_in_seal}/8 kills fired inside the seal; offsets are mis-sized"
    );
}

/// A deterministic single-table write trace for the disk-fault tests:
/// one CREATE plus `n` plaintext inserts (every record still flows
/// through the ciphertext WAL; plaintext just keeps sizes stable).
fn disk_trace(n: usize) -> Vec<String> {
    let mut out = vec!["CREATE TABLE kv (id int, v int)".to_string()];
    for i in 0..n {
        out.push(format!("INSERT INTO kv (id, v) VALUES ({i}, {})", i * 7));
    }
    out
}

/// Outcome of driving a trace *through* transient disk faults: unlike
/// [`drive`], injected failures do not stop the run — the trace keeps
/// going so the test can observe degradation and self-restoration.
struct ThroughOutcome {
    /// Statements acknowledged (Ok) in order.
    acked: usize,
    /// Statements refused with an injected-fault ("failpoint") error.
    failed: usize,
    /// Canonical dump of the *live* proxy after the whole trace.
    live_dump: String,
    /// Engine degraded-mode entries observed over the run.
    degraded_entries: u64,
    /// Whether the engine was still degraded when the run ended.
    end_degraded: bool,
}

fn drive_through(dir: &Path, wal: WalConfig, stmts: &[String]) -> ThroughOutcome {
    let (proxy, _) = Proxy::open_persistent(dir, MK, cfg(), wal).unwrap();
    let mut acked = 0usize;
    let mut failed = 0usize;
    for (i, stmt) in stmts.iter().enumerate() {
        match proxy.execute(stmt) {
            Ok(_) => acked += 1,
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("failpoint"),
                    "statement {i} failed for a non-injected reason: {msg}\n  {stmt}"
                );
                failed += 1;
            }
        }
    }
    let stats = proxy.engine().durability_stats();
    ThroughOutcome {
        acked,
        failed,
        live_dump: canonical_dump(&proxy).unwrap(),
        degraded_entries: stats.degraded_entries,
        end_degraded: stats.degraded,
    }
}

#[test]
fn enospc_mid_trace_degrades_then_self_restores_losing_nothing() {
    let stmts = disk_trace(120);
    let dir = tmpdir("enospc");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        // The disk "fills" a third of the way in and frees up after
        // three rejected appends (a log rotation or operator cleanup).
        fault: Some(FaultPlan::enospc_clearing(2048, 3)),
        ..WalConfig::default()
    };
    let out = drive_through(&dir, wal, &stmts);
    assert!(out.failed >= 1, "the ENOSPC window never fired");
    assert!(
        out.acked >= stmts.len() - out.failed,
        "statements outside the ENOSPC window must succeed"
    );
    assert!(
        out.degraded_entries >= 1,
        "the engine never entered degraded mode"
    );
    assert!(
        !out.end_degraded,
        "the engine must leave degraded mode once appends succeed again"
    );
    // Zero acknowledged statements lost, zero refused statements
    // half-applied: the recovered state is exactly the live state.
    let (dump, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(
        dump, out.live_dump,
        "recovery diverged from the live state across an ENOSPC window"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transient_append_eio_refuses_cleanly_and_recovers() {
    let stmts = disk_trace(80);
    let dir = tmpdir("eio-append");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        // Appends 20..23 fail with a transient I/O error.
        fault: Some(FaultPlan::eio_on_appends(20, 3)),
        ..WalConfig::default()
    };
    let out = drive_through(&dir, wal, &stmts);
    assert_eq!(out.failed, 3, "exactly the EIO window must fail");
    assert_eq!(out.acked, stmts.len() - 3);
    assert!(!out.end_degraded);
    let (dump, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    // A clean append failure consumes no sequence number, so the
    // surviving log replays gaplessly to the live state.
    assert_eq!(dump, out.live_dump);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transient_fsync_eio_withholds_acks_but_stays_consistent() {
    let stmts = disk_trace(80);
    let dir = tmpdir("eio-sync");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        fault: Some(FaultPlan::eio_on_syncs(30, 2)),
        ..WalConfig::default()
    };
    let out = drive_through(&dir, wal, &stmts);
    assert_eq!(out.failed, 2, "exactly the fsync-EIO window must fail");
    // Written-but-unsynced records keep their effect in memory (the log
    // and memory agree; only durability was in doubt), so with no crash
    // the recovered state still equals the live state.
    let (dump, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    assert_eq!(dump, out.live_dump);
    let _ = fs::remove_dir_all(&dir);
}

/// A config that encrypts every column, for the single-table cases.
fn all_encrypted_cfg() -> ProxyConfig {
    ProxyConfig {
        paillier_bits: 256,
        runtime_threads: 1,
        ..Default::default()
    }
}

/// A schema change whose WAL append fails leaves the live schema equal
/// to the one a clean reopen recovers: for a floor, a principal type, a
/// table, an onion peel and the stale mark of a first increment. A clean
/// append failure publishes no new version; an fsync failure after a
/// complete append publishes the change, whose record recovery replays.
#[test]
fn failed_schema_append_leaves_the_live_schema_durable() {
    type Change = fn(&Proxy) -> Result<(), ProxyError>;
    let changes: [(&str, Change); 5] = [
        ("set_min_level", |p| {
            p.set_min_level("t", "a", SecLevel::Det)
        }),
        ("princtype", |p| p.execute("PRINCTYPE doc").map(drop)),
        ("create-table", |p| {
            p.execute("CREATE TABLE u (x int)").map(drop)
        }),
        ("first-equality", |p| {
            p.execute("SELECT id FROM t WHERE a = 5").map(drop)
        }),
        ("first-increment", |p| {
            p.execute("UPDATE t SET a = a + 1 WHERE id = 1").map(drop)
        }),
    ];
    let encoded = |p: &Proxy| p.with_schema(cryptdb_core::meta::encode);
    let mut problems = Vec::new();
    let faults = [
        ("append", FaultPlan::eio_on_appends(1, 1), 0),
        ("fsync", FaultPlan::eio_on_syncs(1, 1), 1),
    ];
    for ((fault, plan, published), (what, change)) in faults
        .iter()
        .flat_map(|f| changes.iter().map(move |c| (f, c)))
    {
        let what = format!("{fault} EIO, {what}");
        let dir = tmpdir(&format!("schema-eio-{}", what.replace([' ', ','], "")));
        {
            let (p, _) =
                Proxy::open_persistent(&dir, MK, all_encrypted_cfg(), WalConfig::default())
                    .unwrap();
            for sql in [
                "CREATE TABLE t (id int, a int)",
                "INSERT INTO t (id, a) VALUES (1, 5)",
                "SELECT a FROM t WHERE id = 1",
            ] {
                p.execute(sql).unwrap();
            }
        }
        let wal = WalConfig {
            fault: Some(plan.clone()),
            ..WalConfig::default()
        };
        let (p, _) = Proxy::open_persistent(&dir, MK, all_encrypted_cfg(), wal).unwrap();
        let epoch = p.schema_epoch();
        let err = change(&p).expect_err(&what);
        assert!(err.to_string().contains("failpoint"), "{what}: {err}");
        if p.schema_epoch() != epoch + published {
            problems.push(format!(
                "{what}: epoch {epoch} -> {}, expected {}",
                p.schema_epoch(),
                epoch + published
            ));
        }
        let live = encoded(&p);
        drop(p);
        let (p, _) =
            Proxy::open_persistent(&dir, MK, all_encrypted_cfg(), WalConfig::default()).unwrap();
        if encoded(&p) != live {
            problems.push(format!(
                "{what}: the live schema differs from the recovered one"
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        problems.is_empty(),
        "after a failed append:\n{}",
        problems.join("\n")
    );
}

/// A failed append while creating the multi-principal key tables is an
/// error from `open_persistent`, not a panic; a clean reopen creates
/// them.
#[test]
fn open_persistent_returns_a_failed_key_table_append() {
    let dir = tmpdir("open-eio");
    let wal = WalConfig {
        fault: Some(FaultPlan::eio_on_appends(1, 1)),
        ..WalConfig::default()
    };
    assert!(Proxy::open_persistent(&dir, MK, cfg(), wal).is_err());
    let (p, _) = Proxy::open_persistent(&dir, MK, cfg(), WalConfig::default()).unwrap();
    let tables = p.engine().table_names();
    for key_table in [
        "cryptdb_access_keys",
        "cryptdb_public_keys",
        "cryptdb_external_keys",
    ] {
        assert!(tables.iter().any(|t| t == key_table), "{key_table} missing");
    }
    p.execute("CREATE TABLE t (id int)").unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_rotation_recovers_the_acked_prefix() {
    let stmts = trace();
    let dir = tmpdir("rotate-crash");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        segment_bytes: 8 * 1024,
        // Die during the third segment rotation, after the old segment
        // is sealed but before any record lands in the new one.
        fault: Some(FaultPlan::kill_at_rotation(3)),
        ..WalConfig::default()
    };
    let out = drive(&dir, wal, &stmts);
    assert!(out.killed_at.is_some(), "the rotation kill never fired");
    let (dump, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    assert!(
        report.segments >= 3,
        "the sealed chain must survive the crash"
    );
    let prefix = covered_prefix(&out.seqs, &report);
    assert_eq!(
        prefix,
        out.seqs.len(),
        "an acknowledged statement was lost across the rotation crash"
    );
    let mut oracle = Oracle::new(&stmts);
    assert_eq!(dump, oracle.dump_at(prefix));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_retention_delete_recovers_the_acked_prefix() {
    let stmts = trace();
    let dir = tmpdir("retention-crash");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: Some(16),
        segment_bytes: 8 * 1024,
        keep_segments: Some(0),
        // Die on the first retention delete, right after a snapshot
        // committed: the chain is mid-prune, possibly with a gap ahead
        // of the epoch.
        fault: Some(FaultPlan::kill_at_retention(1)),
        ..WalConfig::default()
    };
    let out = drive(&dir, wal, &stmts);
    assert!(out.killed_at.is_some(), "the retention kill never fired");
    let (dump, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    assert!(
        report.snapshot_epoch.is_some(),
        "retention only runs after a committed snapshot"
    );
    let prefix = covered_prefix(&out.seqs, &report);
    assert_eq!(
        prefix,
        out.seqs.len(),
        "an acknowledged statement was lost across the retention crash"
    );
    let mut oracle = Oracle::new(&stmts);
    assert_eq!(dump, oracle.dump_at(prefix));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_suffix_recovery_equals_full_chain_replay() {
    let stmts = trace();
    let dir = tmpdir("equiv");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: Some(24),
        segment_bytes: 16 * 1024,
        // Retain the whole chain so the full-replay control run below
        // has every segment back to seq 1.
        keep_segments: None,
        ..WalConfig::default()
    };
    let out = drive(&dir, wal, &stmts);
    assert!(out.killed_at.is_none());

    // Normal recovery: snapshot + the post-epoch segment suffix.
    let (dump_suffix, report) = recover_dump(&dir);
    assert!(!report.corruption_detected);
    assert!(
        report.snapshot_epoch.is_some(),
        "the trace must have snapshotted"
    );
    assert!(report.segments > 1, "the trace must have rotated");

    // Control: the same directory minus the snapshot forces a full
    // replay of every segment from seq 1. Both recoveries must land on
    // byte-identical canonical state.
    let full_dir = tmpdir("equiv-full");
    fs::create_dir_all(&full_dir).unwrap();
    for entry in fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name().to_string_lossy() == "snapshot.bin" {
            continue;
        }
        fs::copy(entry.path(), full_dir.join(entry.file_name())).unwrap();
    }
    let (dump_full, report_full) = recover_dump(&full_dir);
    assert!(!report_full.corruption_detected);
    assert!(report_full.snapshot_epoch.is_none());
    assert_eq!(
        dump_suffix, dump_full,
        "snapshot + suffix recovery diverged from full-chain replay"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&full_dir);
}

#[test]
fn concurrent_serving_survives_restart() {
    let scale = scale();
    let dir = tmpdir("serve-restart");
    let persist = PersistConfig::new(&dir);
    // Concurrency needs more than one worker thread.
    let serve_cfg = ProxyConfig {
        runtime_threads: 0,
        ..cfg()
    };
    let traces: Vec<SessionTrace> = (0..3)
        .map(|i| SessionTrace::new(format!("s{i}"), mixed::session_trace(5, i, 3, &scale)))
        .collect();
    {
        let (proxy, recovery) = open_persistent(&persist, MK, serve_cfg.clone()).unwrap();
        assert_eq!(recovery.report.records_applied, 0, "fresh dir");
        for stmt in mixed::setup_statements(11, &scale) {
            proxy.execute(&stmt).unwrap();
        }
        for stmt in mixed::training_statements(&scale) {
            proxy.execute(&stmt).unwrap();
        }
        let report = Server::new(proxy).serve(traces.clone());
        assert_eq!(report.errors, 0, "concurrent run must be error-free");
    }

    // Reopen: the interleaved log must replay to the same state a
    // serial in-memory oracle reaches.
    let (proxy, recovery) = open_persistent(&persist, MK, serve_cfg).unwrap();
    assert!(!recovery.report.corruption_detected);
    assert!(recovery.report.records_applied > 0 || recovery.report.snapshot_epoch.is_some());

    let oracle = Oracle::new(&[]).proxy;
    for stmt in mixed::setup_statements(11, &scale) {
        oracle.execute(&stmt).unwrap();
    }
    for stmt in mixed::training_statements(&scale) {
        oracle.execute(&stmt).unwrap();
    }
    let (_, errors) = cryptdb_server::replay_serial(&oracle, &traces);
    assert_eq!(errors, 0);
    assert_eq!(
        canonical_dump(&proxy).unwrap(),
        canonical_dump(&oracle).unwrap(),
        "recovered state diverged from the serial oracle"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A crash between a transaction's writes and its `COMMIT` loses the
/// whole transaction and nothing else: the `COMMIT` record is torn
/// mid-append, and recovery rolls the open transaction back (logging
/// that rollback, so a second restart agrees). A crash between an
/// in-transaction onion adjustment and the `ROLLBACK` that never came
/// keeps the adjustment: it committed on its own.
#[test]
fn kill_between_transaction_writes_and_commit_rolls_the_transaction_back() {
    let setup = [
        "CREATE TABLE acct (id int, bal int, owner text)",
        "INSERT INTO acct (id, bal, owner) VALUES (1, 100, 'ann'), (2, 200, 'bo')",
    ];
    let txn = [
        "BEGIN",
        "UPDATE acct SET bal = bal + 5 WHERE id = 1",
        "INSERT INTO acct (id, bal, owner) VALUES (3, 300, 'cy')",
        "SELECT id FROM acct WHERE owner = 'bo'",
        "DELETE FROM acct WHERE id = 2",
        "COMMIT",
    ];
    let stmts: Vec<String> = setup.iter().chain(&txn).map(|s| s.to_string()).collect();
    let commit_at = stmts.len() - 1;

    // Fault-free run: where the COMMIT record starts.
    let base_dir = tmpdir("txn-kill-base");
    let (proxy, _) = Proxy::open_persistent(&base_dir, MK, cfg(), WalConfig::default()).unwrap();
    for stmt in &stmts[..commit_at] {
        proxy.execute(stmt).unwrap();
    }
    let commit_offset = proxy.engine().wal_len();
    drop(proxy);
    let _ = fs::remove_dir_all(&base_dir);

    let mut oracle = Oracle::new(&stmts);
    let committed = oracle.dump_at(setup.len());
    let dir = tmpdir("txn-kill");
    let wal = WalConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        fault: Some(FaultPlan::kill_at(commit_offset + 4)),
        ..WalConfig::default()
    };
    let out = drive(&dir, wal, &stmts);
    assert_eq!(out.killed_at, Some(commit_at), "the COMMIT append is torn");
    let (dump, report) = recover_dump(&dir);
    assert_eq!(report.tail, TailState::Torn);
    assert_eq!(dump, committed, "the open transaction is rolled back");
    let (dump, report) = recover_dump(&dir);
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(dump, committed, "the logged rollback replays the same");
    // The adjustment the SELECT made inside the transaction survived:
    // equality on `owner` works without another one.
    let (proxy, _) = Proxy::open_persistent(&dir, MK, cfg(), WalConfig::default()).unwrap();
    let seq = proxy.engine().wal_seq();
    let r = proxy
        .execute("SELECT id FROM acct WHERE owner = 'bo'")
        .unwrap();
    assert_eq!(r.rows(), &[vec![cryptdb_engine::Value::Int(2)]]);
    assert_eq!(proxy.engine().wal_seq(), seq, "no adjustment was needed");
    drop(proxy);
    let _ = fs::remove_dir_all(&dir);
}
