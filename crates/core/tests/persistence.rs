//! Proxy-level durability: kill the proxy, reopen from the WAL
//! directory, and check that ciphertext state, onion levels, join
//! groups, staleness bits, and the multi-principal key graph all
//! survive the restart — and that snapshot-anchored retention keeps both
//! the disk and the replay bounded by the snapshot cadence.

use cryptdb_core::proxy::{EncryptionPolicy, Proxy, ProxyConfig};
use cryptdb_core::SecLevel;
use cryptdb_engine::{FsyncPolicy, Value, WalConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryptdb-core-wal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> ProxyConfig {
    ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    }
}

fn open(dir: &Path, cfg: ProxyConfig) -> Proxy {
    let (p, _) = Proxy::open_persistent(dir, [7u8; 32], cfg, WalConfig::default()).unwrap();
    p
}

#[test]
fn restart_preserves_data_and_onion_levels() {
    let dir = tmpdir("levels");
    {
        let p = open(&dir, small_cfg());
        p.execute("CREATE TABLE emp (id int, salary int, name text)")
            .unwrap();
        p.execute(
            "INSERT INTO emp (id, salary, name) VALUES \
             (1, 100, 'alice'), (2, 250, 'bob'), (3, 80, 'carol')",
        )
        .unwrap();
        // Exposes DET on id and OPE on salary.
        p.execute("SELECT name FROM emp WHERE id = 2").unwrap();
        p.execute("SELECT name FROM emp WHERE salary > 90 ORDER BY salary LIMIT 2")
            .unwrap();
    }
    let p = open(&dir, small_cfg());
    // Data round-trips through recovered ciphertext + recovered keys.
    let r = p.execute("SELECT name FROM emp WHERE id = 2").unwrap();
    assert_eq!(r.rows()[0][0], Value::Str("bob".into()));
    let r = p
        .execute("SELECT name FROM emp ORDER BY salary LIMIT 1")
        .unwrap();
    assert_eq!(r.rows()[0][0], Value::Str("carol".into()));
    // Onion levels survived: the recovered schema knows id/salary are
    // already exposed (no re-adjustment executes; MinEnc reflects it).
    let min = |c: &str| p.with_schema(|s| s.table("emp").unwrap().column(c).unwrap().min_enc());
    assert_eq!(min("id"), SecLevel::Det);
    assert_eq!(min("salary"), SecLevel::Ope);
    // New inserts get fresh, non-colliding rids.
    p.execute("INSERT INTO emp (id, salary, name) VALUES (4, 500, 'dave')")
        .unwrap();
    let r = p.execute("SELECT COUNT(id) FROM emp").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(4)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_preserves_stale_bit_and_refresh_works() {
    let dir = tmpdir("stale");
    {
        let p = open(&dir, small_cfg());
        p.execute("CREATE TABLE acct (id int, balance int)")
            .unwrap();
        p.execute("INSERT INTO acct (id, balance) VALUES (1, 10), (2, 20)")
            .unwrap();
        // HOM increment → balance goes stale.
        p.execute("UPDATE acct SET balance = balance + 5 WHERE id = 1")
            .unwrap();
        assert!(p.with_schema(|s| s.table("acct").unwrap().column("balance").unwrap().stale));
    }
    let p = open(&dir, small_cfg());
    assert!(
        p.with_schema(|s| s.table("acct").unwrap().column("balance").unwrap().stale),
        "staleness must survive the restart"
    );
    // The recovered proxy can still refresh and serve comparisons.
    let r = p.execute("SELECT id FROM acct WHERE balance = 15").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));
    assert!(!p.with_schema(|s| s.table("acct").unwrap().column("balance").unwrap().stale));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_preserves_join_groups_and_drop_table() {
    let dir = tmpdir("join");
    {
        let p = open(&dir, small_cfg());
        p.execute(
            "CREATE TABLE a (x int); CREATE TABLE b (y int); CREATE TABLE gone (z int); \
             INSERT INTO a (x) VALUES (1), (2); INSERT INTO b (y) VALUES (2), (3)",
        )
        .unwrap();
        // Equi-join merges the join groups of a.x and b.y.
        p.execute("SELECT x FROM a, b WHERE a.x = b.y").unwrap();
        p.execute("DROP TABLE gone").unwrap();
    }
    let p = open(&dir, small_cfg());
    let (oa, ob) = p.with_schema(|s| {
        (
            s.table("a")
                .unwrap()
                .column("x")
                .unwrap()
                .join_owner
                .clone(),
            s.table("b")
                .unwrap()
                .column("y")
                .unwrap()
                .join_owner
                .clone(),
        )
    });
    assert_eq!(oa, ob, "merged join group must survive the restart");
    // The merged group still joins without re-adjustment.
    let r = p.execute("SELECT x FROM a, b WHERE a.x = b.y").unwrap();
    assert_eq!(r.rows().len(), 1);
    assert!(p.execute("SELECT z FROM gone").is_err(), "drop survived");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_preserves_multiprincipal_key_graph() {
    let dir = tmpdir("mp");
    let cfg = ProxyConfig {
        paillier_bits: 256,
        policy: EncryptionPolicy::AnnotatedOnly,
        ..Default::default()
    };
    {
        let p = open(&dir, cfg.clone());
        p.execute(
            "PRINCTYPE physical_user EXTERNAL; \
             PRINCTYPE user, msg; \
             CREATE TABLE privmsgs ( msgid int, \
               msgtext text ENC FOR (msgid msg) ); \
             CREATE TABLE privmsgs_to ( msgid int, rcpt_id int, \
               (rcpt_id user) SPEAKS FOR (msgid msg) ); \
             CREATE TABLE users ( userid int, username varchar(255), \
               (username physical_user) SPEAKS FOR (userid user) )",
        )
        .unwrap();
        p.execute("INSERT INTO cryptdb_active (username, password) VALUES ('alice', 'pw')")
            .unwrap();
        p.execute("INSERT INTO users (userid, username) VALUES (1, 'alice')")
            .unwrap();
        p.execute("INSERT INTO privmsgs (msgid, msgtext) VALUES (5, 'attack at dawn')")
            .unwrap();
        p.execute("INSERT INTO privmsgs_to (msgid, rcpt_id) VALUES (5, 1)")
            .unwrap();
    }
    // Restart: no one is logged in, so the proxy can only hand back the
    // raw ciphertext (the key chain is unreachable)...
    let p = open(&dir, cfg);
    let r = p
        .execute("SELECT msgtext FROM privmsgs WHERE msgid = 5")
        .unwrap();
    assert!(
        matches!(r.rows()[0][0], Value::Bytes(_)),
        "without a login the recovered proxy must not decrypt"
    );
    // ...until Alice logs back in and the wrapped key chain unlocks.
    p.login("alice", "pw").unwrap();
    let r = p
        .execute("SELECT msgtext FROM privmsgs WHERE msgid = 5")
        .unwrap();
    assert_eq!(r.rows()[0][0], Value::Str("attack at dawn".into()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retention_bounds_disk_and_replay_through_the_proxy() {
    // A long write trace through a segmented, snapshot-anchored WAL.
    // Plaintext columns keep it quick in debug. A record runs ~70
    // bytes, so a snapshot cadence spans ~10 segments and the trace
    // rotates ~120: the bars below hold only if retention deletes what
    // each snapshot supersedes.
    const INSERTS: u64 = 2_500;
    const SNAPSHOT_EVERY: u64 = 200;
    const SEGMENT_BYTES: u64 = 1536;
    let dir = tmpdir("retention");
    let cfg = ProxyConfig {
        policy: EncryptionPolicy::Explicit(Default::default()),
        ..small_cfg()
    };
    let wal = WalConfig {
        fsync: FsyncPolicy::EveryN(32),
        snapshot_every: Some(SNAPSHOT_EVERY),
        segment_bytes: SEGMENT_BYTES,
        ..WalConfig::default()
    };
    let (stats, wal_stats) = {
        let (p, _) = Proxy::open_persistent(&dir, [7u8; 32], cfg.clone(), wal).unwrap();
        p.execute("CREATE TABLE long_trace (id int, v int)")
            .unwrap();
        for i in 0..INSERTS {
            p.execute(&format!(
                "INSERT INTO long_trace (id, v) VALUES ({i}, {})",
                i * 3
            ))
            .unwrap();
        }
        (p.engine().durability_stats(), p.engine().wal_stats())
    };
    // Disk bounded: the live chain stays within a snapshot cadence's
    // worth of segments, while rotation and deletion counters witness
    // many times that history.
    assert!(stats.wal_disk_bytes <= 16 * SEGMENT_BYTES, "{stats:?}");
    assert!(
        stats.wal_segments * 4 <= wal_stats.rotations,
        "{stats:?} {wal_stats:?}"
    );
    assert!(wal_stats.rotations >= 6, "{wal_stats:?}");
    assert!(wal_stats.segments_deleted >= 4, "{wal_stats:?}");
    assert!(stats.last_seq > INSERTS);

    // Replay bounded: reopening applies only the post-snapshot suffix.
    let (p, recovery) = Proxy::open_persistent(&dir, [7u8; 32], cfg, WalConfig::default()).unwrap();
    assert!(!recovery.report.corruption_detected);
    assert!(
        recovery.report.records_applied <= 2 * SNAPSHOT_EVERY,
        "replayed {} records",
        recovery.report.records_applied
    );
    let r = p.execute("SELECT COUNT(id) FROM long_trace").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(INSERTS as i64)));
    let _ = fs::remove_dir_all(&dir);
}
