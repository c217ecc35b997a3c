//! Engine-level durability: attach a WAL, mutate, drop the engine,
//! recover, and compare full state — including snapshot replay, torn
//! tails, transaction markers, and transactions a crash left open.

use cryptdb_engine::{Engine, FaultPlan, FsyncPolicy, TailState, Value, WalConfig};
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryptdb-engine-wal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dump(engine: &Engine) -> String {
    let mut out = String::new();
    for name in engine.table_names() {
        let cols: Vec<String> = engine
            .with_table(&name, |t| {
                t.columns().iter().map(|c| c.name.clone()).collect()
            })
            .unwrap();
        let sql = format!("SELECT {} FROM {name}", cols.join(", "));
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&engine.execute_sql(&sql).unwrap().canonical_text());
        out.push('\n');
    }
    out
}

fn seed(engine: &Engine) {
    engine
        .execute_sql(
            "CREATE TABLE users (id int, name text); \
             CREATE INDEX ON users (id); \
             INSERT INTO users (id, name) VALUES (1, 'alice'), (2, 'bob'), (3, 'carol'); \
             UPDATE users SET name = 'robert' WHERE id = 2; \
             DELETE FROM users WHERE id = 3; \
             CREATE TABLE empty_t (x int)",
        )
        .unwrap();
}

#[test]
fn recover_replays_full_log() {
    let dir = tmpdir("replay");
    let before = {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        seed(&engine);
        assert!(engine.has_wal());
        assert!(engine.wal_seq() >= 6);
        dump(&engine)
    };
    let (recovered, rec) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(dump(&recovered), before);
    assert_eq!(rec.report.tail, TailState::Clean);
    assert!(!rec.report.corruption_detected);
    // Rowid allocation resumes where the original run left off: new
    // inserts must not collide with replayed rows.
    recovered
        .execute_sql("INSERT INTO users (id, name) VALUES (4, 'dave')")
        .unwrap();
    let n = recovered
        .execute_sql("SELECT COUNT(id) FROM users")
        .unwrap();
    assert_eq!(n.scalar(), Some(&Value::Int(3)));
    // Indexes were rebuilt by replay.
    assert!(recovered.with_table("users", |t| t.has_index(0)).unwrap());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recover_from_snapshot_plus_suffix() {
    let dir = tmpdir("snapshot");
    let before = {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        seed(&engine);
        let epoch = engine.snapshot_now().unwrap().expect("snapshot written");
        assert!(epoch >= 6);
        // Mutations after the snapshot live only in the log suffix.
        engine
            .execute_sql("INSERT INTO users (id, name) VALUES (9, 'post-snap')")
            .unwrap();
        dump(&engine)
    };
    let (recovered, rec) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert!(rec.report.snapshot_epoch.is_some());
    assert_eq!(rec.report.records_applied, 1, "only the suffix replays");
    assert_eq!(dump(&recovered), before);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn auto_snapshot_fires_on_interval() {
    let dir = tmpdir("autosnap");
    {
        let engine = Engine::new();
        engine
            .attach_wal(
                &dir,
                WalConfig {
                    snapshot_every: Some(3),
                    ..WalConfig::default()
                },
            )
            .unwrap();
        seed(&engine);
    }
    assert!(cryptdb_wal::snapshot_path(&dir).exists());
    let (recovered, rec) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert!(rec.report.snapshot_epoch.is_some());
    assert_eq!(recovered.table_names(), vec!["empty_t", "users"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_recovers_acknowledged_prefix() {
    let dir = tmpdir("torn");
    // Clean run to learn the final log length.
    {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        seed(&engine);
    }
    let clean_len = fs::metadata(cryptdb_wal::log_path(&dir)).unwrap().len();
    let _ = fs::remove_dir_all(&dir);

    // Same run, killed 11 bytes before the end: the last statement's
    // record tears.
    let engine = Engine::new();
    engine
        .attach_wal(
            &dir,
            WalConfig {
                fault: Some(FaultPlan::kill_at(clean_len - 11)),
                ..WalConfig::default()
            },
        )
        .unwrap();
    let mut acked = 0;
    for sql in [
        "CREATE TABLE users (id int, name text)",
        "CREATE INDEX ON users (id)",
        "INSERT INTO users (id, name) VALUES (1, 'alice'), (2, 'bob'), (3, 'carol')",
        "UPDATE users SET name = 'robert' WHERE id = 2",
        "DELETE FROM users WHERE id = 3",
        "CREATE TABLE empty_t (x int)",
    ] {
        if engine.execute_sql(sql).is_ok() {
            acked += 1;
        }
    }
    assert!(acked < 6, "the kill must reject at least one statement");
    drop(engine);

    // Oracle: a fresh in-memory engine executing exactly the
    // acknowledged prefix.
    let (recovered, rec) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(rec.report.tail, TailState::Torn);
    let oracle = Engine::new();
    for sql in [
        "CREATE TABLE users (id int, name text)",
        "CREATE INDEX ON users (id)",
        "INSERT INTO users (id, name) VALUES (1, 'alice'), (2, 'bob'), (3, 'carol')",
        "UPDATE users SET name = 'robert' WHERE id = 2",
        "DELETE FROM users WHERE id = 3",
        "CREATE TABLE empty_t (x int)",
    ]
    .iter()
    .take(acked)
    {
        oracle.execute_sql(sql).unwrap();
    }
    assert_eq!(dump(&recovered), dump(&oracle));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transaction_markers_replay_rollback() {
    let dir = tmpdir("txn");
    let before = {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        engine
            .execute_sql(
                "CREATE TABLE t (x int); \
                 INSERT INTO t (x) VALUES (1); \
                 BEGIN; \
                 INSERT INTO t (x) VALUES (2); \
                 ROLLBACK; \
                 INSERT INTO t (x) VALUES (3)",
            )
            .unwrap();
        dump(&engine)
    };
    let (recovered, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(dump(&recovered), before);
    let r = recovered.execute_sql("SELECT COUNT(x) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)), "rollback replayed");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn attach_refuses_existing_log() {
    let dir = tmpdir("refuse");
    {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        engine.execute_sql("CREATE TABLE t (x int)").unwrap();
    }
    let fresh = Engine::new();
    assert!(fresh.attach_wal(&dir, WalConfig::default()).is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_n_policy_survives_explicit_sync() {
    let dir = tmpdir("everyn");
    {
        let engine = Engine::new();
        engine
            .attach_wal(
                &dir,
                WalConfig {
                    fsync: FsyncPolicy::EveryN(4),
                    ..WalConfig::default()
                },
            )
            .unwrap();
        seed(&engine);
        engine.wal_sync().unwrap();
    }
    let (recovered, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(recovered.table_names(), vec!["empty_t", "users"]);
    let _ = fs::remove_dir_all(&dir);
}

fn count(engine: &Engine, table: &str) -> Option<Value> {
    engine
        .execute_sql(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .scalar()
        .cloned()
}

#[test]
fn transaction_open_at_crash_is_rolled_back() {
    let dir = tmpdir("txn-open");
    {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        engine
            .execute_sql(
                "CREATE TABLE t (x int); \
                 INSERT INTO t (x) VALUES (1); \
                 BEGIN; \
                 INSERT INTO t (x) VALUES (2)",
            )
            .unwrap();
    }
    let (recovered, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    let r = recovered.execute_sql("SELECT COUNT(x) FROM t").unwrap();
    assert_eq!(
        r.scalar(),
        Some(&Value::Int(1)),
        "the open insert is undone"
    );
    // The rollback is in the log: a write after recovery survives a
    // second crash, and the undone insert stays undone.
    recovered
        .execute_sql("INSERT INTO t (x) VALUES (3)")
        .unwrap();
    let after = dump(&recovered);
    drop(recovered);
    let (again, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(dump(&again), after);
    assert_eq!(count(&again, "t"), Some(Value::Int(2)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_undoes_open_updates_deletes_and_ddl_from_before_images() {
    let dir = tmpdir("txn-images");
    let committed = {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        seed(&engine);
        let committed = dump(&engine);
        engine
            .execute_sql(
                "BEGIN; \
                 UPDATE users SET name = 'zed' WHERE id = 1; \
                 DELETE FROM users WHERE id = 2; \
                 INSERT INTO users (id, name) VALUES (9, 'ivan'); \
                 UPDATE users SET name = 'ivo' WHERE id = 9; \
                 CREATE TABLE extra (y int); \
                 INSERT INTO extra (y) VALUES (1); \
                 CREATE INDEX ON empty_t (x); \
                 DROP TABLE empty_t",
            )
            .unwrap();
        committed
    };
    let (recovered, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(dump(&recovered), committed);
    assert_eq!(recovered.table_names(), vec!["empty_t", "users"]);
    let indexed = recovered
        .with_table("empty_t", |t| t.indexed_columns())
        .unwrap();
    assert!(indexed.is_empty(), "the open CREATE INDEX is undone");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn live_rollback_replays_to_the_same_state() {
    let dir = tmpdir("txn-live");
    let before = {
        let engine = Engine::new();
        engine.attach_wal(&dir, WalConfig::default()).unwrap();
        seed(&engine);
        engine
            .execute_sql(
                "BEGIN; \
                 UPDATE users SET name = 'zed' WHERE id = 1; \
                 DELETE FROM users WHERE id = 2; \
                 DROP TABLE empty_t; \
                 ROLLBACK; \
                 INSERT INTO users (id, name) VALUES (4, 'dan')",
            )
            .unwrap();
        dump(&engine)
    };
    let (recovered, _) = Engine::recover(&dir, WalConfig::default()).unwrap();
    assert_eq!(dump(&recovered), before);
    assert_eq!(count(&recovered, "users"), Some(Value::Int(3)));
    let _ = fs::remove_dir_all(&dir);
}
