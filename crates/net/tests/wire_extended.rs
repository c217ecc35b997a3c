//! Extended-protocol wire tests: Parse/Bind/Describe/Execute/Close/Sync
//! over real sockets, incremental frame reassembly at every byte
//! boundary, pgwire error recovery (skip-until-Sync), and plan-cache
//! invalidation observed through a live connection.

use cryptdb_core::proxy::{Proxy, ProxyConfig};
use cryptdb_engine::Engine;
use cryptdb_net::{protocol, NetClient, NetLimits, NetServer, WireError};
use std::sync::Arc;

fn small_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

fn spawn() -> NetServer {
    NetServer::spawn(small_proxy(), "127.0.0.1:0").unwrap()
}

fn seed(c: &mut NetClient) {
    c.simple_query("CREATE TABLE emp (id int, name text)")
        .unwrap();
    c.simple_query("INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cy')")
        .unwrap();
}

/// Builds the six extended-protocol client frames plus Query, and
/// feeds every byte-boundary prefix through `try_parse_frame`: no
/// prefix may parse, the complete frame must parse to exactly (tag,
/// body, len), and concatenations must consume one frame at a time.
#[test]
fn frame_parser_reassembles_at_every_byte_boundary() {
    let mut frames: Vec<(u8, Vec<u8>)> = Vec::new();
    // Parse: name, sql, zero type hints.
    let mut parse = b"s1\0SELECT id FROM emp WHERE id = $1\0".to_vec();
    parse.extend_from_slice(&0i16.to_be_bytes());
    frames.push((b'P', parse));
    // Bind: portal, statement, formats, one text param, result formats.
    let mut bind = b"\0s1\0".to_vec();
    bind.extend_from_slice(&0i16.to_be_bytes());
    bind.extend_from_slice(&1i16.to_be_bytes());
    bind.extend_from_slice(&1i32.to_be_bytes());
    bind.push(b'2');
    bind.extend_from_slice(&0i16.to_be_bytes());
    frames.push((b'B', bind));
    // Describe statement.
    frames.push((b'D', b"Ss1\0".to_vec()));
    // Execute: portal + no row limit.
    let mut execute = b"\0".to_vec();
    execute.extend_from_slice(&0i32.to_be_bytes());
    frames.push((b'E', execute));
    // Close statement.
    frames.push((b'C', b"Ss1\0".to_vec()));
    // Sync: empty body.
    frames.push((b'S', Vec::new()));
    // Simple query rides the same parser.
    frames.push((b'Q', b"SELECT 1\0".to_vec()));

    let max = protocol::MAX_FRAME;
    let mut all = Vec::new();
    for (tag, body) in &frames {
        let mut wire = Vec::new();
        protocol::push_frame(&mut wire, *tag, body);
        for cut in 0..wire.len() {
            assert_eq!(
                protocol::try_parse_frame(&wire[..cut], max).unwrap(),
                None,
                "prefix of {} bytes of {:?} must not parse",
                cut,
                *tag as char
            );
        }
        let (got_tag, got_body, used) = protocol::try_parse_frame(&wire, max).unwrap().unwrap();
        assert_eq!((got_tag, used), (*tag, wire.len()));
        assert_eq!(&got_body, body);
        all.extend_from_slice(&wire);
    }
    // Concatenated stream: frames come back one at a time, in order.
    let mut rest = &all[..];
    for (tag, body) in &frames {
        let (got_tag, got_body, used) = protocol::try_parse_frame(rest, max).unwrap().unwrap();
        assert_eq!(got_tag, *tag);
        assert_eq!(&got_body, body);
        rest = &rest[used..];
    }
    assert!(rest.is_empty());
}

#[test]
fn empty_query_answers_empty_query_response() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    // Raw Q with an empty string: the wire answer must be
    // EmptyQueryResponse ('I') then ReadyForQuery, not a zero-row
    // SELECT and not a syntax error.
    let mut q = Vec::new();
    protocol::push_frame(&mut q, b'Q', b"\0");
    c.send_raw(&q).unwrap();
    let (tag, _) = c.read_raw_frame().unwrap();
    assert_eq!(tag, b'I');
    let (tag, _) = c.read_raw_frame().unwrap();
    assert_eq!(tag, b'Z');
    // Whitespace-only counts as empty too, and the decoded client
    // path agrees.
    let r = c.simple_query("   ").unwrap();
    assert_eq!(r.command_tag, "");
    assert!(r.rows.is_empty());
    // The connection is still fully usable.
    let r = c.simple_query("SELECT 1").unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
}

#[test]
fn prepared_cycle_matches_simple_query() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    let prepared = c
        .prepare("fetch", "SELECT id, name FROM emp WHERE id = $1")
        .unwrap();
    assert_eq!(prepared.param_oids, vec![protocol::OID_INT8]);
    assert_eq!(
        prepared
            .columns
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["id", "name"]
    );
    for id in ["1", "2", "3"] {
        let viaprep = c
            .execute_prepared("fetch", &[Some(id.to_string())])
            .unwrap();
        let viasimple = c
            .simple_query(&format!("SELECT id, name FROM emp WHERE id = {id}"))
            .unwrap();
        assert_eq!(viaprep.canonical_text(), viasimple.canonical_text());
        assert_eq!(viaprep.command_tag, viasimple.command_tag);
    }
    // NULL binds as NULL: no row has a NULL id.
    let r = c.execute_prepared("fetch", &[None]).unwrap();
    assert!(r.rows.is_empty());
    // Prepared writes work through the generic plan.
    c.prepare("ins", "INSERT INTO emp (id, name) VALUES ($1, $2)")
        .unwrap();
    let r = c
        .execute_prepared("ins", &[Some("4".into()), Some("di".into())])
        .unwrap();
    assert_eq!(r.command_tag, "INSERT 0 1");
    let r = c.simple_query("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(r.rows, vec![vec![Some("4".into())]]);
    c.terminate().unwrap();
}

/// Each request leaves the client as one segment, and a segment holding
/// a whole request costs the server one mux wake-up, whether its
/// statement runs on the mux thread (a bounded prepared read) or on a
/// pool worker that writes the response itself (a simple query).
#[test]
fn one_wakeup_per_request() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    c.prepare("fetch", "SELECT id, name FROM emp WHERE id = $1")
        .unwrap();
    let before = server.stats().reader_wakeups;
    let ops = 200;
    for i in 0..ops {
        let id = (i % 3 + 1).to_string();
        let r = c.execute_prepared("fetch", &[Some(id.clone())]).unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = c
            .simple_query(&format!("SELECT name FROM emp WHERE id = {id}"))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }
    let woken = server.stats().reader_wakeups - before;
    assert!(
        woken * 10 <= 2 * ops * 11,
        "{woken} mux wake-ups for {} requests",
        2 * ops
    );
    c.terminate().unwrap();
}

#[test]
fn unknown_statement_name_draws_26000() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    let err = c.execute_prepared("nosuch", &[]).unwrap_err();
    match err {
        WireError::Server { code, severity, .. } => {
            assert_eq!(code, "26000");
            assert_eq!(severity, "ERROR");
        }
        other => panic!("expected 26000, got {other}"),
    }
    // The error was recovered by Sync: the connection still works.
    let r = c.simple_query("SELECT 1").unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
}

#[test]
fn duplicate_statement_name_draws_42p05() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    c.prepare("dup", "SELECT id FROM emp").unwrap();
    let err = c.prepare("dup", "SELECT name FROM emp").unwrap_err();
    match err {
        WireError::Server { code, .. } => assert_eq!(code, "42P05"),
        other => panic!("expected 42P05, got {other}"),
    }
    // Close frees the name for reuse; closing a missing name is also
    // fine (CloseComplete either way).
    c.close_statement("dup").unwrap();
    c.close_statement("never-existed").unwrap();
    c.prepare("dup", "SELECT name FROM emp").unwrap();
    let r = c.execute_prepared("dup", &[]).unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn error_skips_messages_until_sync() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    // Pipeline: Bind against a missing statement (errors), then
    // Describe + Execute that must be SKIPPED, then Sync. The wire
    // must carry exactly one ErrorResponse and one ReadyForQuery —
    // nothing for the skipped messages.
    let mut out = Vec::new();
    let mut bind = b"p1\0ghost\0".to_vec();
    bind.extend_from_slice(&0i16.to_be_bytes());
    bind.extend_from_slice(&0i16.to_be_bytes());
    bind.extend_from_slice(&0i16.to_be_bytes());
    protocol::push_frame(&mut out, b'B', &bind);
    protocol::push_frame(&mut out, b'D', b"Pp1\0".as_ref());
    let mut execute = b"p1\0".to_vec();
    execute.extend_from_slice(&0i32.to_be_bytes());
    protocol::push_frame(&mut out, b'E', &execute);
    protocol::push_frame(&mut out, b'S', &[]);
    c.send_raw(&out).unwrap();
    let (tag, body) = c.read_raw_frame().unwrap();
    assert_eq!(tag, b'E');
    let (_, code, _) = protocol::parse_error_body(&body);
    assert_eq!(code, "26000");
    let (tag, _) = c.read_raw_frame().unwrap();
    assert_eq!(tag, b'Z', "skipped messages must produce no frames");
    // After Sync the protocol is reset.
    let r = c.simple_query("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(r.rows, vec![vec![Some("3".into())]]);
}

#[test]
fn simple_and_extended_interleave_on_one_connection() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    c.prepare("byid", "SELECT name FROM emp WHERE id = $1")
        .unwrap();
    let r = c.execute_prepared("byid", &[Some("1".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("ann".into())]]);
    // Simple statements between extended cycles, touching the same
    // table the plan reads.
    c.simple_query("INSERT INTO emp (id, name) VALUES (9, 'zed')")
        .unwrap();
    let r = c.execute_prepared("byid", &[Some("9".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("zed".into())]]);
    // A simple-path *error* must not poison the extended maps.
    assert!(c.simple_query("SELECT nope FROM emp").is_err());
    let r = c.execute_prepared("byid", &[Some("2".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("bob".into())]]);
    c.terminate().unwrap();
}

#[test]
fn ddl_invalidates_cached_plan_mid_session() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    c.simple_query("CREATE TABLE t (k int, v text)").unwrap();
    c.simple_query("INSERT INTO t (k, v) VALUES (1, 'old')")
        .unwrap();
    c.prepare("get", "SELECT v FROM t WHERE k = $1").unwrap();
    let r = c.execute_prepared("get", &[Some("1".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("old".into())]]);
    // DDL on the same connection moves the schema epoch under the
    // cached plan; the next Execute must re-plan, never serve stale
    // keys or stale anonymized names.
    c.simple_query("DROP TABLE t").unwrap();
    c.simple_query("CREATE TABLE t (k int, v text)").unwrap();
    c.simple_query("INSERT INTO t (k, v) VALUES (1, 'new')")
        .unwrap();
    let r = c.execute_prepared("get", &[Some("1".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("new".into())]]);
    let stats = server.stats();
    assert!(stats.plans_invalidated >= 1, "{stats:?}");
    assert!(stats.plans_cached >= 1, "{stats:?}");
}

#[test]
fn prepared_statement_cap_draws_53400() {
    let limits = NetLimits {
        max_prepared_statements: 2,
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    c.prepare("a", "SELECT id FROM emp").unwrap();
    c.prepare("b", "SELECT name FROM emp").unwrap();
    let err = c.prepare("c", "SELECT id, name FROM emp").unwrap_err();
    match err {
        WireError::Server { code, .. } => assert_eq!(code, "53400"),
        other => panic!("expected 53400, got {other}"),
    }
    // Close one and the slot frees up.
    c.close_statement("a").unwrap();
    c.prepare("c", "SELECT id, name FROM emp").unwrap();
    let r = c.execute_prepared("c", &[]).unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn empty_prepared_statement_executes_as_empty_query() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    let prepared = c.prepare("nop", "   ").unwrap();
    assert!(prepared.param_oids.is_empty());
    assert!(prepared.columns.is_empty());
    let r = c.execute_prepared("nop", &[]).unwrap();
    assert_eq!(r.command_tag, "");
    assert!(r.rows.is_empty());
    let r = c.simple_query("SELECT 1").unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
}

#[test]
fn bind_arity_mismatch_draws_08p01() {
    let server = spawn();
    let mut c = NetClient::connect(server.local_addr(), "alice", "").unwrap();
    seed(&mut c);
    c.prepare("one", "SELECT id FROM emp WHERE name = $1")
        .unwrap();
    let err = c.execute_prepared("one", &[]).unwrap_err();
    match err {
        WireError::Server { code, .. } => assert_eq!(code, "08P01"),
        other => panic!("expected 08P01, got {other}"),
    }
    let err = c
        .execute_prepared("one", &[Some("x".into()), Some("y".into())])
        .unwrap_err();
    match err {
        WireError::Server { code, .. } => assert_eq!(code, "08P01"),
        other => panic!("expected 08P01, got {other}"),
    }
    // Correct arity still works after the recovered errors.
    let r = c.execute_prepared("one", &[Some("ann".into())]).unwrap();
    assert_eq!(r.rows, vec![vec![Some("1".into())]]);
}
