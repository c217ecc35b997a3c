//! Hostile bytes at the wire parser, and honest bytes in hostile
//! pieces: property tests over `try_parse_startup` / `try_parse_frame`
//! and the extended-protocol frame decoders, then over a live server
//! fed valid `Parse`/`Bind`/`Describe`/`Execute`/`Close`/`Sync`
//! sequences truncated at every byte offset and split at arbitrary
//! read boundaries. Nothing may panic, the reassembly buffer is bounded
//! by `max_frame`, and every sequence that reaches its `Sync` recovers
//! to `ReadyForQuery` with the same bytes however it was cut up.

mod common;

use common::*;
use cryptdb_net::{protocol, NetClient, NetLimits, NetServer};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The mux's reassembly loop in miniature: append a read, take every
/// complete frame off the front. Returns the frames, or `Err` where the
/// mux would answer FATAL and close.
fn reassemble(
    rbuf: &mut Vec<u8>,
    read: &[u8],
    max_frame: usize,
) -> std::io::Result<Vec<(u8, Vec<u8>)>> {
    rbuf.extend_from_slice(read);
    let mut frames = Vec::new();
    while let Some((tag, body, used)) = protocol::try_parse_frame(rbuf, max_frame)? {
        rbuf.drain(..used);
        frames.push((tag, body));
    }
    Ok(frames)
}

/// One client message chosen by four small numbers, over a name pool
/// small enough that sequences collide: duplicates, unknown statements,
/// unbound portals, wrong arity, text in an int slot, an empty and a
/// malformed statement all occur.
fn message((kind, a, b, c): (u8, u8, u8, u8)) -> Frame {
    const STMTS: [&str; 3] = ["", "a", "b"];
    const PORTALS: [&str; 2] = ["", "p"];
    const SQL: [&str; 4] = [
        "SELECT id, name FROM emp WHERE id = $1",
        "SELECT name FROM emp",
        "   ",
        "SELEC nonsense",
    ];
    const VALUES: [Option<&str>; 3] = [Some("2"), Some("x"), None];
    let stmt = STMTS[a as usize % 3];
    let portal = PORTALS[b as usize % 2];
    match kind % 6 {
        0 => parse(stmt, SQL[c as usize % 4]),
        1 => bind(portal, stmt, &VALUES[..c as usize % 3]),
        2 if c % 2 == 0 => describe(b'S', stmt),
        2 => describe(b'P', portal),
        3 => execute(portal),
        4 if c % 2 == 0 => close(b'S', stmt),
        4 => close(b'P', portal),
        _ => sync(),
    }
}

fn sequence(picks: Vec<(u8, u8, u8, u8)>) -> Vec<Frame> {
    let mut frames: Vec<Frame> = picks.into_iter().map(message).collect();
    frames.push(sync());
    frames
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_and_never_reserve_past_max_frame(
        bytes in vec(any::<u8>(), 0..48),
        max_frame in 64usize..4096,
    ) {
        match protocol::try_parse_frame(&bytes, max_frame) {
            // "Need more bytes" is only ever said about a frame that
            // will fit: what the mux buffers while it waits is bounded.
            Ok(None) => {
                if bytes.len() >= 5 {
                    let declared = i32::from_be_bytes(bytes[1..5].try_into().unwrap());
                    prop_assert!((4..=max_frame as i32 + 4).contains(&declared));
                }
            }
            Ok(Some((tag, body, used))) => {
                prop_assert_eq!(tag, bytes[0]);
                prop_assert!(used <= bytes.len() && body.len() + 5 == used);
                prop_assert!(body.len() <= max_frame);
            }
            Err(_) => {}
        }
        match protocol::try_parse_startup(&bytes, max_frame) {
            Ok(None) => {
                if bytes.len() >= 4 {
                    let declared = i32::from_be_bytes(bytes[0..4].try_into().unwrap());
                    prop_assert!((8..=max_frame as i32 + 4).contains(&declared));
                }
            }
            Ok(Some((_, used))) => prop_assert!((8..=bytes.len()).contains(&used)),
            Err(_) => {}
        }
        // The body decoders see whatever a well-framed liar sends.
        let _ = protocol::parse_cstr_body(&bytes);
        let _ = protocol::parse_parse_body(&bytes);
        let _ = protocol::parse_bind_body(&bytes);
        let _ = protocol::parse_describe_body(&bytes);
        let _ = protocol::parse_execute_body(&bytes);
        let _ = protocol::parse_error_body(&bytes);
    }

    #[test]
    fn damaged_valid_frames_never_panic_a_decoder(
        pick in (0u8..5, any::<u8>(), any::<u8>(), any::<u8>()),
        cut in 0usize..64,
        flips in vec((0usize..64, any::<u8>()), 0..4),
    ) {
        let (tag, mut body) = message(pick);
        body.truncate(body.len().saturating_sub(cut % 8));
        for (at, value) in flips {
            if !body.is_empty() {
                let at = at % body.len();
                body[at] = value;
            }
        }
        match tag {
            b'P' => drop(protocol::parse_parse_body(&body)),
            b'B' => drop(protocol::parse_bind_body(&body)),
            b'D' | b'C' => drop(protocol::parse_describe_body(&body)),
            _ => drop(protocol::parse_execute_body(&body)),
        }
    }

    #[test]
    fn sequences_reassemble_across_arbitrary_read_boundaries(
        picks in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        sizes in vec(1usize..24, 1..16),
    ) {
        let frames = sequence(picks);
        let bytes = wire(&frames);
        let largest = frames.iter().map(|(_, body)| body.len() + 5).max().unwrap();
        let mut rbuf = Vec::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        for size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (read, tail) = rest.split_at((*size).min(rest.len()));
            rest = tail;
            got.extend(reassemble(&mut rbuf, read, 128).unwrap());
            // Never more than one incomplete frame is held back.
            prop_assert!(rbuf.len() < largest);
        }
        prop_assert!(rbuf.is_empty());
        prop_assert_eq!(got, frames);
    }
}

/// One server for every live case: sessions are per connection, and
/// the only shared state the cases touch is this read-only table.
fn server() -> &'static NetServer {
    static SERVER: OnceLock<NetServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let server = NetServer::spawn(small_proxy(), "127.0.0.1:0").unwrap();
        let mut c = NetClient::connect(server.local_addr(), "seed", "").unwrap();
        c.simple_query("CREATE TABLE emp (id int, name text)")
            .unwrap();
        c.simple_query("INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, 'bob'), (3, 'cy')")
            .unwrap();
        c.terminate().unwrap();
        server
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn split_sequences_answer_byte_for_byte_like_unsplit_ones(
        picks in vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        sizes in vec(1usize..40, 1..12),
    ) {
        let frames = sequence(picks);
        let bytes = wire(&frames);
        let addr = server().local_addr();

        let mut whole = RawConn::open(addr);
        whole.send(&bytes);
        let expected = whole.read_cycles(cycles(&frames));
        // Per spec the stream ends in ReadyForQuery, one per Sync...
        prop_assert!(tags(&expected).ends_with('Z'));
        prop_assert_eq!(tags(&expected).matches('Z').count(), cycles(&frames));
        // ...and the connection is as good as new.
        whole.send(&wire(&[query("SELECT name FROM emp WHERE id = 3")]));
        prop_assert_eq!(tags(&whole.read_cycles(1)), "TDCZ");
        prop_assert!(whole.finish().is_empty());

        let mut pieces = RawConn::open(addr);
        pieces.send_split(&bytes, &sizes);
        let got = pieces.read_cycles(cycles(&frames));
        prop_assert!(
            got == expected,
            "split at {sizes:?}: {} != {}", tags(&got), tags(&expected)
        );
        prop_assert!(pieces.finish().is_empty());
    }
}

#[test]
fn truncation_at_every_byte_offset_leaves_the_server_whole() {
    let frames = vec![
        parse("s1", "SELECT id FROM emp WHERE id = $1"),
        bind("", "s1", &[Some("2")]),
        describe(b'S', "s1"),
        execute(""),
        close(b'S', "s1"),
        sync(),
    ];
    let bytes = wire(&frames);
    let full = {
        let mut c = RawConn::open(server().local_addr());
        c.send(&bytes);
        c.read_cycles(1)
    };
    for cut in 0..bytes.len() {
        // The client dies mid-sequence. Whatever complete frames made it
        // may or may not be answered before the server notices (queued
        // work is dropped at EOF); what is answered is a prefix of the
        // full answer, and the server closes its side.
        let mut c = RawConn::open(server().local_addr());
        c.send(&bytes[..cut]);
        let got = c.finish();
        assert!(
            full.starts_with(&got),
            "cut at {cut}: {} is no prefix of {}",
            tags(&got),
            tags(&full)
        );
    }
    // Every one of those connections was reaped, and both reader
    // threads still serve (connections alternate between them).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server().stats().live_connections > 0 {
        assert!(Instant::now() < deadline, "{:?}", server().stats());
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..2 {
        let mut c = NetClient::connect(server().local_addr(), "after", "").unwrap();
        let r = c.simple_query("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(r.rows, vec![vec![Some("3".into())]]);
        c.terminate().unwrap();
    }
}

#[test]
fn oversized_declared_length_is_refused_before_the_body_arrives() {
    let limits = NetLimits {
        max_frame: 1024,
        ..NetLimits::default()
    };
    let server = NetServer::spawn_with(small_proxy(), "127.0.0.1:0", limits).unwrap();
    let mut c = RawConn::open(server.local_addr());
    // Five bytes promising a megabyte: FATAL now, no waiting for it.
    let mut head = vec![b'Q'];
    head.extend_from_slice(&(1_048_576i32).to_be_bytes());
    c.send(&head);
    let answer = c.read_cycles(1);
    assert_eq!(tags(&answer), "E");
    let (_, body, _) = protocol::try_parse_frame(&answer, protocol::MAX_FRAME)
        .unwrap()
        .unwrap();
    let (severity, code, _) = protocol::parse_error_body(&body);
    assert_eq!((severity.as_str(), code.as_str()), ("FATAL", "08P01"));
    assert!(c.finish().is_empty());
}
