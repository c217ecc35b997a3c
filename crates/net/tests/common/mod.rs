//! Raw-socket scripting shared by the wire fuzz and transcript tests:
//! client frames built by hand, sent in whatever pieces a test chooses,
//! and the server's answer captured byte for byte.
#![allow(dead_code)]

use cryptdb_core::proxy::{Proxy, ProxyConfig};
use cryptdb_engine::Engine;
use cryptdb_net::protocol;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

pub type Frame = (u8, Vec<u8>);

pub fn small_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

/// [`small_proxy`] with a single runtime worker, which [`hold_worker`]
/// can take away from every session chain.
pub fn one_worker_proxy() -> Arc<Proxy> {
    let cfg = ProxyConfig {
        paillier_bits: 256,
        runtime_threads: 1,
        ..Default::default()
    };
    Arc::new(Proxy::new(Arc::new(Engine::new()), [7u8; 32], cfg))
}

/// Occupies one of the proxy's runtime workers until the returned
/// gate is sent to or dropped; returns once the worker is held.
pub fn hold_worker(proxy: &Proxy) -> Sender<()> {
    let (gate_tx, gate_rx) = channel::<()>();
    let (held_tx, held_rx) = channel::<()>();
    proxy.runtime().execute(move || {
        let _ = held_tx.send(());
        let _ = gate_rx.recv();
    });
    held_rx.recv().unwrap();
    gate_tx
}

fn cstr(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

pub fn query(sql: &str) -> Frame {
    let mut body = Vec::new();
    cstr(&mut body, sql);
    (b'Q', body)
}

/// `Parse` with no parameter-type hints.
pub fn parse(name: &str, sql: &str) -> Frame {
    let mut body = Vec::new();
    cstr(&mut body, name);
    cstr(&mut body, sql);
    body.extend_from_slice(&0i16.to_be_bytes());
    (b'P', body)
}

/// `Bind` with text-format parameters (`None` = NULL) and results.
pub fn bind(portal: &str, stmt: &str, params: &[Option<&str>]) -> Frame {
    let mut body = Vec::new();
    cstr(&mut body, portal);
    cstr(&mut body, stmt);
    body.extend_from_slice(&0i16.to_be_bytes());
    body.extend_from_slice(&(params.len() as i16).to_be_bytes());
    for p in params {
        match p {
            None => body.extend_from_slice(&(-1i32).to_be_bytes()),
            Some(text) => {
                body.extend_from_slice(&(text.len() as i32).to_be_bytes());
                body.extend_from_slice(text.as_bytes());
            }
        }
    }
    body.extend_from_slice(&0i16.to_be_bytes());
    (b'B', body)
}

fn target(tag: u8, kind: u8, name: &str) -> Frame {
    let mut body = vec![kind];
    cstr(&mut body, name);
    (tag, body)
}

/// `Describe` of a statement (`b'S'`) or portal (`b'P'`).
pub fn describe(kind: u8, name: &str) -> Frame {
    target(b'D', kind, name)
}

/// `Close` of a statement (`b'S'`) or portal (`b'P'`).
pub fn close(kind: u8, name: &str) -> Frame {
    target(b'C', kind, name)
}

/// `Execute` with no row limit.
pub fn execute(portal: &str) -> Frame {
    let mut body = Vec::new();
    cstr(&mut body, portal);
    body.extend_from_slice(&0i32.to_be_bytes());
    (b'E', body)
}

pub fn sync() -> Frame {
    (b'S', Vec::new())
}

pub fn wire(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for (tag, body) in frames {
        protocol::push_frame(&mut out, *tag, body);
    }
    out
}

/// How many `ReadyForQuery` the frames must draw: one per `Sync`, one
/// per simple `Query`.
pub fn cycles(frames: &[Frame]) -> usize {
    frames
        .iter()
        .filter(|(tag, _)| matches!(tag, b'S' | b'Q'))
        .count()
}

/// The frame tags of a captured server stream, for failure messages.
pub fn tags(stream: &[u8]) -> String {
    let mut out = String::new();
    let mut rest = stream;
    while let Ok(Some((tag, _, used))) = protocol::try_parse_frame(rest, protocol::MAX_FRAME) {
        out.push(tag as char);
        rest = &rest[used..];
    }
    out
}

/// An authenticated connection driven frame by frame.
pub struct RawConn {
    stream: TcpStream,
}

impl RawConn {
    /// Connects and completes the startup + empty-password handshake.
    pub fn open(addr: SocketAddr) -> RawConn {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut startup = Vec::new();
        protocol::write_startup(&mut startup, &[("user", "raw")]).unwrap();
        stream.write_all(&startup).unwrap();
        let (tag, _) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(tag, b'R');
        stream.write_all(&wire(&[(b'p', vec![0])])).unwrap();
        let mut conn = RawConn { stream };
        conn.read_cycles(1);
        conn
    }

    /// One `write` of exactly these bytes.
    pub fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// True if the server sends nothing for `d`.
    pub fn silent_for(&mut self, d: Duration) -> bool {
        self.stream.set_read_timeout(Some(d)).unwrap();
        let silent = match self.stream.peek(&mut [0u8; 1]) {
            Ok(_) => false,
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        self.stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        silent
    }

    /// Prepares a named statement (`Parse`+`Describe`+`Sync`) and
    /// checks the server accepted it.
    pub fn prepare(&mut self, name: &str, sql: &str) {
        self.send(&wire(&[parse(name, sql), describe(b'S', name), sync()]));
        let answer = self.read_cycles(1);
        assert!(
            tags(&answer).starts_with('1'),
            "prepare {sql}: {}",
            tags(&answer)
        );
    }

    /// Sends `bytes` in pieces of the given sizes (cycled), pausing
    /// between writes so each piece is a read of its own at the server.
    pub fn send_split(&mut self, bytes: &[u8], sizes: &[usize]) {
        let mut rest = bytes;
        for size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at((*size).clamp(1, rest.len()));
            self.send(piece);
            rest = tail;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's bytes up to and including the `n`-th
    /// `ReadyForQuery` (or a `FATAL`, after which nothing follows).
    pub fn read_cycles(&mut self, mut n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while n > 0 {
            let (tag, body) = protocol::read_frame(&mut self.stream)
                .unwrap_or_else(|e| panic!("server stream ended after {:?}: {e}", tags(&out)));
            protocol::push_frame(&mut out, tag, &body);
            match tag {
                b'Z' => n -= 1,
                b'E' if protocol::parse_error_body(&body).0 == "FATAL" => break,
                _ => {}
            }
        }
        out
    }

    /// Half-closes (the server sees EOF) and returns what the server
    /// still sends before it closes its side.
    pub fn finish(mut self) -> Vec<u8> {
        self.stream.shutdown(Shutdown::Write).unwrap();
        let mut out = Vec::new();
        while let Ok((tag, body)) = protocol::read_frame(&mut self.stream) {
            protocol::push_frame(&mut out, tag, &body);
        }
        out
    }
}
