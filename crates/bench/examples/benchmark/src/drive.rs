//! The client side: one thread per connection driving its op stream over
//! real sockets, closed loop or on an open-loop schedule.

use crate::gen::{Call, Class, Op, Workload};
use cryptdb_engine::Value;
use cryptdb_net::{NetClient, WireError, WireQueryResult};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Read workloads keep the answer of every 50th op for the oracle.
pub const SAMPLE_EVERY: usize = 50;

/// One finished (or failed) op. Times are ns since the phase's epoch.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub conn: u8,
    /// Position in the connection's executed sequence.
    pub seq: u32,
    pub class: Class,
    /// When the op was due (open loop) or sent (closed loop): latency is
    /// counted from here.
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// Started inside the warm-up window: executed, not measured.
    pub warm: bool,
}

impl OpRec {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }
}

/// One round trip inside an op (recorded only by a traced phase).
#[derive(Clone, Copy, Debug)]
pub struct CallRec {
    pub conn: u8,
    pub seq: u32,
    pub class: Class,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A kept answer: stream position and the result's canonical text.
pub struct Sample {
    pub conn: usize,
    pub pos: usize,
    pub text: String,
}

/// A connection and how far into its stream it has got; it outlives
/// the phases so a traced phase continues where the timed one stopped.
pub struct Client {
    conn: NetClient,
    /// Ops executed so far on this connection (all phases).
    pub executed: usize,
}

pub fn connect(addr: SocketAddr, wl: &Workload) -> Vec<Client> {
    (0..wl.streams.len())
        .map(|c| {
            let mut conn =
                NetClient::connect(addr, &format!("bench{c}"), "").expect("pgwire handshake");
            for (i, shape) in wl.shapes.iter().enumerate() {
                conn.prepare(&format!("s{i}"), shape)
                    .unwrap_or_else(|e| panic!("prepare shape {i}: {e}"));
            }
            Client { conn, executed: 0 }
        })
        .collect()
}

pub fn disconnect(clients: Vec<Client>) {
    for c in clients {
        let _ = c.conn.terminate();
    }
}

fn wire_param(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(i.to_string()),
        Value::Str(s) => Some(s.clone()),
        Value::Bytes(_) => unreachable!("workloads bind ints and strings only"),
    }
}

fn send(conn: &mut NetClient, call: &Call) -> Result<WireQueryResult, WireError> {
    match &call.prepared {
        Some((shape, params)) => {
            let text: Vec<Option<String>> = params.iter().map(wire_param).collect();
            conn.execute_prepared(&format!("s{shape}"), &text)
        }
        None => conn.simple_query(&call.sql),
    }
}

#[derive(Default)]
pub struct Phase {
    pub ops: Vec<OpRec>,
    pub calls: Vec<CallRec>,
    pub samples: Vec<Sample>,
    /// Length of the measured window in ns: from the end of warm-up to
    /// the last measured op's completion.
    pub measured_ns: u64,
    /// The instant all of the phase's ns offsets count from.
    pub epoch: Option<Instant>,
}

impl Phase {
    pub fn measured(&self) -> impl Iterator<Item = &OpRec> {
        self.ops.iter().filter(|o| !o.warm)
    }
}

/// Runs every connection's stream for `warm_s + seconds`. Ops that
/// start in the first `warm_s` are executed and discarded.
///
/// Closed loop (`wl.due_ns` is `None`): the next op goes out when the
/// previous answer is in, and the stream wraps around when exhausted.
/// Open loop: each op goes out at its due time — or as soon after as the
/// connection is free — and its latency counts from the due time, so a
/// stall is charged to every op that had to wait behind it.
pub fn run_phase(
    clients: &mut [Client],
    wl: &Workload,
    warm_s: f64,
    seconds: f64,
    trace_calls: bool,
) -> Phase {
    let warm_ns = (warm_s * 1e9) as u64;
    let stop_ns = ((warm_s + seconds) * 1e9) as u64;
    let barrier = Barrier::new(clients.len() + 1);
    let mut phase = Phase::default();
    let epoch = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                let stream = &wl.streams[c];
                let due = wl.due_ns.as_ref().map(|d| d[c].as_slice());
                scope.spawn(move || {
                    barrier.wait();
                    let epoch = Instant::now();
                    let mut part = Phase::default();
                    // A phase's schedule starts at its own epoch, so an
                    // open-loop phase indexes due times from 0.
                    let mut i = 0usize;
                    loop {
                        let pos = match due {
                            Some(d) if i >= d.len() => break,
                            Some(_) => client.executed,
                            None => client.executed % stream.len(),
                        };
                        if pos >= stream.len() {
                            break;
                        }
                        let mut now = epoch.elapsed().as_nanos() as u64;
                        let due_ns = match due {
                            Some(d) => {
                                if d[i] >= stop_ns {
                                    break;
                                }
                                if d[i] > now {
                                    std::thread::sleep(Duration::from_nanos(d[i] - now));
                                    now = epoch.elapsed().as_nanos() as u64;
                                }
                                d[i]
                            }
                            None => {
                                if now >= stop_ns {
                                    break;
                                }
                                now
                            }
                        };
                        let (rec, alive) = run_op(
                            client,
                            c,
                            &stream[pos],
                            pos,
                            epoch,
                            (now, due_ns),
                            wl.read_only,
                            trace_calls,
                            &mut part,
                        );
                        part.ops.push(OpRec {
                            warm: rec.due_ns < warm_ns,
                            ..rec
                        });
                        client.executed += 1;
                        i += 1;
                        if !alive {
                            break; // The connection is gone.
                        }
                    }
                    (epoch, part)
                })
            })
            .collect();
        barrier.wait();
        let mut epoch = None;
        for h in handles {
            let (e, part) = h.join().expect("client thread");
            epoch.get_or_insert(e);
            phase.ops.extend(part.ops);
            phase.calls.extend(part.calls);
            phase.samples.extend(part.samples);
        }
        epoch.expect("at least one connection")
    });
    let last_end = phase.measured().map(|o| o.end_ns).max().unwrap_or(warm_ns);
    phase.measured_ns = last_end.saturating_sub(warm_ns).max(1);
    phase.epoch = Some(epoch);
    phase
}

/// Executes one op. The flag is false once the transport has failed.
#[allow(clippy::too_many_arguments)]
fn run_op(
    client: &mut Client,
    c: usize,
    op: &Op,
    pos: usize,
    epoch: Instant,
    (start_ns, due_ns): (u64, u64),
    keep_samples: bool,
    trace_calls: bool,
    part: &mut Phase,
) -> (OpRec, bool) {
    let seq = client.executed as u32;
    let mut rec = OpRec {
        conn: c as u8,
        seq,
        class: op.class(),
        due_ns,
        start_ns,
        end_ns: 0,
        ok: true,
        warm: false,
    };
    for call in &op.calls {
        let t0 = if trace_calls {
            epoch.elapsed().as_nanos() as u64
        } else {
            0
        };
        match send(&mut client.conn, call) {
            Ok(result) => {
                if keep_samples && client.executed.is_multiple_of(SAMPLE_EVERY) {
                    part.samples.push(Sample {
                        conn: c,
                        pos,
                        text: result.canonical_text(),
                    });
                }
            }
            // Refused or errored in protocol: the op failed, the
            // connection lives on.
            Err(WireError::Server { .. }) => rec.ok = false,
            Err(_) => {
                rec.ok = false;
                rec.end_ns = epoch.elapsed().as_nanos() as u64;
                return (rec, false);
            }
        }
        if trace_calls {
            part.calls.push(CallRec {
                conn: c as u8,
                seq,
                class: call.class,
                start_ns: t0,
                end_ns: epoch.elapsed().as_nanos() as u64,
            });
        }
    }
    rec.end_ns = epoch.elapsed().as_nanos() as u64;
    (rec, true)
}
