//! `serve-socket`: a closed loop through `daemon::serve_listener` on
//! loopback TCP. One client thread drives 2 connections with 8 VANS
//! sessions each; a round sends one 16-request `Batch` per session on
//! both connections and then waits for each connection's 8 replies. The
//! daemon runs one worker. Each connection's round trip (its write to
//! its last reply) is one `batch_us` sample. After timing, every
//! connection's reply bytes are compared with a fresh in-process
//! `Server::run_script` of exactly what it sent.
//!
//! The traced run replays the same per-connection scripts through an
//! in-process `TransportMux` and a `Server` whose backends are timed, and
//! attributes the socket round trip to the client, the transport, the
//! server, the backends, and what is left: the daemon's I/O loop.

use crate::report::{
    peak_rss_mb, percentile, quartiles, setup_count, Digest, Outcome, RepPlan, Value,
};
use crate::timed::{
    timing_factory, BACKEND_OTHER, BACKEND_RESTORE, BACKEND_SAVE, BACKEND_TIMED, BACKEND_WARM,
};
use crate::trace::{self, enter};
use nvsim::backends::{build_backend, build_server};
use nvsim::serve::daemon::{serve_listener, DaemonReport};
use nvsim::serve::protocol::{Command, FrameDecoder, OpenOptions, Response};
use nvsim::serve::scripts::{batch_for, encode};
use nvsim::serve::session::BackendFactory;
use nvsim::serve::{Server, ServerConfig, TransportConfig, TransportMux};
use nvsim::types::BackendKind;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

const CONNS: usize = 2;
const SESSIONS: u64 = 8;
const BATCH: u64 = 16;
/// Host seconds of one full-size rep on the machine the benchmark was
/// tuned on; it fixes how many reps a run of `--seconds` makes.
const NOMINAL_REP_S: f64 = 1.1;

/// The per-layer metrics a traced serve run sets.
const LAYER_METRICS: [&str; 13] = [
    "serve.protocol.bytes_in_per_round",
    "serve.protocol.bytes_out_per_round",
    "serve.transport.cycles_per_round",
    "serve.transport.commands_per_cycle",
    "trace.overhead_pct",
    "bench.client.encode_us",
    "bench.client.decode_us",
    "serve.transport.ingest_us",
    "serve.transport.cycle_us",
    "serve.server.execute_self_us",
    "serve.backend_us",
    "serve.daemon.unattributed_us",
    "ledger.unattributed_pct",
];

/// Work sizes, in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub warm_rounds: u64,
    pub rep_rounds: u64,
}

impl Shape {
    pub fn full() -> Shape {
        Shape {
            warm_rounds: 200,
            rep_rounds: 500,
        }
    }

    pub fn smoke() -> Shape {
        Shape {
            warm_rounds: 10,
            rep_rounds: 20,
        }
    }
}

fn opens() -> Vec<Command> {
    (0..SESSIONS)
        .map(|sid| Command::Open {
            sid,
            kind: BackendKind::Vans,
            dimms: 1,
            opts: OpenOptions::default(),
        })
        .collect()
}

fn closes() -> Vec<Command> {
    (0..SESSIONS).map(|sid| Command::Close { sid }).collect()
}

/// Connection `conn`'s commands in round `round`: one batch per session,
/// a pure function of the seed.
fn round_cmds(seed: u64, conn: usize, round: u64) -> Vec<Command> {
    (0..SESSIONS)
        .map(|sid| {
            let stream = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((conn as u64) << 8) ^ sid;
            Command::Batch {
                sid,
                reqs: batch_for(stream, round, BATCH),
            }
        })
        .collect()
}

/// A daemon on an ephemeral loopback port, driven on its own thread.
struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<DaemonReport>>,
}

impl Daemon {
    fn start() -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = build_server(ServerConfig::with_workers(1));
        let handle = thread::spawn(move || {
            serve_listener(listener, server, TransportConfig::default(), flag)
        });
        Ok(Daemon {
            addr,
            shutdown,
            handle,
        })
    }

    /// Asks the loop to drain and waits for it to return.
    fn stop(self) -> io::Result<DaemonReport> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// One client connection: everything it sent and received.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    script: Vec<u8>,
    replies: Vec<u8>,
}

impl Conn {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.script.extend_from_slice(bytes);
        self.stream.write_all(bytes)
    }

    /// Reads until `want` more reply frames have arrived.
    fn await_frames(&mut self, want: usize, buf: &mut [u8]) -> io::Result<()> {
        let mut got = 0;
        while got < want {
            let n = self.stream.read(buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("daemon closed the connection {got}/{want} replies in"),
                ));
            }
            self.replies.extend_from_slice(&buf[..n]);
            self.decoder.push(&buf[..n]);
            while self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                .is_some()
            {
                got += 1;
            }
        }
        Ok(())
    }
}

/// What one connection sent and what it received.
type Transcript = (Vec<u8>, Vec<u8>);

/// A daemon with two connected clients whose sessions are open.
struct Fleet {
    daemon: Daemon,
    conns: Vec<Conn>,
    buf: Vec<u8>,
    next_round: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Fleet {
    fn start(seed: u64, warm_rounds: u64) -> io::Result<Fleet> {
        let daemon = Daemon::start()?;
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let stream = TcpStream::connect(daemon.addr)?;
            stream.set_nodelay(true)?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                script: Vec::new(),
                replies: Vec::new(),
            });
        }
        let mut fleet = Fleet {
            daemon,
            conns,
            buf: vec![0; 64 * 1024],
            next_round: 0,
            bytes_in: 0,
            bytes_out: 0,
        };
        fleet.exchange(|_| opens())?;
        for _ in 0..warm_rounds {
            fleet.round(seed, &mut Vec::new())?;
        }
        Ok(fleet)
    }

    fn exchange(&mut self, cmds: impl Fn(usize) -> Vec<Command>) -> io::Result<()> {
        for (c, conn) in self.conns.iter_mut().enumerate() {
            conn.send(&encode(&cmds(c)))?;
        }
        for conn in &mut self.conns {
            conn.await_frames(SESSIONS as usize, &mut self.buf)?;
        }
        Ok(())
    }

    /// One closed-loop round; pushes each connection's round trip.
    fn round(&mut self, seed: u64, trips_us: &mut Vec<f64>) -> io::Result<()> {
        let round = self.next_round;
        self.next_round += 1;
        let mut sent = [Instant::now(); CONNS];
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let bytes = encode(&round_cmds(seed, c, round));
            self.bytes_in += bytes.len() as u64;
            sent[c] = Instant::now();
            conn.send(&bytes)?;
        }
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let before = conn.replies.len();
            conn.await_frames(SESSIONS as usize, &mut self.buf)?;
            trips_us.push(sent[c].elapsed().as_secs_f64() * 1e6);
            self.bytes_out += (conn.replies.len() - before) as u64;
        }
        Ok(())
    }

    /// Closes the sessions and the connections, stops the daemon, and
    /// returns each connection's transcript.
    fn finish(mut self) -> io::Result<(Vec<Transcript>, DaemonReport)> {
        self.exchange(|_| closes())?;
        let mut streams = Vec::new();
        for mut conn in self.conns {
            conn.stream.shutdown(Shutdown::Write)?;
            let mut rest = Vec::new();
            conn.stream.read_to_end(&mut rest)?;
            conn.replies.extend(rest);
            streams.push((conn.script, conn.replies));
        }
        let report = self.daemon.stop()?;
        Ok((streams, report))
    }
}

fn frames(bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut d = FrameDecoder::new();
    d.push(bytes);
    let mut out = Vec::new();
    loop {
        match d.next_frame() {
            Ok(Some((_, payload))) => out.push(payload),
            Ok(None) => return (out, d.finish().is_ok()),
            Err(_) => return (out, false),
        }
    }
}

/// Compares a connection's received bytes with the oracle's. Returns the
/// requests lost to wrong, missing or error replies (a reply stands for
/// one session's batch of requests) and a description of the first.
pub fn compare_replies(got: &[u8], want: &[u8]) -> (u64, Option<String>) {
    let (g, g_clean) = frames(got);
    let (w, _) = frames(want);
    let mut bad = 0u64;
    let mut first = None;
    for i in 0..g.len().max(w.len()) {
        let ok = match (g.get(i), w.get(i)) {
            (Some(a), Some(b)) => {
                a == b && !matches!(Response::decode(0, a), Ok(Response::Error { .. }) | Err(_))
            }
            _ => false,
        };
        if !ok {
            bad += 1;
            first.get_or_insert_with(|| format!("reply frame {i} differs from the oracle's"));
        }
    }
    if !g_clean {
        bad += 1;
        first.get_or_insert_with(|| "the reply stream ends mid-frame or is malformed".to_owned());
    }
    (bad * BATCH, first)
}

/// Replays the per-connection scripts of `rounds` rounds through an
/// in-process mux and server built with `factory`; returns the time the
/// rounds took and each connection's reply bytes.
fn replay_inprocess(seed: u64, rounds: u64, factory: BackendFactory) -> (f64, Vec<Vec<u8>>) {
    let mut mux = TransportMux::new(TransportConfig::default());
    let mut server = Server::new(factory, ServerConfig::with_workers(1));
    let ids: Vec<u64> = (0..CONNS).map(|_| mux.accept()).collect();
    let mut replies = vec![Vec::new(); CONNS];
    let mut exchange = |cmds: &dyn Fn(usize) -> Vec<Command>| {
        for (c, &id) in ids.iter().enumerate() {
            let bytes = {
                let _s = enter("bench.client.encode");
                encode(&cmds(c))
            };
            let _s = enter("serve.transport.ingest");
            mux.ingest(id, &bytes)
                .expect("the benchmark's own scripts are well-formed");
        }
        loop {
            let cycle = {
                let _s = enter("serve.transport.begin_cycle");
                mux.begin_cycle()
            };
            let Some(cycle) = cycle else { break };
            let done = {
                let _s = enter("serve.server.execute");
                cycle.execute(&mut server)
            };
            let _s = enter("serve.transport.absorb");
            mux.absorb(done);
        }
        for (c, &id) in ids.iter().enumerate() {
            let out = {
                let _s = enter("serve.transport.take_output");
                mux.take_output(id)
            };
            {
                let _s = enter("bench.client.decode");
                std::hint::black_box(frames(&out));
            }
            replies[c].extend(out);
        }
    };
    exchange(&|_| opens());
    let began = Instant::now();
    for round in 0..rounds {
        let _r = enter("serve.round");
        exchange(&|c| round_cmds(seed, c, round));
    }
    let secs = began.elapsed().as_secs_f64();
    exchange(&|_| closes());
    (secs, replies)
}

fn digest(replies: &[Vec<u8>]) -> u64 {
    let mut d = Digest::default();
    for r in replies {
        d.bytes(r);
    }
    d.0
}

pub fn run(seed: u64, seconds: f64, shape: Shape, traced: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut fleet = None;
    let mut earlier = Vec::new();
    for _ in 0..setup_count(traced) {
        let t = Instant::now();
        let started = Fleet::start(seed, shape.warm_rounds)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(previous) = fleet.replace(started) {
            earlier.push(previous.finish()?);
        }
    }
    let mut fleet = fleet.expect("set up at least once");

    // A traced run leaves half its time to the in-process replays.
    let plan = RepPlan::new(if traced { seconds / 2.0 } else { seconds }, NOMINAL_REP_S);
    let mut rep_trips_us = Vec::new();
    let mut rates = Vec::new();
    let mut round_secs = 0.0;
    let mut measured = 0u64;
    let per_round = CONNS as u64 * SESSIONS * BATCH;
    let requests = shape.rep_rounds * per_round;
    while plan.more(rates.len()) {
        let mut trips_us = Vec::new();
        let began = Instant::now();
        for _ in 0..shape.rep_rounds {
            fleet.round(seed, &mut trips_us)?;
        }
        let secs = began.elapsed().as_secs_f64();
        round_secs += secs;
        measured += shape.rep_rounds;
        rates.push(requests as f64 / secs);
        rep_trips_us.push(trips_us);
    }
    let mut trips_us: Vec<f64> = rep_trips_us.iter().flatten().copied().collect();
    if let Some(n) = plan.shortfall(rates.len()) {
        out.note(n);
    }
    let (bytes_in, bytes_out) = (fleet.bytes_in, fleet.bytes_out);
    let rounds = fleet.next_round;
    let (streams, report) = fleet.finish()?;

    // Correctness, after timing: every connection's replies against a
    // fresh in-process oracle of exactly what it sent, set-ups included.
    out.attempted = (rounds + earlier.len() as u64 * shape.warm_rounds) * per_round;
    let mut problems = Vec::new();
    for (script, replies) in streams
        .iter()
        .chain(earlier.iter().flat_map(|e| e.0.iter()))
    {
        let oracle = Server::new(build_backend, ServerConfig::with_workers(1))
            .run_script(script)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (lost, first) = compare_replies(replies, &oracle);
        out.failed += lost;
        problems.extend(first);
    }
    out.check(
        "replies-match-oracle",
        problems.is_empty(),
        problems.join("; "),
    );
    let replies: Vec<Vec<u8>> = streams.iter().map(|s| s.1.clone()).collect();
    out.digest = digest(&replies);
    out.note(format!(
        "{} rounds measured ({} warm-up) over {CONNS} connections x {SESSIONS} sessions x {BATCH} requests; {} round trips timed; daemon ran {} cycles",
        measured, shape.warm_rounds, trips_us.len(), report.cycles
    ));

    if !traced {
        // Each rep's percentiles, then their median over reps: a burst of
        // host interference inflates the tail of the reps it falls in, not
        // the reported value. A rep's p99 has ten round trips beyond it.
        let per_rep = |p: f64| -> Vec<f64> {
            rep_trips_us
                .iter()
                .map(|t| percentile(&mut t.clone(), p))
                .collect()
        };
        out.set("setup_s", Value::median_of(&setups));
        out.set("ops_per_s", Value::median_of(&rates));
        out.set("batch_us_p50", Value::median_of(&per_rep(50.0)));
        out.set("batch_us_p99", Value::median_of(&per_rep(99.0)));
        out.set("peak_rss_mb", Value::of(peak_rss_mb()));
        out.note(format!(
            "round-trip percentiles per rep of {} trips, median over {} reps; pooled over all trips: p50 {:.1} us, p99 {:.1} us",
            shape.rep_rounds * CONNS as u64,
            rep_trips_us.len(),
            percentile(&mut trips_us, 50.0),
            percentile(&mut trips_us, 99.0)
        ));
        return Ok(out);
    }

    out.exercise(&LAYER_METRICS);
    let exchanges = rounds + 2;
    out.set(
        "serve.protocol.bytes_in_per_round",
        Value::of(bytes_in as f64 / rounds as f64),
    );
    out.set(
        "serve.protocol.bytes_out_per_round",
        Value::of(bytes_out as f64 / rounds as f64),
    );
    out.set(
        "serve.transport.cycles_per_round",
        Value::of(report.cycles as f64 / exchanges as f64),
    );
    out.set(
        "serve.transport.commands_per_cycle",
        Value::of((exchanges * CONNS as u64 * SESSIONS) as f64 / report.cycles.max(1) as f64),
    );
    let socket_round_us = round_secs / measured as f64 * 1e6;

    // The same scripts in process: untimed backends, then timed ones.
    let (plain, plain_replies) = replay_inprocess(seed, rounds, build_backend);
    trace::install();
    let (timed, timed_replies) = replay_inprocess(seed, rounds, timing_factory);
    let tracer = trace::finish().expect("installed above");
    let same = plain_replies == replies && timed_replies == replies;
    out.check(
        "inprocess-replay-identical",
        same,
        "the in-process replay answered other bytes than the daemon",
    );
    out.attempted += 2 * rounds * per_round;
    if !same {
        out.failed += rounds * per_round;
    }
    out.set(
        "trace.overhead_pct",
        Value::of((timed - plain) / plain * 100.0),
    );
    let us = |ns: f64| ns / 1e3 / rounds as f64;
    let total = |name: &str| us(tracer.agg(name).total_ns);
    let backend: f64 = [
        BACKEND_TIMED,
        BACKEND_WARM,
        BACKEND_SAVE,
        BACKEND_RESTORE,
        BACKEND_OTHER,
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    let parts = [
        ("bench.client.encode_us", total("bench.client.encode")),
        ("bench.client.decode_us", total("bench.client.decode")),
        ("serve.transport.ingest_us", total("serve.transport.ingest")),
        (
            "serve.transport.cycle_us",
            total("serve.transport.begin_cycle")
                + total("serve.transport.absorb")
                + total("serve.transport.take_output"),
        ),
        (
            "serve.server.execute_self_us",
            us(tracer.agg("serve.server.execute").self_ns),
        ),
        ("serve.backend_us", backend),
    ];
    for (name, v) in parts {
        out.set(name, Value::of(v));
    }
    let rest = socket_round_us - parts.iter().map(|p| p.1).sum::<f64>();
    out.set("serve.daemon.unattributed_us", Value::of(rest));
    out.set(
        "ledger.unattributed_pct",
        Value::of(rest / socket_round_us * 100.0),
    );
    out.note(format!(
        "socket round {socket_round_us:.1} us (median of per-connection trips {:.1} us); in-process round {:.1} us untraced, {:.1} us traced",
        quartiles(&trips_us).1,
        plain / rounds as f64 * 1e6,
        timed / rounds as f64 * 1e6
    ));
    out.tracer = Some(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_pair() -> (Vec<u8>, Vec<u8>) {
        let mut script = encode(&opens());
        for round in 0..3 {
            script.extend(encode(&round_cmds(5, 0, round)));
        }
        script.extend(encode(&closes()));
        let reply = build_server(ServerConfig::with_workers(1))
            .run_script(&script)
            .expect("well-formed script");
        (script, reply)
    }

    #[test]
    fn a_corrupted_reply_byte_counts_as_failed_requests() {
        let (_, reply) = oracle_pair();
        assert_eq!(compare_replies(&reply, &reply), (0, None));
        // Flip one byte inside the last batch reply's payload.
        let mut corrupt = reply.clone();
        let at = corrupt.len() - 200;
        corrupt[at] ^= 0x40;
        let (lost, first) = compare_replies(&corrupt, &reply);
        assert!(lost >= BATCH, "lost {lost}");
        assert!(first.is_some());
        // A truncated stream loses the missing replies too.
        let (lost, _) = compare_replies(&reply[..reply.len() - 3], &reply);
        assert!(lost >= BATCH);
    }

    #[test]
    fn the_socket_loop_matches_its_oracle_and_the_inprocess_replay() {
        let out = run(3, 0.0, Shape::smoke(), true).expect("loopback works");
        assert!(out.correct(), "{:?}", out.checks);
        assert!(out.failed == 0 && out.attempted > 0);
        assert!(out.values["serve.backend_us"].v > 0.0);
    }
}
