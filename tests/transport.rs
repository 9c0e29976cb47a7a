//! Transport chaos and determinism suite: the daemon's connection mux
//! driven over real backends, under hostile schedules — random chunk
//! sizes, arbitrary connection interleavings, mid-frame disconnects,
//! garbage frames, budget squeezes — must never panic, never
//! half-apply, and must hand every surviving connection response bytes
//! identical to an in-process `run_script` oracle at any worker count.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code: the suite drives a real daemon from client threads"
)]

use nvsim::backends::build_server;
use nvsim::serve::protocol::{write_frame, Command, FrameDecoder};
use nvsim::serve::scripts::{connection_script, encode, open_cmd, smoke_script};
use nvsim::serve::transport::{StreamError, TransportConfig, TransportEngine};
use nvsim::serve::{daemon, ProtocolErrorKind, Server, ServerConfig};
use nvsim::types::{BackendConfig, BackendKind, ConfigError, DetRng, MemoryBackend};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The per-connection oracle: what a fresh single-worker server answers
/// for this exact script.
fn oracle(script: &[u8]) -> Vec<u8> {
    build_server(ServerConfig::with_workers(1))
        .run_script(script)
        .expect("oracle script is valid")
}

/// The commands whose frames fit completely inside `bytes` (a truncated
/// stream executes exactly this prefix).
fn complete_prefix(bytes: &[u8]) -> Vec<Command> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let mut cmds = Vec::new();
    while let Ok(Some((base, payload))) = dec.next_frame() {
        match Command::decode(base, &payload) {
            Ok(c) => cmds.push(c),
            Err(_) => break,
        }
    }
    cmds
}

fn engine(workers: usize, cfg: TransportConfig) -> TransportEngine {
    TransportEngine::new(build_server(ServerConfig::with_workers(workers)), cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The heart of the contract: several connections with different
    /// workloads, bytes arriving in random-sized chunks in random
    /// connection order, cycles running at arbitrary moments — every
    /// connection's response bytes equal its oracle at workers 1, 2, 8.
    #[test]
    fn interleaved_chunked_connections_match_the_oracle(seed in 0u64..10_000) {
        let scripts: Vec<Vec<u8>> = (0..4)
            .map(|i| connection_script(seed.wrapping_mul(31).wrapping_add(i), 3, 8))
            .collect();
        let want: Vec<Vec<u8>> = scripts.iter().map(|s| oracle(s)).collect();

        for workers in [1usize, 2, 8] {
            let mut rng = DetRng::seed_from(0xc4a0 ^ seed);
            let mut eng = engine(workers, TransportConfig::default());
            let ids: Vec<_> = scripts.iter().map(|_| eng.mux().accept()).collect();
            let mut cursors = vec![0usize; scripts.len()];
            let mut got: Vec<Vec<u8>> = vec![Vec::new(); scripts.len()];

            while cursors.iter().zip(&scripts).any(|(&c, s)| c < s.len()) {
                let k = (rng.next_u64() as usize) % scripts.len();
                let (cur, script) = (cursors[k], &scripts[k]);
                if cur < script.len() {
                    let take = 1 + (rng.next_u64() as usize) % 96;
                    let end = (cur + take).min(script.len());
                    eng.mux().ingest(ids[k], &script[cur..end]).expect("valid stream");
                    cursors[k] = end;
                }
                // Execute and tick at arbitrary moments.
                if rng.next_u64().is_multiple_of(3) {
                    eng.step();
                }
                if rng.next_u64().is_multiple_of(5) {
                    eng.mux().tick();
                }
                for (i, &id) in ids.iter().enumerate() {
                    got[i].extend(eng.mux().take_output(id));
                }
            }
            for &id in &ids {
                eng.mux().end_of_stream(id).expect("clean EOF");
            }
            eng.run_until_quiet();
            for (i, &id) in ids.iter().enumerate() {
                got[i].extend(eng.mux().take_output(id));
                prop_assert!(eng.mux_ref().conn_done(id));
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g, w,
                    "workers={} conn={} diverged from its oracle", workers, i
                );
            }
            // Every script closes its session: nothing may linger.
            for &id in &ids {
                prop_assert_eq!(eng.server().registry().sids_in_scope(id), vec![]);
            }
        }
    }

    /// Mid-frame disconnects: a stream cut at an arbitrary byte executes
    /// exactly the commands whose frames arrived completely, answers
    /// exactly those, and the teardown closes whatever they opened.
    #[test]
    fn mid_frame_disconnect_executes_exactly_the_complete_prefix(seed in 0u64..10_000) {
        let script = connection_script(seed, 3, 8);
        let cut = 1 + (seed as usize) % (script.len() - 1);
        let prefix_cmds = complete_prefix(&script[..cut]);
        let want = oracle(&encode(&prefix_cmds));

        let mut eng = engine(2, TransportConfig::default());
        let id = eng.mux().accept();
        eng.mux().ingest(id, &script[..cut]).expect("prefix is well-formed");
        let eof = eng.mux().end_of_stream(id);
        eng.run_until_quiet();
        let got = eng.mux().take_output(id);
        prop_assert_eq!(&got, &want, "cut at {} answered the wrong prefix", cut);

        // A dangling partial frame is a typed truncation; a cut on a
        // frame boundary is a clean EOF.
        let partial = script[..cut].len() > encode(&prefix_cmds).len();
        match (partial, eof) {
            (true, Err(StreamError::Protocol(e))) => {
                prop_assert!(matches!(e.kind, ProtocolErrorKind::Truncated { .. }));
            }
            (false, Ok(())) => {}
            other => prop_assert!(false, "cut at {}: unexpected EOF result {:?}", cut, other),
        }

        // Teardown releases everything the prefix opened.
        eng.mux().disconnect(id);
        eng.run_until_quiet();
        prop_assert_eq!(eng.server().registry().sids_in_scope(id), vec![]);
    }

    /// A connection spraying garbage cannot disturb its neighbors, and
    /// its own pre-garbage commands answer exactly once.
    #[test]
    fn hostile_frames_stay_contained(seed in 0u64..10_000) {
        let good_script = connection_script(seed, 3, 8);
        let want_good = oracle(&good_script);

        // The hostile stream: a valid open, then a garbage blob.
        let evil_prefix = connection_script(seed ^ 0xff, 1, 4);
        let keep = complete_prefix(&evil_prefix[..evil_prefix.len() / 2]);
        let mut evil = encode(&keep);
        let owed = oracle(&evil);
        // A framed payload with an unknown command tag: guaranteed to
        // decode as an error (raw random bytes could masquerade as a
        // huge-but-legal length prefix and just buffer).
        write_frame(&mut evil, &[0x7F, 0xAA, 0xBB]);

        let mut eng = engine(2, TransportConfig::default());
        let good = eng.mux().accept();
        let bad = eng.mux().accept();

        // Interleave the two streams chunk by chunk.
        let mut gc = 0usize;
        let mut bc = 0usize;
        let mut bad_fault = None;
        let mut got_bad = Vec::new();
        while gc < good_script.len() || bc < evil.len() {
            if gc < good_script.len() {
                let end = (gc + 17).min(good_script.len());
                eng.mux().ingest(good, &good_script[gc..end]).expect("good stream");
                gc = end;
            }
            if bc < evil.len() {
                let end = (bc + 13).min(evil.len());
                if let Err(e) = eng.mux().ingest(bad, &evil[bc..end]) {
                    bad_fault.get_or_insert(e);
                }
                bc = end;
            }
            eng.step();
            got_bad.extend(eng.mux().take_output(bad));
        }
        eng.mux().end_of_stream(good).expect("good stream ends cleanly");
        eng.run_until_quiet();

        let got_good = eng.mux().take_output(good);
        prop_assert_eq!(&got_good, &want_good, "the hostile neighbor leaked");

        got_bad.extend(eng.mux().take_output(bad));
        prop_assert_eq!(&got_bad, &owed, "pre-garbage commands answer exactly once");
        let fault = bad_fault.expect("garbage must fault the connection");
        prop_assert!(matches!(fault, StreamError::Protocol(_)), "{:?}", fault);
        prop_assert_eq!(Some(&fault), eng.mux_ref().fault(bad), "fault must be sticky");
        prop_assert!(eng.mux_ref().conn_done(bad));
    }
}

/// Back-pressure: a connection over its command budget stops being
/// readable and becomes readable again once cycles drain it; a
/// response backlog does the same until the daemon takes the bytes.
#[test]
fn budgets_gate_reading_and_recover() {
    let cfg = TransportConfig {
        max_conn_commands: 4,
        max_conn_response_bytes: 64,
        fair_slice: 2,
        ..TransportConfig::default()
    };
    let mut eng = engine(1, cfg);
    let id = eng.mux().accept();
    assert!(eng.mux_ref().wants_read(id));

    let script = connection_script(3, 6, 4);
    eng.mux().ingest(id, &script).expect("valid stream");
    assert!(
        !eng.mux_ref().wants_read(id),
        "9 queued commands exceed the budget of 4"
    );

    // Cycles drain the queue, but now the response backlog (over 64
    // bytes) holds reads off until the daemon takes the output.
    eng.run_until_quiet();
    assert!(
        !eng.mux_ref().wants_read(id),
        "un-taken responses must hold back-pressure"
    );
    let out = eng.mux().take_output(id);
    assert!(!out.is_empty());
    assert!(
        eng.mux_ref().wants_read(id),
        "drained connection reads again"
    );
}

/// The slow-trickle defense: a partial frame that stops making progress
/// faults after the configured number of polls — while complete
/// commands received before it still answer.
#[test]
fn idle_partial_frame_faults_after_the_poll_limit() {
    let cfg = TransportConfig {
        idle_poll_limit: 10,
        ..TransportConfig::default()
    };
    let mut eng = engine(1, cfg);
    let id = eng.mux().accept();

    let script = connection_script(9, 1, 4);
    let cmds = complete_prefix(&script);
    let mut bytes = encode(&cmds[..2]);
    // A dangling fragment: a frame declaring 300 payload bytes, cut
    // after 10 — it can never complete without more input.
    let mut fragment = Vec::new();
    write_frame(&mut fragment, &[0xAA; 300]);
    bytes.extend(&fragment[..10]);
    eng.mux()
        .ingest(id, &bytes)
        .expect("fragment is not an error yet");

    for _ in 0..10 {
        assert!(eng.mux().tick().is_empty(), "under the limit");
    }
    let faulted = eng.mux().tick();
    assert_eq!(faulted.len(), 1);
    assert!(matches!(faulted[0].1, StreamError::IdlePartialFrame { .. }));
    assert_eq!(eng.mux_ref().fault(id), Some(&faulted[0].1));

    // The two complete commands still answer.
    eng.run_until_quiet();
    assert_eq!(eng.mux().take_output(id), oracle(&encode(&cmds[..2])));
    assert!(eng.mux_ref().conn_done(id));
}

/// The global buffer budget: one connection trickling a huge declared
/// frame is cut off as soon as the un-decoded total crosses the cap.
#[test]
fn buffer_budget_cuts_off_the_offender() {
    let cfg = TransportConfig {
        total_buffer_budget: 128,
        ..TransportConfig::default()
    };
    let mut eng = engine(1, cfg);
    let hog = eng.mux().accept();
    let ok = eng.mux().accept();

    // A slowly-trickled frame declaring 300 payload bytes: complete
    // header, payload that never finishes — pure buffered weight.
    let mut trickle = Vec::new();
    write_frame(&mut trickle, &[0xAA; 300]);
    let script = connection_script(5, 2, 4);
    eng.mux()
        .ingest(hog, &trickle[..64])
        .expect("64 buffered bytes are under the 128-byte budget");
    // ...until the total crosses the cap.
    let err = eng
        .mux()
        .ingest(hog, &trickle[64..260])
        .expect_err("over budget");
    assert!(
        matches!(err, StreamError::BufferOverBudget { .. }),
        "{err:?}"
    );
    assert_eq!(eng.mux_ref().fault(hog), Some(&err));

    // The freed buffer no longer counts: the neighbor streams freely.
    eng.mux().ingest(ok, &script).expect("budget was released");
    eng.mux().end_of_stream(ok).expect("clean");
    eng.run_until_quiet();
    assert_eq!(eng.mux().take_output(ok), oracle(&script));
}

/// LRU parking under a warm-capacity squeeze stays invisible through
/// the transport, exactly as it is in-process.
#[test]
fn warm_capacity_squeeze_is_invisible_through_the_transport() {
    let scripts: Vec<Vec<u8>> = (0..4).map(|i| connection_script(i, 3, 8)).collect();
    let want: Vec<Vec<u8>> = scripts.iter().map(|s| oracle(s)).collect();

    let server = nvsim::backends::build_server(ServerConfig {
        workers: 2,
        warm_capacity: 1,
    });
    let mut eng = TransportEngine::new(server, TransportConfig::default());
    let ids: Vec<_> = scripts.iter().map(|_| eng.mux().accept()).collect();

    // Feed one command-sized sliver per connection per round so the
    // registry settles (and parks) many times mid-stream.
    let mut cursors = vec![0usize; scripts.len()];
    while cursors.iter().zip(&scripts).any(|(&c, s)| c < s.len()) {
        for (i, &id) in ids.iter().enumerate() {
            let cur = cursors[i];
            let end = (cur + 40).min(scripts[i].len());
            if cur < end {
                eng.mux().ingest(id, &scripts[i][cur..end]).expect("valid");
                cursors[i] = end;
            }
        }
        eng.step();
        assert!(
            eng.server().registry().warm_count() <= 1,
            "the squeeze must hold mid-stream"
        );
    }
    for &id in &ids {
        eng.mux().end_of_stream(id).expect("clean");
    }
    eng.run_until_quiet();
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            eng.mux().take_output(id),
            want[i],
            "parking changed connection {i}'s bytes"
        );
    }
}

/// End-to-end through real sockets: concurrent clients against a live
/// `serve_listener`, each getting oracle-identical bytes, at worker
/// counts 1 and 2 — then a graceful drain.
#[test]
fn socket_daemon_answers_oracle_bytes_and_drains() {
    for workers in [1usize, 2] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = build_server(ServerConfig::with_workers(workers));
        let daemon_thread = std::thread::spawn(move || {
            daemon::serve_listener(listener, server, TransportConfig::default(), flag)
        });

        let scripts: Vec<Vec<u8>> = (0..3).map(|i| connection_script(i, 2, 8)).collect();
        let clients: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|script| {
                std::thread::spawn(move || {
                    daemon::client_round_trip(addr, &script).expect("round trip")
                })
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            let got = c.join().expect("client thread");
            assert_eq!(
                got,
                oracle(&scripts[i]),
                "workers={workers} conn={i} socket bytes diverged"
            );
        }

        let smoke = daemon::client_round_trip(addr, &smoke_script()).expect("smoke round trip");
        assert_eq!(
            smoke,
            oracle(&smoke_script()),
            "workers={workers} smoke diverged"
        );

        shutdown.store(true, Ordering::SeqCst);
        let report = daemon_thread
            .join()
            .expect("daemon thread")
            .expect("clean drain");
        assert_eq!(report.connections, 4);
        assert!(report.cycles > 0);
    }
}

/// The slow-trickle defense must fire on a busy daemon: the poll clock
/// advances every pass, not only on fully-idle passes, so a stalled
/// partial frame faults and its connection is closed even while other
/// connections keep the loop making progress.
#[test]
fn trickler_is_cut_off_while_the_daemon_is_busy() {
    use std::io::{Read as _, Write as _};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let cfg = TransportConfig {
        idle_poll_limit: 200,
        ..TransportConfig::default()
    };
    let server = build_server(ServerConfig::with_workers(2));
    let daemon_thread =
        std::thread::spawn(move || daemon::serve_listener(listener, server, cfg, flag));

    // Background traffic keeps poll passes progressing.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let busy = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::SeqCst) {
            let script = connection_script(i, 1, 4);
            let _ = daemon::client_round_trip(addr, &script);
            i += 1;
        }
    });

    // The trickler: declare a 300-byte frame, send ten bytes, stall.
    let mut frame = Vec::new();
    write_frame(&mut frame, &[0xAA; 300]);
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.write_all(&frame[..10]).expect("partial frame");
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let mut sink = Vec::new();
    match sock.read_to_end(&mut sink) {
        Ok(n) => assert_eq!(n, 0, "trickler was owed no response bytes"),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("trickler connection was not cut off within the deadline")
        }
        Err(_) => {} // a reset also means the daemon cut it off
    }

    stop.store(true, Ordering::SeqCst);
    busy.join().expect("busy thread");
    shutdown.store(true, Ordering::SeqCst);
    daemon_thread
        .join()
        .expect("daemon thread")
        .expect("clean drain");
}

/// A backend factory that panics, killing the daemon's execution thread
/// on the first `Open`.
fn panicking_factory(
    _: BackendKind,
    _: &BackendConfig,
) -> Result<Box<dyn MemoryBackend>, ConfigError> {
    panic!("backend construction fails")
}

/// The execution thread dying mid-cycle is loop-fatal: `serve_listener`
/// returns `Err` promptly instead of waiting on a completion that never
/// comes, and its connections close.
#[test]
fn exec_thread_death_is_reported_not_hung_on() {
    use std::io::{Read as _, Write as _};
    use std::time::Duration;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Server::new(panicking_factory, ServerConfig::with_workers(1));
    let (result_tx, result_rx) = std::sync::mpsc::channel();
    let daemon_thread = std::thread::spawn(move || {
        let result = daemon::serve_listener(
            listener,
            server,
            TransportConfig::default(),
            daemon::shutdown_flag(),
        );
        result_tx.send(result).expect("test is waiting");
    });

    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.write_all(&encode(&[open_cmd(1)])).expect("send Open");
    let result = result_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the daemon loop hung after its execution thread died");
    let err = result.expect_err("a dead execution thread is loop-fatal");
    assert!(err.to_string().contains("execution thread died"), "{err}");
    daemon_thread.join().expect("daemon thread");

    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut sink = Vec::new();
    match sock.read_to_end(&mut sink) {
        Ok(_) => assert!(sink.is_empty(), "no response was owed"),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("the client's connection was left open")
        }
        Err(_) => {} // a reset also closes it
    }
}

/// The stdio path: `serve_stream` over in-memory pipes answers the same
/// bytes as `run_script`, including for a truncated (mid-frame EOF)
/// stream.
#[test]
fn stdio_stream_matches_the_oracle() {
    let script = smoke_script();
    let mut out = Vec::new();
    let report = daemon::serve_stream(
        script.as_slice(),
        &mut out,
        build_server(ServerConfig::with_workers(2)),
        TransportConfig::default(),
    )
    .expect("stream served");
    assert_eq!(out, oracle(&script));
    assert_eq!(report.connections, 1);

    // Truncated stdin: the complete prefix answers, then EOF.
    let cut = script.len() - 3;
    let mut out = Vec::new();
    daemon::serve_stream(
        &script[..cut],
        &mut out,
        build_server(ServerConfig::with_workers(2)),
        TransportConfig::default(),
    )
    .expect("truncation is not an I/O error");
    assert_eq!(out, oracle(&encode(&complete_prefix(&script[..cut]))));
}

/// A command budget of 0 would stop the socket loop from ever reading a
/// connection, so every client would wait forever: the daemon refuses
/// it at startup and names the flag.
#[test]
fn daemon_rejects_a_zero_command_budget() {
    use std::time::{Duration, Instant};
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvsim-served"))
        .args(["--listen", "127.0.0.1:0", "--max-conn-commands", "0"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn nvsim-served");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll nvsim-served").is_none() {
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("nvsim-served started serving with --max-conn-commands 0");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("read stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("--max-conn-commands"), "stderr:\n{stderr}");
}
