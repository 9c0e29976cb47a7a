//! The daemon event loops: real sockets and stdio around the
//! [`TransportMux`].
//!
//! Two drivers share the transport layer:
//!
//! * [`serve_listener`] — the socket daemon. A non-blocking
//!   `TcpListener` poll loop owns every connection; the [`Server`] lives
//!   on a dedicated execution thread fed over channels, so frame decode
//!   of one connection overlaps command execution of another (one
//!   [`FlushCycle`] in flight at a time —
//!   the pipelining never reorders anything, because the mux assembles
//!   cycles deterministically and responses are demultiplexed by
//!   command assignment, not completion time).
//! * [`serve_stream`] — the stdio/pipe path: one blocking connection
//!   stepped synchronously through a [`TransportEngine`].
//!
//! Graceful drain: when the shutdown flag flips (the binary's SIGTERM
//! handler sets it), the listener stops accepting and reading, every
//! queued command finishes, owed response bytes are flushed best-effort,
//! open sessions are released, warm sessions are parked to snapshot
//! blobs, and the loop returns a [`DaemonReport`] — the binary then
//! exits 0.
//!
//! Idle waiting: a socket-loop pass that made no progress waits before
//! the next one. With a cycle in flight it blocks on the execution
//! thread's completion channel, so the loop wakes the moment the cycle
//! is done; otherwise it sleeps. Either wait backs off exponentially
//! from a 20 µs floor to 1 ms and resets on any pass that makes
//! progress, so a closed-loop client's next request is picked up at once
//! while an idle daemon settles at one wake-up per millisecond. The
//! poll clock ([`TransportMux::tick`]) ticks on every pass that makes
//! progress and once per millisecond of accumulated idle wait, so on
//! an idle daemon a partial frame ages one poll per millisecond,
//! however short the individual waits.
//!
//! This module is Driver-class code: it does real I/O, spawns the
//! execution thread, and waits between idle polls. Everything
//! byte-relevant stays inside the deterministic
//! [`transport`](crate::transport) and [`server`](crate::server)
//! layers.

use crate::server::Server;
use crate::transport::{
    CompletedCycle, ConnId, FlushCycle, TransportConfig, TransportEngine, TransportMux,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
#[expect(
    clippy::disallowed_types,
    reason = "Driver-class: the shutdown flag is set from a signal handler"
)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Socket read size per syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Longest idle wait between poll passes, and the idle time per poll
/// clock tick.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// First idle wait after a pass that made progress: short enough that a
/// closed-loop client's next request, arriving tens of µs after its
/// replies go out, is picked up without a millisecond's delay.
const IDLE_WAIT_FLOOR: Duration = Duration::from_micros(20);

/// Poll passes the drain phase spends flushing owed bytes to slow
/// readers before force-closing them.
const DRAIN_PASSES: usize = 2_000;

/// Poll passes a faulted connection stays half-closed (write side shut,
/// read side drained and discarded) after its owed bytes are flushed,
/// before the socket is dropped. Closing immediately would reset the
/// connection while the client is still mid-send — on Linux, unread
/// bytes in the receive buffer turn the close into an RST, which can
/// discard the final response bytes still in the client's receive path.
const LINGER_PASSES: usize = 200;

/// What a daemon loop did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonReport {
    /// Connections accepted over the loop's lifetime.
    pub connections: u64,
    /// Flush cycles executed.
    pub cycles: u64,
    /// Sessions parked as snapshot blobs by the graceful drain.
    pub parked_sessions: usize,
}

/// The socket loop's idle-wait policy, kept free of clocks so it can be
/// tested: after each pass it says whether the pass ticks the poll
/// clock and how long to wait before the next pass.
struct IdleWait {
    /// The wait the next idle pass takes.
    next: Duration,
    /// Idle wait accumulated since the last idle tick (below
    /// `IDLE_SLEEP` between passes).
    untick: Duration,
}

impl IdleWait {
    fn new() -> Self {
        IdleWait {
            next: IDLE_WAIT_FLOOR,
            untick: Duration::ZERO,
        }
    }

    /// Records one pass. A pass that made progress always ticks and
    /// takes no wait (gating its tick would let a busy connection — the
    /// slow-trickle attacker included — freeze the clock), and resets
    /// the backoff. An idle pass takes the current wait, doubles the
    /// next one up to `IDLE_SLEEP`, and ticks once per `IDLE_SLEEP` of
    /// accumulated waiting, however short the individual waits.
    fn after_pass(&mut self, progress: bool) -> (bool, Option<Duration>) {
        if progress {
            self.next = IDLE_WAIT_FLOOR;
            return (true, None);
        }
        let wait = self.next;
        self.next = wait.saturating_mul(2).min(IDLE_SLEEP);
        self.untick = self.untick.saturating_add(wait);
        let tick = self.untick >= IDLE_SLEEP;
        if tick {
            self.untick -= IDLE_SLEEP;
        }
        (tick, Some(wait))
    }
}

/// The execution side of the pipeline: a thread that owns the server,
/// executes cycles sent to it, and parks every session when the channel
/// closes.
#[expect(
    clippy::disallowed_types,
    reason = "Driver-class: channels to and from the execution thread"
)]
struct ExecThread {
    cycle_tx: mpsc::Sender<FlushCycle>,
    done_rx: mpsc::Receiver<CompletedCycle>,
    handle: thread::JoinHandle<usize>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "Driver-class: the execution thread and its channels"
)]
fn spawn_exec(mut server: Server) -> ExecThread {
    let (cycle_tx, cycle_rx) = mpsc::channel::<FlushCycle>();
    let (done_tx, done_rx) = mpsc::channel::<CompletedCycle>();
    let handle = thread::spawn(move || {
        while let Ok(cycle) = cycle_rx.recv() {
            let done = cycle.execute(&mut server);
            if done_tx.send(done).is_err() {
                break;
            }
        }
        server.park_all()
    });
    ExecThread {
        cycle_tx,
        done_rx,
        handle,
    }
}

/// Writes as much pending output as the socket will take right now.
/// Returns whether any bytes moved; `Err` means the connection is dead.
fn pump_output(mux: &mut TransportMux, id: ConnId, stream: &mut TcpStream) -> io::Result<bool> {
    let mut moved = false;
    loop {
        let out = mux.output(id);
        if out.is_empty() {
            return Ok(moved);
        }
        match stream.write(out) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                mux.consume_output(id, n);
                moved = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(moved),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Runs the socket daemon until `shutdown` flips true, then drains
/// gracefully (see module docs). The listener is put into non-blocking
/// mode; connections are polled round-robin with back-pressure and
/// fairness from the [`TransportMux`].
///
/// # Errors
///
/// Only loop-fatal I/O errors (the listener breaking, the execution
/// thread dying); per-connection errors tear down that connection only.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "Driver-class: the loop polls the shutdown flag and sleeps between idle passes"
)]
pub fn serve_listener(
    listener: TcpListener,
    server: Server,
    cfg: TransportConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<DaemonReport> {
    listener.set_nonblocking(true)?;
    let exec = spawn_exec(server);
    let mut mux = TransportMux::new(cfg);
    let mut socks: BTreeMap<ConnId, TcpStream> = BTreeMap::new();
    let mut report = DaemonReport::default();
    let mut cycle_in_flight = false;
    // A completion received while waiting, absorbed by the next pass.
    let mut completed: Option<CompletedCycle> = None;
    let mut idle = IdleWait::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut draining = false;
    let mut lingering: Vec<(TcpStream, usize)> = Vec::new();

    loop {
        let mut progress = false;
        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
        }

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        let _ = stream.set_nodelay(true);
                        let id = mux.accept();
                        socks.insert(id, stream);
                        report.connections += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }

        let mut dead: Vec<ConnId> = Vec::new();
        if !draining {
            for (&id, stream) in &mut socks {
                while mux.wants_read(id) {
                    match stream.read(&mut buf) {
                        Ok(0) => {
                            // Clean EOF (or mid-frame truncation — the mux
                            // poisons the connection for us either way).
                            let _ = mux.end_of_stream(id);
                            progress = true;
                            break;
                        }
                        Ok(n) => {
                            // A stream error is sticky in the mux; owed
                            // responses still drain before close.
                            let _ = mux.ingest(id, &buf[..n]);
                            progress = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
            }
        }

        if cycle_in_flight {
            match completed.take().map_or_else(|| exec.done_rx.try_recv(), Ok) {
                Ok(done) => {
                    mux.absorb(done);
                    cycle_in_flight = false;
                    report.cycles += 1;
                    progress = true;
                }
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    return Err(io::Error::other("execution thread died"));
                }
            }
        }
        if !cycle_in_flight {
            if let Some(cycle) = mux.begin_cycle() {
                if exec.cycle_tx.send(cycle).is_err() {
                    return Err(io::Error::other("execution thread died"));
                }
                cycle_in_flight = true;
                progress = true;
            }
        }

        for (&id, stream) in &mut socks {
            if dead.contains(&id) {
                continue;
            }
            match pump_output(&mut mux, id, stream) {
                Ok(moved) => progress |= moved,
                Err(_) => dead.push(id),
            }
        }

        let mut done_faulted: Vec<ConnId> = Vec::new();
        for (&id, stream) in &socks {
            if !dead.contains(&id) && mux.conn_done(id) {
                if mux.fault(id).is_some() {
                    // We stopped reading at the fault, so the client may
                    // still be mid-send. Half-close and linger instead of
                    // closing outright (see LINGER_PASSES).
                    done_faulted.push(id);
                } else {
                    let _ = stream.shutdown(Shutdown::Both);
                    dead.push(id);
                }
            }
        }
        for id in done_faulted {
            if let Some(stream) = socks.remove(&id) {
                let _ = stream.shutdown(Shutdown::Write);
                lingering.push((stream, LINGER_PASSES));
            }
            mux.disconnect(id);
            progress = true;
        }
        for id in dead.drain(..) {
            socks.remove(&id);
            mux.disconnect(id);
            progress = true;
        }

        // Drain and discard bytes from lingering half-closed sockets;
        // drop each once the client closes its side, errors, or the
        // pass budget runs out. Discarded bytes are not progress.
        lingering.retain_mut(|(stream, passes)| {
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return false,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            *passes -= 1;
            *passes > 0
        });

        if draining && socks.is_empty() && !cycle_in_flight && !mux.has_work() {
            break;
        }
        if draining && !socks.is_empty() && !cycle_in_flight && !mux.has_work() {
            // Queued work is done; give slow readers a bounded number of
            // passes to take their owed bytes, then force-close.
            let mut passes = 0;
            while passes < DRAIN_PASSES && !socks.is_empty() {
                let mut moved = false;
                let mut gone: Vec<ConnId> = Vec::new();
                for (&id, stream) in &mut socks {
                    match pump_output(&mut mux, id, stream) {
                        Ok(m) => {
                            moved |= m;
                            if mux.output(id).is_empty() {
                                let _ = stream.shutdown(Shutdown::Both);
                                gone.push(id);
                            }
                        }
                        Err(_) => gone.push(id),
                    }
                }
                for id in gone {
                    socks.remove(&id);
                    mux.disconnect(id);
                }
                if !moved {
                    thread::sleep(IDLE_SLEEP);
                    passes += 1;
                }
            }
            for (id, stream) in std::mem::take(&mut socks) {
                let _ = stream.shutdown(Shutdown::Both);
                mux.disconnect(id);
            }
            continue; // run the cleanup cycles the disconnects queued
        }

        let (tick, wait) = idle.after_pass(progress);
        if tick {
            mux.tick();
        }
        match wait {
            // Wake the moment the cycle completes.
            Some(wait) if cycle_in_flight => match exec.done_rx.recv_timeout(wait) {
                Ok(done) => completed = Some(done),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other("execution thread died"));
                }
            },
            Some(wait) => thread::sleep(wait),
            None => {}
        }
    }

    drop(exec.cycle_tx);
    report.parked_sessions = exec
        .handle
        .join()
        .map_err(|_| io::Error::other("execution thread panicked"))?;
    Ok(report)
}

/// Binds `addr` and runs [`serve_listener`], first reporting the bound
/// address through `on_bound` (the binary prints it so scripts can use
/// port 0 and parse the real port).
///
/// # Errors
///
/// Bind failures and loop-fatal I/O errors.
#[expect(
    clippy::disallowed_types,
    reason = "Driver-class: passes the shutdown flag to the loop"
)]
pub fn serve_addr(
    addr: impl ToSocketAddrs,
    server: Server,
    cfg: TransportConfig,
    shutdown: Arc<AtomicBool>,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> io::Result<DaemonReport> {
    let listener = TcpListener::bind(addr)?;
    on_bound(listener.local_addr()?);
    serve_listener(listener, server, cfg, shutdown)
}

/// Serves exactly one blocking byte stream (the `--stdio` transport and
/// the pipe-pair bench path): reads until EOF or a stream fault,
/// executing and writing responses incrementally.
///
/// # Errors
///
/// Real I/O errors on `reader`/`writer`. Stream faults (malformed
/// frames, truncation) are not I/O errors: owed responses are written,
/// then the function returns normally — the typed fault is in the
/// report's semantics, matching what a socket client observes (its
/// connection just closes).
pub fn serve_stream(
    mut reader: impl Read,
    mut writer: impl Write,
    server: Server,
    cfg: TransportConfig,
) -> io::Result<DaemonReport> {
    let mut engine = TransportEngine::new(server, cfg);
    let id = engine.mux().accept();
    let mut report = DaemonReport {
        connections: 1,
        ..DaemonReport::default()
    };
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            let _ = engine.mux().end_of_stream(id);
            break;
        }
        if engine.mux().ingest(id, &buf[..n]).is_err() {
            break;
        }
        report.cycles += engine.run_until_quiet();
        let out = engine.mux().take_output(id);
        if !out.is_empty() {
            writer.write_all(&out)?;
            writer.flush()?;
        }
    }
    // Drain what is owed (pre-poison commands included), then park.
    report.cycles += engine.run_until_quiet();
    let out = engine.mux().take_output(id);
    if !out.is_empty() {
        writer.write_all(&out)?;
        writer.flush()?;
    }
    engine.mux().disconnect(id);
    report.cycles += engine.run_until_quiet();
    report.parked_sessions = engine.park_all();
    Ok(report)
}

/// Client helper: sends a complete script to a daemon and returns the
/// full response byte stream (writes, half-closes, reads to EOF).
///
/// # Errors
///
/// Connection or socket I/O failures.
pub fn client_round_trip(addr: impl ToSocketAddrs, script: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(script)?;
    stream.shutdown(Shutdown::Write)?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(out)
}

/// A shutdown flag wired for signal handlers: the daemon polls it, the
/// binary's SIGTERM/SIGINT handler stores `true`.
#[expect(
    clippy::disallowed_types,
    reason = "Driver-class: the flag a signal handler sets"
)]
pub fn shutdown_flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_waits(idle: &mut IdleWait, passes: usize) -> Vec<Duration> {
        (0..passes)
            .map(|_| idle.after_pass(false).1.expect("an idle pass waits"))
            .collect()
    }

    #[test]
    fn idle_wait_doubles_from_the_floor_and_saturates_at_idle_sleep() {
        let mut idle = IdleWait::new();
        let us = |n| Duration::from_micros(n);
        assert_eq!(
            idle_waits(&mut idle, 9),
            [20, 40, 80, 160, 320, 640, 1000, 1000, 1000].map(us)
        );
        assert!(idle_waits(&mut idle, 1_000)
            .iter()
            .all(|&w| w == IDLE_SLEEP));
    }

    #[test]
    fn progress_ticks_without_waiting_and_resets_the_backoff() {
        let mut idle = IdleWait::new();
        idle_waits(&mut idle, 20);
        assert_eq!(idle.after_pass(true), (true, None));
        assert_eq!(idle.after_pass(true), (true, None));
        assert_eq!(
            idle_waits(&mut idle, 2),
            [IDLE_WAIT_FLOOR, 2 * IDLE_WAIT_FLOOR]
        );
    }

    /// The poll clock's idle rate: one tick per `IDLE_SLEEP` waited,
    /// however progress interrupts the backoff.
    #[test]
    fn idle_ticks_total_one_per_idle_sleep_of_waiting() {
        let mut idle = IdleWait::new();
        let (mut waited, mut ticks) = (Duration::ZERO, 0u128);
        for pass in 0u32..10_000 {
            // Progress every few passes, at an irregular period.
            let progress = pass % 7 == 0 || pass % 11 == 0;
            let (tick, wait) = idle.after_pass(progress);
            if !progress {
                waited += wait.expect("an idle pass waits");
                ticks += u128::from(tick);
                assert_eq!(ticks, waited.as_micros() / IDLE_SLEEP.as_micros());
            }
        }
        assert!(ticks > 100);

        // A truly idle daemon settles within six passes (1.26 ms, one
        // tick) at one wake-up, and one tick, per IDLE_SLEEP.
        let mut idle = IdleWait::new();
        let settle: Vec<_> = (0..6).map(|_| idle.after_pass(false)).collect();
        assert_eq!(settle.iter().filter(|(tick, _)| *tick).count(), 1);
        for _ in 0..100 {
            assert_eq!(idle.after_pass(false), (true, Some(IDLE_SLEEP)));
        }
    }
}
