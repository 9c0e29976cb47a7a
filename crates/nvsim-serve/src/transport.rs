//! Connection multiplexing: per-connection framing, back-pressure,
//! fairness, and hardened stream-error semantics.
//!
//! The [`TransportMux`] is the deterministic heart of the daemon: it
//! owns every connection's decode buffer, decoded-command queue and
//! encoded-response queue, and assembles [`FlushCycle`]s — fair
//! round-robin slices of pending commands — for the [`Server`] to
//! execute. Its per-connection decoder is the crate's only streaming
//! one; the server sees commands, never bytes. It does **no I/O and
//! spawns no threads**: the daemon feeds it bytes and carries its output
//! back to sockets, which is what makes the whole transport layer
//! testable as a pure state machine (the chaos suite drives it with
//! simulated connections).
//!
//! # Determinism contract, extended through the transport
//!
//! Each connection is its own *session scope* (see
//! [`registry`](crate::registry)): two connections opening "session 1"
//! get two independent simulations, and every response a connection
//! receives refers only to its own session ids. Consequently a
//! connection's response bytes are a pure function of **its own**
//! command stream and nothing else — byte-identical regardless of
//! worker count, ingest chunk boundaries, poll ordering, or how other
//! connections' traffic interleaves with it. In-tree tests pin this by
//! comparing every connection's output against an in-process
//! [`run_script`](crate::Server::run_script) oracle.
//!
//! # Back-pressure
//!
//! Reading stops per connection — [`wants_read`] turns false — when its
//! decoded-command queue or un-drained response bytes exceed budget, and
//! resumes as responses drain: the kernel's TCP window then pushes back
//! on the client, so one fat session cannot buffer the daemon into the
//! ground or starve thousands of small ones (each scheduling round
//! drains at most [`fair_slice`](TransportConfig::fair_slice) commands
//! per connection, in connection order).
//!
//! # Stream errors
//!
//! Every way a connection can go bad maps to a sticky, typed
//! [`StreamError`]:
//!
//! * a malformed frame poisons the connection ([`StreamError::Protocol`]):
//!   commands decoded before the bad frame execute exactly once and
//!   their responses are still delivered, nothing at or past the bad
//!   frame ever executes, and every later ingest returns the same error;
//! * a partial frame idling longer than
//!   [`idle_poll_limit`](TransportConfig::idle_poll_limit) polls — the
//!   slow-trickle attack: declare 63 MB, send one byte per poll — closes
//!   the connection ([`StreamError::IdlePartialFrame`]); the deadline
//!   counts polls, not wall-clock, so behavior stays deterministic;
//! * ingest that would push the *sum* of all connections' undecoded
//!   buffers past [`total_buffer_budget`](TransportConfig::total_buffer_budget)
//!   closes the offending connection ([`StreamError::BufferOverBudget`]).
//!
//! A faulted or cleanly-EOF'd connection still receives every response
//! it is owed before [`conn_done`] reports it closeable; its sessions
//! are closed (released) when the daemon calls [`disconnect`].
//!
//! [`wants_read`]: TransportMux::wants_read
//! [`conn_done`]: TransportMux::conn_done
//! [`disconnect`]: TransportMux::disconnect

use crate::protocol::{Command, FrameDecoder, ProtocolError, ProtocolErrorKind, Response};
use crate::server::Server;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Identifies one live connection (also its session scope; scope 0 is
/// reserved for [`Server::run_script`]).
pub type ConnId = u64;

/// Why a connection was torn down. Sticky: once set, every further
/// operation on the connection reports the same error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The byte stream was malformed; commands decoded before the bad
    /// frame executed exactly once, nothing at or past it ever will.
    Protocol(ProtocolError),
    /// A partially-received frame made no progress for this many polls —
    /// the slow-trickle defense (deadline in polls, not wall-clock).
    IdlePartialFrame {
        /// Polls the partial frame sat without a complete frame arriving.
        polls: u64,
    },
    /// This connection's ingest pushed the sum of all connections'
    /// undecoded buffers past the configured budget.
    BufferOverBudget {
        /// Total undecoded bytes across connections after the push.
        buffered: usize,
        /// The configured ceiling.
        budget: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Protocol(e) => write!(f, "protocol error: {e}"),
            StreamError::IdlePartialFrame { polls } => {
                write!(f, "partial frame made no progress for {polls} polls")
            }
            StreamError::BufferOverBudget { buffered, budget } => write!(
                f,
                "ingest buffers at {buffered} bytes exceed the {budget}-byte budget"
            ),
        }
    }
}

impl Error for StreamError {}

/// Transport-layer knobs: budgets (back-pressure), fairness, and the
/// slow-trickle defenses. Every limit is deterministic — counted in
/// commands, bytes or polls, never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Back-pressure: stop reading a connection whose decoded-command
    /// queue reached this many commands; resume as cycles drain it.
    pub max_conn_commands: usize,
    /// Back-pressure: stop reading *and* stop dispatching for a
    /// connection holding more than this many un-taken response bytes;
    /// resume as the daemon writes them out.
    pub max_conn_response_bytes: usize,
    /// Fairness: commands drained per connection per scheduling round
    /// (round-robin in connection order), so one fat session cannot
    /// monopolize a flush cycle.
    pub fair_slice: usize,
    /// Ceiling on commands per flush cycle across all connections.
    pub max_cycle_commands: usize,
    /// Slow-trickle defense: close a connection whose partial frame made
    /// no progress for this many polls.
    pub idle_poll_limit: u64,
    /// Global ceiling on undecoded buffered bytes summed over all
    /// connections; the ingest that crosses it loses its connection.
    pub total_buffer_budget: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_conn_commands: 256,
            max_conn_response_bytes: 4 << 20,
            fair_slice: 8,
            max_cycle_commands: 4096,
            idle_poll_limit: 10_000,
            total_buffer_budget: 256 << 20,
        }
    }
}

/// One connection's transport state.
#[derive(Debug)]
struct Conn {
    decoder: FrameDecoder,
    /// Decoded commands not yet dispatched into a cycle.
    queue: VecDeque<Command>,
    /// Session ids opened by dispatched commands and not yet closed —
    /// released via internal `Close`s when the connection goes away.
    live_sids: BTreeSet<u64>,
    /// Encoded response bytes awaiting the daemon's write.
    out: Vec<u8>,
    fault: Option<StreamError>,
    /// Clean end-of-stream seen; no more ingest, but responses for
    /// already-queued commands still flow.
    eof: bool,
    /// Polls since the buffered partial frame last made progress.
    idle_polls: u64,
    /// Commands inside the currently in-flight cycle.
    in_flight: usize,
}

impl Conn {
    fn new() -> Self {
        Conn {
            decoder: FrameDecoder::new(),
            queue: VecDeque::new(),
            live_sids: BTreeSet::new(),
            out: Vec::new(),
            fault: None,
            eof: false,
            idle_polls: 0,
            in_flight: 0,
        }
    }

    fn drop_buffer(&mut self) -> usize {
        let had = self.decoder.buffered_len();
        self.decoder = FrameDecoder::new();
        had
    }

    /// Whether the un-taken response bytes exceed `max_bytes`: such a
    /// connection is neither read nor dispatched until the daemon
    /// writes them out.
    fn over_response_budget(&self, max_bytes: usize) -> bool {
        // nvsim-lint: allow(unit-mismatch) — `out` is a `Vec<u8>`, so its length counts bytes.
        self.out.len() > max_bytes
    }
}

/// A fair slice of pending commands, ready for a [`Server`] to execute.
/// Produced by [`TransportMux::begin_cycle`], executed (possibly on
/// another thread — the pipelining split) by [`FlushCycle::execute`],
/// and returned to [`TransportMux::absorb`].
#[derive(Debug)]
pub struct FlushCycle {
    /// Per command: the connection to credit with its responses
    /// (`None` for internal session-cleanup commands).
    assignments: Vec<Option<ConnId>>,
    /// `(scope, command)` in dispatch order.
    commands: Vec<(u64, Command)>,
}

impl FlushCycle {
    /// Commands in this cycle.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the cycle carries no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Executes every command against `server` and pairs the responses
    /// back with their connection assignments.
    pub fn execute(self, server: &mut Server) -> CompletedCycle {
        CompletedCycle {
            assignments: self.assignments,
            per_cmd: server.execute(self.commands),
        }
    }
}

/// The responses of an executed [`FlushCycle`], ready to be absorbed
/// back into the mux.
#[derive(Debug)]
pub struct CompletedCycle {
    assignments: Vec<Option<ConnId>>,
    per_cmd: Vec<Vec<Response>>,
}

/// Aggregate occupancy counters, for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Live connections (faulted-but-draining included).
    pub connections: usize,
    /// Undecoded bytes buffered across all connections.
    pub buffered_bytes: usize,
    /// Decoded commands queued across all connections.
    pub queued_commands: usize,
    /// Encoded response bytes awaiting write across all connections.
    pub pending_response_bytes: usize,
}

/// The connection multiplexer: deterministic framing, budgets, fairness
/// and demux for any number of connections (module docs tell the whole
/// story).
#[derive(Debug)]
pub struct TransportMux {
    cfg: TransportConfig,
    conns: BTreeMap<ConnId, Conn>,
    next_conn: ConnId,
    /// Internal session-release commands from disconnected connections;
    /// drained ahead of client traffic, responses discarded.
    cleanup: VecDeque<(u64, Command)>,
    /// Whether a cycle is in flight (at most one at a time).
    cycle_open: bool,
    total_buffered: usize,
}

impl TransportMux {
    /// An empty mux. Connection ids (= session scopes) start at 1;
    /// scope 0 stays reserved for [`Server::run_script`].
    pub fn new(cfg: TransportConfig) -> Self {
        TransportMux {
            cfg,
            conns: BTreeMap::new(),
            next_conn: 1,
            cleanup: VecDeque::new(),
            cycle_open: false,
            total_buffered: 0,
        }
    }

    /// The configured budgets and limits.
    pub fn config(&self) -> TransportConfig {
        self.cfg
    }

    /// Registers a new connection and returns its id.
    pub fn accept(&mut self) -> ConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, Conn::new());
        id
    }

    /// Whether the daemon should keep reading this connection's socket:
    /// false once its command queue or response backlog is over budget
    /// (back-pressure — resume when they drain), or the connection is
    /// faulted or past EOF.
    pub fn wants_read(&self, id: ConnId) -> bool {
        match self.conns.get(&id) {
            Some(c) => {
                c.fault.is_none()
                    && !c.eof
                    && c.queue.len() < self.cfg.max_conn_commands
                    && !c.over_response_budget(self.cfg.max_conn_response_bytes)
            }
            None => false,
        }
    }

    /// Feeds received bytes into a connection; complete frames decode
    /// into its command queue. Returns how many commands were decoded.
    ///
    /// # Errors
    ///
    /// A sticky [`StreamError`]: the connection's existing fault, a
    /// fresh protocol error (poisoning the connection — commands decoded
    /// before the bad frame will still execute exactly once), or a
    /// fresh [`StreamError::BufferOverBudget`] if this push took the
    /// global undecoded-buffer total past its budget.
    pub fn ingest(&mut self, id: ConnId, bytes: &[u8]) -> Result<usize, StreamError> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(0);
        };
        if let Some(fault) = &conn.fault {
            return Err(fault.clone());
        }
        if conn.eof {
            return Ok(0);
        }
        let before = conn.decoder.buffered_len();
        conn.decoder.push(bytes);
        let mut decoded = 0usize;
        let fault: Option<StreamError> = loop {
            match conn.decoder.next_frame() {
                Ok(Some((base, payload))) => match Command::decode(base, &payload) {
                    Ok(cmd) => {
                        conn.queue.push_back(cmd);
                        decoded += 1;
                    }
                    Err(e) => break Some(StreamError::Protocol(e)),
                },
                Ok(None) => break None,
                Err(e) => break Some(StreamError::Protocol(e)),
            }
        };
        if let Some(fault) = fault {
            conn.drop_buffer();
            self.total_buffered -= before;
            conn.fault = Some(fault.clone());
            return Err(fault);
        }
        let after = conn.decoder.buffered_len();
        self.total_buffered = self.total_buffered - before + after;
        if decoded > 0 || after == 0 {
            conn.idle_polls = 0;
        }
        if self.total_buffered > self.cfg.total_buffer_budget {
            let fault = StreamError::BufferOverBudget {
                buffered: self.total_buffered,
                budget: self.cfg.total_buffer_budget,
            };
            self.total_buffered -= conn.drop_buffer();
            conn.fault = Some(fault.clone());
            return Err(fault);
        }
        Ok(decoded)
    }

    /// Declares a clean end of stream on a connection: no more ingest,
    /// but queued commands still execute and their responses still
    /// drain; [`conn_done`](TransportMux::conn_done) turns true once
    /// nothing is owed.
    ///
    /// # Errors
    ///
    /// The connection's sticky fault, or — if bytes of an incomplete
    /// frame were buffered — a poisoning
    /// [`ProtocolErrorKind::Truncated`] (a mid-frame disconnect).
    pub fn end_of_stream(&mut self, id: ConnId) -> Result<(), StreamError> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        if let Some(fault) = &conn.fault {
            return Err(fault.clone());
        }
        let buffered = conn.decoder.buffered_len();
        if buffered != 0 {
            let fault = StreamError::Protocol(ProtocolError {
                offset: conn.decoder.offset(),
                kind: ProtocolErrorKind::Truncated { missing: buffered },
            });
            self.total_buffered -= conn.drop_buffer();
            conn.fault = Some(fault.clone());
            return Err(fault);
        }
        conn.eof = true;
        Ok(())
    }

    /// Advances the poll clock one tick: every connection holding a
    /// partial frame that made no progress ages by one poll, and those
    /// past [`idle_poll_limit`](TransportConfig::idle_poll_limit) fault
    /// with [`StreamError::IdlePartialFrame`]. Returns the connections
    /// newly faulted by this tick.
    pub fn tick(&mut self) -> Vec<(ConnId, StreamError)> {
        let mut faulted = Vec::new();
        let mut freed = 0usize;
        for (&id, conn) in &mut self.conns {
            if conn.fault.is_some() || conn.decoder.buffered_len() == 0 {
                continue;
            }
            conn.idle_polls += 1;
            if conn.idle_polls > self.cfg.idle_poll_limit {
                let fault = StreamError::IdlePartialFrame {
                    polls: conn.idle_polls,
                };
                freed += conn.drop_buffer();
                conn.fault = Some(fault.clone());
                faulted.push((id, fault));
            }
        }
        self.total_buffered -= freed;
        faulted
    }

    /// Assembles the next fair slice of work: cleanup commands first,
    /// then round-robin over connections in id order, taking at most
    /// [`fair_slice`](TransportConfig::fair_slice) commands per
    /// connection per round (skipping connections whose response backlog
    /// is over budget) until the cycle cap is hit or every queue is
    /// empty. Returns `None` when there is nothing to do or a cycle is
    /// already in flight — at most one cycle exists at a time.
    pub fn begin_cycle(&mut self) -> Option<FlushCycle> {
        if self.cycle_open {
            return None;
        }
        let mut assignments = Vec::new();
        let mut commands = Vec::new();
        while commands.len() < self.cfg.max_cycle_commands {
            match self.cleanup.pop_front() {
                Some((scope, cmd)) => {
                    assignments.push(None);
                    commands.push((scope, cmd));
                }
                None => break,
            }
        }
        loop {
            let mut took_any = false;
            for (&id, conn) in &mut self.conns {
                if commands.len() >= self.cfg.max_cycle_commands {
                    break;
                }
                if conn.over_response_budget(self.cfg.max_conn_response_bytes) {
                    continue;
                }
                for _ in 0..self.cfg.fair_slice {
                    if commands.len() >= self.cfg.max_cycle_commands {
                        break;
                    }
                    let Some(cmd) = conn.queue.pop_front() else {
                        break;
                    };
                    match &cmd {
                        Command::Open { sid, .. } => {
                            conn.live_sids.insert(*sid);
                        }
                        Command::Close { sid } => {
                            conn.live_sids.remove(sid);
                        }
                        _ => {}
                    }
                    conn.in_flight += 1;
                    assignments.push(Some(id));
                    commands.push((id, cmd));
                    took_any = true;
                }
            }
            if !took_any || commands.len() >= self.cfg.max_cycle_commands {
                break;
            }
        }
        if commands.is_empty() {
            return None;
        }
        self.cycle_open = true;
        Some(FlushCycle {
            assignments,
            commands,
        })
    }

    /// Returns an executed cycle's responses to their connections:
    /// each command's responses are encoded onto the output queue of the
    /// connection that sent it, in that connection's command order.
    /// Responses for vanished connections (and internal cleanup) are
    /// discarded.
    pub fn absorb(&mut self, done: CompletedCycle) {
        self.cycle_open = false;
        for (assignment, rsps) in done.assignments.iter().zip(&done.per_cmd) {
            let Some(id) = assignment else { continue };
            let Some(conn) = self.conns.get_mut(id) else {
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            for r in rsps {
                r.encode_frame(&mut conn.out);
            }
        }
    }

    /// The connection's un-written response bytes.
    pub fn output(&self, id: ConnId) -> &[u8] {
        self.conns.get(&id).map(|c| c.out.as_slice()).unwrap_or(&[])
    }

    /// Marks `n` output bytes as written (the daemon calls this with the
    /// socket write's return value; partial writes just consume less).
    pub fn consume_output(&mut self, id: ConnId, n: usize) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.out.drain(..n.min(conn.out.len()));
        }
    }

    /// Takes the connection's entire pending output (single-threaded
    /// drivers that always write everything).
    pub fn take_output(&mut self, id: ConnId) -> Vec<u8> {
        match self.conns.get_mut(&id) {
            Some(conn) => std::mem::take(&mut conn.out),
            None => Vec::new(),
        }
    }

    /// The connection's sticky fault, if it has one.
    pub fn fault(&self, id: ConnId) -> Option<&StreamError> {
        self.conns.get(&id).and_then(|c| c.fault.as_ref())
    }

    /// Whether everything owed to this connection has been computed and
    /// drained: the stream has ended (EOF or fault), no commands are
    /// queued or in flight, and no output bytes remain.
    pub fn conn_done(&self, id: ConnId) -> bool {
        match self.conns.get(&id) {
            Some(c) => {
                (c.eof || c.fault.is_some())
                    && c.queue.is_empty()
                    && c.in_flight == 0
                    && c.out.is_empty()
            }
            None => true,
        }
    }

    /// Removes a connection. Its undispatched commands are discarded and
    /// its open sessions are released through internal `Close` commands
    /// in the next cycles (responses discarded). Safe to call for an
    /// unknown id.
    pub fn disconnect(&mut self, id: ConnId) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        self.total_buffered -= conn.drop_buffer();
        // Queued-but-undispatched commands never execute, but any
        // session a *dispatched* command opened must be released.
        for sid in &conn.live_sids {
            self.cleanup.push_back((id, Command::Close { sid: *sid }));
        }
    }

    /// Live connection ids, in id order.
    pub fn connections(&self) -> Vec<ConnId> {
        self.conns.keys().copied().collect()
    }

    /// Whether any connection has queued commands or cleanup is pending
    /// (i.e. [`begin_cycle`](TransportMux::begin_cycle) would produce
    /// work if no cycle were in flight).
    pub fn has_work(&self) -> bool {
        !self.cleanup.is_empty()
            || self.conns.values().any(|c| {
                !c.queue.is_empty() && !c.over_response_budget(self.cfg.max_conn_response_bytes)
            })
    }

    /// Aggregate occupancy, for logs and tests.
    pub fn stats(&self) -> MuxStats {
        MuxStats {
            connections: self.conns.len(),
            buffered_bytes: self.total_buffered,
            queued_commands: self.conns.values().map(|c| c.queue.len()).sum(),
            pending_response_bytes: self.conns.values().map(|c| c.out.len()).sum(),
        }
    }
}

/// A [`TransportMux`] and its [`Server`] under one roof, stepped
/// synchronously — the single-threaded driver used by the stdio
/// transport and the deterministic chaos tests. The daemon's socket
/// loop keeps the two apart instead, so frame decode of one connection
/// overlaps execution of another (see [`daemon`](crate::daemon)).
#[derive(Debug)]
pub struct TransportEngine {
    mux: TransportMux,
    server: Server,
}

impl TransportEngine {
    /// Couples a server with a fresh mux.
    pub fn new(server: Server, cfg: TransportConfig) -> Self {
        TransportEngine {
            mux: TransportMux::new(cfg),
            server,
        }
    }

    /// The mux (accept/ingest/output — every [`TransportMux`] method).
    pub fn mux(&mut self) -> &mut TransportMux {
        &mut self.mux
    }

    /// Read-only view of the mux.
    pub fn mux_ref(&self) -> &TransportMux {
        &self.mux
    }

    /// The underlying server (registry inspection).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Runs one flush cycle if there is work; returns whether anything
    /// executed.
    pub fn step(&mut self) -> bool {
        match self.mux.begin_cycle() {
            Some(cycle) => {
                let done = cycle.execute(&mut self.server);
                self.mux.absorb(done);
                true
            }
            None => false,
        }
    }

    /// Steps until no work remains (bounded: every step strictly drains
    /// command queues, and nothing refills them between steps); returns
    /// how many cycles ran.
    pub fn run_until_quiet(&mut self) -> u64 {
        let mut cycles = 0;
        while self.step() {
            cycles += 1;
        }
        cycles
    }

    /// Parks every warm session (graceful drain before exit).
    pub fn park_all(&mut self) -> usize {
        self.server.park_all()
    }
}
