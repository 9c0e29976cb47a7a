//! The [`Server`]: batched ingestion, concurrent deterministic
//! execution, response stream assembly.
//!
//! A server is driven in three moves:
//!
//! 1. [`ingest`](Server::ingest) — feed connection bytes; complete
//!    frames decode into commands (a malformed frame is a typed
//!    [`ProtocolError`] and is never half-applied).
//! 2. [`flush`](Server::flush) — execute everything ingested so far and
//!    get the encoded response frames back.
//! 3. [`end_of_stream`](Server::end_of_stream) — assert a clean close
//!    (detects mid-frame disconnects).
//!
//! [`run_script`](Server::run_script) does all three for a complete
//! script, which is also the determinism contract's unit: the same
//! script produces byte-identical response streams at **any** worker
//! count, because sessions are isolated, each session's unit executes
//! its commands serially, and responses are merged by the global input
//! order of commands — never by completion order.
//!
//! # Poisoned streams
//!
//! The first malformed frame *poisons* the ingest stream, permanently:
//!
//! * Commands that decoded **before** the bad frame stay queued and
//!   execute **exactly once**, on the next [`flush`](Server::flush) —
//!   the client is owed those responses.
//! * Nothing at or past the bad frame ever decodes or executes, no
//!   matter what bytes arrive later.
//! * Every subsequent [`ingest`](Server::ingest), every
//!   [`flush`](Server::flush) once the owed responses have been
//!   delivered, [`end_of_stream`](Server::end_of_stream), and
//!   [`run_script`](Server::run_script) return the **same**
//!   [`ProtocolError`] (same offset, same kind) — deterministically,
//!   regardless of how the byte stream was chunked around the error.
//!
//! Session state is *not* poisoned: sessions opened before the bad
//! frame remain in the registry (the transport layer closes or parks
//! them when it tears the connection down).

use crate::executor;
use crate::protocol::{Command, FrameDecoder, ProtocolError, Response, SessionId};
use crate::registry::{ScopedSid, SessionRegistry};
use crate::session::{BackendFactory, SessionUnit};
use std::collections::BTreeMap;
use std::fmt;

/// Service-level knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing session units per flush (min 1). Does
    /// not affect output bytes, only wall-clock time.
    pub workers: usize,
    /// Sessions kept warm (live backend) between flushes; the LRU parks
    /// the rest as snapshot blobs. Does not affect output bytes.
    pub warm_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            warm_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// The default configuration with a different worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// A session-multiplexing simulation service over any backend the
/// factory can build.
pub struct Server {
    factory: BackendFactory,
    cfg: ServerConfig,
    registry: SessionRegistry,
    decoder: FrameDecoder,
    /// `(scope, command)` in global input order. Scope 0 is the ingest
    /// stream; the transport enqueues under per-connection scopes.
    pending: Vec<(u64, Command)>,
    /// The first protocol error the ingest stream hit, sticky forever.
    poison: Option<ProtocolError>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.cfg)
            .field("sessions", &self.registry.len())
            .field("pending", &self.pending.len())
            .field("poisoned", &self.poison.is_some())
            .finish()
    }
}

impl Server {
    /// A server building backends through `factory` (pass the facade
    /// crate's `build_backend`).
    pub fn new(factory: BackendFactory, cfg: ServerConfig) -> Self {
        Server {
            factory,
            cfg,
            registry: SessionRegistry::new(cfg.warm_capacity),
            decoder: FrameDecoder::new(),
            pending: Vec::new(),
            poison: None,
        }
    }

    /// Feeds connection bytes; returns how many complete commands were
    /// decoded (they are queued for the next [`flush`](Server::flush)).
    ///
    /// # Errors
    ///
    /// Any malformed frame yields a typed [`ProtocolError`] with its
    /// stream offset and **poisons** the stream: commands decoded before
    /// the bad frame stay queued (they execute exactly once on the next
    /// flush), nothing at or past it ever executes, and every later
    /// `ingest` returns this same error without reading `bytes` at all.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<usize, ProtocolError> {
        if let Some(poison) = &self.poison {
            return Err(poison.clone());
        }
        self.decoder.push(bytes);
        let mut n = 0;
        loop {
            let step = (|| -> Result<Option<Command>, ProtocolError> {
                match self.decoder.next_frame()? {
                    Some((base, payload)) => Ok(Some(Command::decode(base, &payload)?)),
                    None => Ok(None),
                }
            })();
            match step {
                Ok(Some(cmd)) => {
                    self.pending.push((0, cmd));
                    n += 1;
                }
                Ok(None) => return Ok(n),
                Err(e) => {
                    self.poison = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// The sticky error a poisoned ingest stream will keep returning,
    /// if any.
    pub fn poison(&self) -> Option<&ProtocolError> {
        self.poison.as_ref()
    }

    /// Queues one already-decoded command under a session namespace
    /// (the transport path: each connection is its own scope, so two
    /// connections opening "session 1" get two independent simulations).
    /// Returns the command's global input index for response demux.
    pub fn enqueue_scoped(&mut self, scope: u64, cmd: Command) -> usize {
        self.pending.push((scope, cmd));
        self.pending.len() - 1
    }

    /// Commands ingested but not yet executed.
    pub fn pending_commands(&self) -> usize {
        self.pending.len()
    }

    /// Asserts the connection ended cleanly.
    ///
    /// # Errors
    ///
    /// The stream's poison error if there was one; otherwise a
    /// [`ProtocolError`] with kind `Truncated` if bytes of an incomplete
    /// frame remain buffered (a mid-stream disconnect).
    pub fn end_of_stream(&self) -> Result<(), ProtocolError> {
        if let Some(poison) = &self.poison {
            return Err(poison.clone());
        }
        self.decoder.finish()
    }

    /// Executes every pending command and returns each command's
    /// responses, indexed by global input order — the transport's demux
    /// hook, and the core of [`flush`](Server::flush).
    ///
    /// Commands are grouped per scoped session into [`SessionUnit`]s
    /// (order preserved within a session), executed across the
    /// configured workers, and their responses re-merged by global
    /// command index — so the output is a pure function of the ingested
    /// commands and prior session state, at any worker count.
    pub fn flush_responses(&mut self) -> Vec<Vec<Response>> {
        let cmds = std::mem::take(&mut self.pending);
        let total = cmds.len();

        // Group commands into per-session units, checking each touched
        // session out of the registry.
        let mut units: Vec<SessionUnit> = Vec::new();
        let mut by_sid: BTreeMap<ScopedSid, usize> = BTreeMap::new();
        for (i, (scope, cmd)) in cmds.into_iter().enumerate() {
            let key: ScopedSid = (scope, cmd.sid());
            let ui = match by_sid.get(&key) {
                Some(&ui) => ui,
                None => {
                    units.push(SessionUnit::new(scope, key.1, self.registry.checkout(key)));
                    by_sid.insert(key, units.len() - 1);
                    units.len() - 1
                }
            };
            units[ui].commands.push((i, cmd));
        }

        let units = executor::run_indexed(
            units,
            |u| u.cost() as u64,
            self.cfg.workers,
            |mut u| {
                u.run(self.factory);
                u
            },
        );

        // Re-merge responses in global command order and return the
        // sessions to the registry (registering recency for the LRU).
        let mut per_cmd: Vec<Vec<Response>> = Vec::new();
        per_cmd.resize_with(total, Vec::new);
        for unit in units {
            self.registry.check_in((unit.scope, unit.sid), unit.slot);
            for (i, rsps) in unit.responses {
                per_cmd[i] = rsps;
            }
        }
        self.registry.settle();
        per_cmd
    }

    /// Executes every pending command and returns the encoded response
    /// frames, in command input order.
    ///
    /// # Errors
    ///
    /// On a poisoned stream (see [`ingest`](Server::ingest)): commands
    /// queued before the bad frame still execute — exactly once — and
    /// their bytes are returned; once nothing is owed, every further
    /// call returns the stream's poison error.
    pub fn flush(&mut self) -> Result<Vec<u8>, ProtocolError> {
        if self.pending.is_empty() {
            if let Some(poison) = &self.poison {
                return Err(poison.clone());
            }
        }
        let per_cmd = self.flush_responses();
        let mut out = Vec::new();
        for rsps in &per_cmd {
            for r in rsps {
                r.encode_frame(&mut out);
            }
        }
        Ok(out)
    }

    /// Decodes a complete script and executes it: the one-call form of
    /// the determinism contract. The whole script is decoded (with its
    /// own frame decoder, offsets relative to the script) before any
    /// command is queued, so a malformed script executes nothing.
    ///
    /// # Errors
    ///
    /// The stream's poison error if the server's ingest stream was
    /// already poisoned; otherwise a [`ProtocolError`] from decoding,
    /// including a trailing partial frame.
    pub fn run_script(&mut self, script: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        if let Some(poison) = &self.poison {
            return Err(poison.clone());
        }
        let cmds = crate::protocol::decode_commands(script)?;
        self.pending.extend(cmds.into_iter().map(|c| (0, c)));
        self.flush()
    }

    /// Parks every warm session as a snapshot blob (backends that cannot
    /// checkpoint stay warm) — the graceful-drain path before the daemon
    /// exits. Returns the number of parked sessions.
    pub fn park_all(&mut self) -> usize {
        self.registry.park_all()
    }

    /// The open session ids within one namespace — the transport uses
    /// this to close a disconnected connection's sessions.
    pub fn sids_in_scope(&self, scope: u64) -> Vec<SessionId> {
        self.registry.sids_in_scope(scope)
    }

    /// The session registry (warm/parked occupancy, for inspection).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> ServerConfig {
        self.cfg
    }
}
