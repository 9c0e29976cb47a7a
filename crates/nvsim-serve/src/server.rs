//! The [`Server`]: concurrent deterministic execution of decoded
//! commands, and response stream assembly.
//!
//! A server never reads a byte stream. Frames become commands in two
//! places: the transport's per-connection decoder
//! ([`TransportMux::ingest`](crate::TransportMux::ingest)), which runs
//! the commands before a malformed frame and nothing after it, and
//! [`run_script`](Server::run_script), which decodes a complete script
//! before anything runs and so executes all of it or nothing. Both hand
//! the server `(scope, command)` pairs through
//! [`execute`](Server::execute).
//!
//! A script is also the determinism contract's unit: the same script
//! produces byte-identical response streams at **any** worker count,
//! because sessions are isolated, each session's unit executes its
//! commands serially, and responses are merged by the global input
//! order of commands — never by completion order.

use crate::executor;
use crate::protocol::{decode_commands, Command, ProtocolError, Response};
use crate::registry::{ScopedSid, SessionRegistry};
use crate::session::{BackendFactory, SessionUnit};
use std::collections::BTreeMap;
use std::fmt;

/// Service-level knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing session units per
    /// [`execute`](Server::execute) call (min 1). Does not affect output
    /// bytes, only wall-clock time.
    pub workers: usize,
    /// Sessions kept warm (live backend) between `execute` calls; the LRU
    /// parks the rest as snapshot blobs. Does not affect output bytes.
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
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.cfg)
            .field("sessions", &self.registry.len())
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
        }
    }

    /// Executes `cmds`, `(scope, command)` pairs in global input order,
    /// and returns each command's responses at its input index.
    ///
    /// Commands are grouped per scoped session into [`SessionUnit`]s
    /// (order preserved within a session), executed across the
    /// configured workers, and their responses re-merged by global
    /// command index — so the output is a pure function of the commands
    /// and prior session state, at any worker count.
    pub fn execute(&mut self, cmds: Vec<(u64, Command)>) -> Vec<Vec<Response>> {
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

    /// Decodes a complete script and executes it in scope 0: the
    /// one-call form of the determinism contract. The whole script is
    /// decoded before any command executes, so a malformed script
    /// executes nothing.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] from decoding, including a trailing partial
    /// frame.
    pub fn run_script(&mut self, script: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let cmds = decode_commands(script)?;
        let mut out = Vec::new();
        for rsps in self.execute(cmds.into_iter().map(|c| (0, c)).collect()) {
            for r in &rsps {
                r.encode_frame(&mut out);
            }
        }
        Ok(out)
    }

    /// Parks every warm session as a snapshot blob (backends that cannot
    /// checkpoint stay warm) — the graceful-drain path before the daemon
    /// exits. Returns the number of parked sessions.
    pub fn park_all(&mut self) -> usize {
        self.registry.park_all()
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
