//! Session state and command application — the deterministic core of the
//! service.
//!
//! A *session* is one client-visible simulation: a [`MemoryBackend`]
//! plus the bookkeeping that survives parking (response sequence
//! numbers, the options requested at open, the shared trace buffer).
//! [`apply_command`] is the single function that interprets a decoded
//! [`Command`] against a session slot; it is a pure function of the
//! slot's state and the command, which is what makes the service's
//! response stream independent of worker count and of when the LRU
//! parks a session.
//!
//! Sessions exist in two states:
//!
//! * **Warm** — a live backend, ready to execute requests.
//! * **Parked** — the backend's full state captured as an `NVSS`
//!   snapshot blob; no live simulator object exists. Parking is how the
//!   LRU bounds warm-state memory and how [`Command::Migrate`] hands a
//!   session to a different worker: any worker can rehydrate the blob.
//!
//! Because snapshot round-trips are exact (tier-1 tested per backend
//! kind), park/rehydrate is semantically invisible: the response stream
//! of a script is identical whether a session stayed warm throughout or
//! was parked and rehydrated between any two commands.

use crate::executor::TraceShared;
use crate::protocol::{Command, ErrorCode, OpenOptions, Response, SessionId};
use nvsim_types::trace::JsonlSink;
use nvsim_types::{BackendConfig, BackendKind, ConfigError, MemoryBackend, SessionOptions};
use std::fmt;

/// Constructor the service uses to build backends by kind — the exact
/// signature of the facade crate's `build_backend`, taken as a plain
/// function pointer so this crate depends only on `nvsim-types`.
pub type BackendFactory =
    fn(BackendKind, &BackendConfig) -> Result<Box<dyn MemoryBackend>, ConfigError>;

/// Session bookkeeping that survives parking.
#[derive(Debug)]
pub struct SessionMeta {
    kind: BackendKind,
    dimms: u32,
    opts: OpenOptions,
    /// Next response sequence number for this session.
    seq: u64,
    /// Whether every option requested at open was supported.
    full_options: bool,
    /// Shared buffer the session's `JsonlSink` writes into, drained
    /// into [`Response::TraceChunk`] frames after each command.
    trace: Option<TraceShared>,
}

impl SessionMeta {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn config(&self) -> BackendConfig {
        BackendConfig {
            dimms: self.dimms,
            ..BackendConfig::default()
        }
    }

    /// The [`SessionOptions`] this session was opened with. Each call
    /// builds a fresh `JsonlSink` writing into the *same* shared buffer,
    /// so re-applying options after a rehydrate continues the trace
    /// stream seamlessly.
    fn session_options(&self) -> SessionOptions {
        let mut o = SessionOptions::new();
        if let Some(shared) = &self.trace {
            o = o.trace_sink(Box::new(JsonlSink::new(shared.writer())));
        }
        if self.opts.durability {
            o = o.durability_tracking(true);
        }
        if self.opts.snapshot_interval > 0 {
            o = o.snapshot_interval(self.opts.snapshot_interval);
        }
        o
    }

    /// Drains trace bytes accumulated since the last chunk, if tracing.
    fn take_trace_bytes(&self) -> Vec<u8> {
        match &self.trace {
            Some(shared) => shared.take(),
            None => Vec::new(),
        }
    }
}

/// One session, warm or parked.
pub enum SessionSlot {
    /// A live backend.
    Warm {
        /// The simulator.
        backend: Box<dyn MemoryBackend>,
        /// Surviving bookkeeping.
        meta: SessionMeta,
    },
    /// The backend's state as an `NVSS` snapshot blob.
    Parked {
        /// The snapshot blob.
        blob: Vec<u8>,
        /// Surviving bookkeeping.
        meta: SessionMeta,
    },
}

impl fmt::Debug for SessionSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionSlot::Warm { meta, .. } => f.debug_struct("Warm").field("meta", meta).finish(),
            SessionSlot::Parked { blob, meta } => f
                .debug_struct("Parked")
                .field("blob_len", &blob.len())
                .field("meta", meta)
                .finish(),
        }
    }
}

impl SessionSlot {
    /// Whether the session holds a live backend.
    pub fn is_warm(&self) -> bool {
        matches!(self, SessionSlot::Warm { .. })
    }

    /// Parks a warm session as a snapshot blob. A backend that does not
    /// support checkpointing stays warm (it cannot be evicted).
    pub fn park(self) -> SessionSlot {
        match self {
            SessionSlot::Warm { backend, meta } => match backend.save_snapshot() {
                Some(blob) => SessionSlot::Parked { blob, meta },
                None => SessionSlot::Warm { backend, meta },
            },
            parked => parked,
        }
    }
}

/// The unit of scheduling: one session plus its slice of the current
/// command batch. Units are independent — sessions share no state — so
/// the executor may run them on any worker in any order; responses are
/// keyed by the global command index and re-merged in input order.
pub struct SessionUnit {
    /// The namespace the session lives in (0 for `run_script`, the
    /// connection scope under the transport). Never visible in
    /// responses — [`apply_command`] only ever sees the client's sid.
    pub scope: u64,
    /// The session this unit belongs to.
    pub sid: SessionId,
    /// The session's state (`None` until an `Open` in this unit creates
    /// it, or after a `Close` destroys it).
    pub slot: Option<SessionSlot>,
    /// `(global command index, command)` in input order.
    pub commands: Vec<(usize, Command)>,
    /// `(global command index, responses)` filled in by [`run`].
    ///
    /// [`run`]: SessionUnit::run
    pub responses: Vec<(usize, Vec<Response>)>,
}

impl fmt::Debug for SessionUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionUnit")
            .field("sid", &self.sid)
            .field("commands", &self.commands.len())
            .field("responses", &self.responses.len())
            .finish()
    }
}

impl SessionUnit {
    /// A unit over an existing (or absent) session.
    pub fn new(scope: u64, sid: SessionId, slot: Option<SessionSlot>) -> Self {
        SessionUnit {
            scope,
            sid,
            slot,
            commands: Vec::new(),
            responses: Vec::new(),
        }
    }

    /// Scheduling cost estimate: total requests plus one per command.
    /// The executor claims larger units first.
    pub fn cost(&self) -> usize {
        self.commands
            .iter()
            .map(|(_, c)| match c {
                Command::Batch { reqs, .. } => 1 + reqs.len(),
                _ => 1,
            })
            .sum()
    }

    /// Executes every command in order, recording responses.
    pub fn run(&mut self, factory: BackendFactory) {
        let commands = std::mem::take(&mut self.commands);
        for (i, cmd) in &commands {
            let rsps = apply_command(&mut self.slot, factory, cmd);
            self.responses.push((*i, rsps));
        }
        self.commands = commands;
    }
}

fn unknown(sid: SessionId) -> Response {
    Response::Error {
        sid,
        seq: 0,
        code: ErrorCode::UnknownSession,
        detail: format!("session {sid} is not open"),
    }
}

/// Builds a fresh backend and restores `blob` into it; the session's
/// options are re-applied so the trace stream continues seamlessly.
/// Nothing is mutated on failure — the caller keeps its current state.
fn build_restored(
    meta: &SessionMeta,
    blob: &[u8],
    factory: BackendFactory,
) -> Result<Box<dyn MemoryBackend>, String> {
    let mut backend = factory(meta.kind, &meta.config()).map_err(|e| e.to_string())?;
    match backend.restore_snapshot(blob) {
        Ok(true) => {
            backend.configure_session(meta.session_options());
            Ok(backend)
        }
        Ok(false) => Err("backend does not support snapshot restore".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// Rehydrates a parked slot in place. Returns the failure response if
/// the blob would not restore (the slot stays parked).
fn rehydrate(
    slot: &mut Option<SessionSlot>,
    sid: SessionId,
    factory: BackendFactory,
) -> Option<Response> {
    if !matches!(slot, Some(SessionSlot::Parked { .. })) {
        return None;
    }
    let Some(SessionSlot::Parked { blob, mut meta }) = slot.take() else {
        return None;
    };
    match build_restored(&meta, &blob, factory) {
        Ok(backend) => {
            *slot = Some(SessionSlot::Warm { backend, meta });
            None
        }
        Err(detail) => {
            let seq = meta.next_seq();
            *slot = Some(SessionSlot::Parked { blob, meta });
            Some(Response::Error {
                sid,
                seq,
                code: ErrorCode::RestoreRejected,
                detail,
            })
        }
    }
}

/// Ensures the slot holds a warm session, rehydrating if parked.
fn require_warm(
    slot: &mut Option<SessionSlot>,
    sid: SessionId,
    factory: BackendFactory,
) -> Result<(&mut Box<dyn MemoryBackend>, &mut SessionMeta), Box<Response>> {
    if slot.is_none() {
        return Err(Box::new(unknown(sid)));
    }
    if let Some(failure) = rehydrate(slot, sid, factory) {
        return Err(Box::new(failure));
    }
    match slot {
        Some(SessionSlot::Warm { backend, meta }) => Ok((backend, meta)),
        _ => Err(Box::new(unknown(sid))),
    }
}

/// Interprets one command against a session slot, returning the
/// responses it produces (in stream order). This is deterministic:
/// identical slot state and command always yield identical responses
/// and identical final state, on any worker.
///
/// Commands never half-apply: `Restore` validates the blob into a
/// scratch backend and swaps only on success; every failure path leaves
/// the slot exactly as it was and answers with a typed
/// [`Response::Error`].
pub fn apply_command(
    slot: &mut Option<SessionSlot>,
    factory: BackendFactory,
    cmd: &Command,
) -> Vec<Response> {
    let sid = cmd.sid();
    let mut out = Vec::new();
    match cmd {
        Command::Open {
            kind, dimms, opts, ..
        } => match slot {
            Some(SessionSlot::Warm { meta, .. }) | Some(SessionSlot::Parked { meta, .. }) => {
                out.push(Response::Error {
                    sid,
                    seq: meta.next_seq(),
                    code: ErrorCode::DuplicateSession,
                    detail: format!("session {sid} is already open"),
                });
            }
            None => {
                let mut meta = SessionMeta {
                    kind: *kind,
                    dimms: *dimms,
                    opts: *opts,
                    seq: 0,
                    full_options: false,
                    trace: opts.trace.then(TraceShared::new),
                };
                match factory(*kind, &meta.config()) {
                    Ok(mut backend) => {
                        meta.full_options = backend.configure_session(meta.session_options());
                        out.push(Response::Opened {
                            sid,
                            seq: meta.next_seq(),
                            label: backend.label(),
                            full_options: meta.full_options,
                        });
                        *slot = Some(SessionSlot::Warm { backend, meta });
                    }
                    Err(e) => out.push(Response::Error {
                        sid,
                        seq: 0,
                        code: ErrorCode::BadBackendConfig,
                        detail: e.to_string(),
                    }),
                }
            }
        },

        Command::Batch { reqs, .. } => match require_warm(slot, sid, factory) {
            Err(failure) => out.push(*failure),
            Ok((backend, meta)) => {
                let mut completions = Vec::with_capacity(reqs.len());
                for &d in reqs {
                    completions.push(backend.execute(d));
                }
                let bytes = meta.take_trace_bytes();
                if !bytes.is_empty() {
                    out.push(Response::TraceChunk {
                        sid,
                        seq: meta.next_seq(),
                        bytes,
                    });
                }
                out.push(Response::BatchDone {
                    sid,
                    seq: meta.next_seq(),
                    completions,
                });
            }
        },

        Command::Fault { plan, .. } => match require_warm(slot, sid, factory) {
            Err(failure) => out.push(*failure),
            Ok((backend, meta)) => match backend.inject_power_loss(plan) {
                Some(image) => {
                    let c = image.counters;
                    out.push(Response::FaultReport {
                        sid,
                        seq: meta.next_seq(),
                        tracked_lines: c.tracked_lines,
                        durable_lines: c.durable_lines,
                        volatile_lines: c.volatile_lines,
                        adr_drained_lines: c.adr_drained_lines,
                        supercap_exceeded: c.supercap_exceeded,
                    });
                }
                None => out.push(Response::Error {
                    sid,
                    seq: meta.next_seq(),
                    code: ErrorCode::Unsupported,
                    detail: "backend does not model power-fail injection".to_owned(),
                }),
            },
        },

        Command::Save { .. } => match slot {
            None => out.push(unknown(sid)),
            // A parked session *is* a snapshot — answer from the blob
            // without paying for a rehydrate.
            Some(SessionSlot::Parked { blob, meta }) => {
                let blob = blob.clone();
                out.push(Response::SnapshotBlob {
                    sid,
                    seq: meta.next_seq(),
                    blob,
                });
            }
            Some(SessionSlot::Warm { backend, meta }) => match backend.save_snapshot() {
                Some(blob) => out.push(Response::SnapshotBlob {
                    sid,
                    seq: meta.next_seq(),
                    blob,
                }),
                None => out.push(Response::Error {
                    sid,
                    seq: meta.next_seq(),
                    code: ErrorCode::Unsupported,
                    detail: "backend does not support checkpointing".to_owned(),
                }),
            },
        },

        Command::Restore { blob, .. } => match slot.take() {
            None => out.push(unknown(sid)),
            Some(prior) => {
                // Validate into a scratch backend first; the live
                // session is swapped only on success, never half-way.
                let meta = match &prior {
                    SessionSlot::Warm { meta, .. } | SessionSlot::Parked { meta, .. } => meta,
                };
                match build_restored(meta, blob, factory) {
                    Ok(backend) => {
                        let (SessionSlot::Warm { mut meta, .. }
                        | SessionSlot::Parked { mut meta, .. }) = prior;
                        out.push(Response::Opened {
                            sid,
                            seq: meta.next_seq(),
                            label: backend.label(),
                            full_options: meta.full_options,
                        });
                        *slot = Some(SessionSlot::Warm { backend, meta });
                    }
                    Err(detail) => {
                        let mut prior = prior;
                        let (SessionSlot::Warm { meta, .. } | SessionSlot::Parked { meta, .. }) =
                            &mut prior;
                        out.push(Response::Error {
                            sid,
                            seq: meta.next_seq(),
                            code: ErrorCode::RestoreRejected,
                            detail,
                        });
                        *slot = Some(prior);
                    }
                }
            }
        },

        Command::Migrate { .. } => match slot.take() {
            None => out.push(unknown(sid)),
            // Already parked: report the existing blob (idempotent).
            Some(SessionSlot::Parked { blob, mut meta }) => {
                out.push(Response::Migrated {
                    sid,
                    seq: meta.next_seq(),
                    blob_len: blob.len() as u64,
                });
                *slot = Some(SessionSlot::Parked { blob, meta });
            }
            Some(SessionSlot::Warm { backend, mut meta }) => match backend.save_snapshot() {
                Some(blob) => {
                    out.push(Response::Migrated {
                        sid,
                        seq: meta.next_seq(),
                        blob_len: blob.len() as u64,
                    });
                    *slot = Some(SessionSlot::Parked { blob, meta });
                }
                None => {
                    out.push(Response::Error {
                        sid,
                        seq: meta.next_seq(),
                        code: ErrorCode::Unsupported,
                        detail: "backend does not support checkpointing".to_owned(),
                    });
                    *slot = Some(SessionSlot::Warm { backend, meta });
                }
            },
        },

        Command::Close { .. } => {
            if slot.is_none() {
                out.push(unknown(sid));
                return out;
            }
            if let Some(failure) = rehydrate(slot, sid, factory) {
                out.push(failure);
                return out;
            }
            let Some(SessionSlot::Warm {
                mut backend,
                mut meta,
            }) = slot.take()
            else {
                out.push(unknown(sid));
                return out;
            };
            backend.drain();
            let counters = backend.counters();
            let bytes = meta.take_trace_bytes();
            if !bytes.is_empty() {
                out.push(Response::TraceChunk {
                    sid,
                    seq: meta.next_seq(),
                    bytes,
                });
            }
            out.push(Response::Closed {
                sid,
                seq: meta.next_seq(),
                counters,
            });
        }
    }
    out
}
