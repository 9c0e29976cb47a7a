//! **nvsim-serve** — a concurrent, deterministic simulation service.
//!
//! Multiplexes many independent simulation *sessions* (each a
//! [`MemoryBackend`](nvsim_types::MemoryBackend) of any
//! [`BackendKind`](nvsim_types::BackendKind)) behind a compact binary
//! wire protocol with batched ingestion, streaming JSONL trace output,
//! power-fail injection, and session snapshot / restore / migration.
//!
//! The three load-bearing promises:
//!
//! * **Determinism** — the same command script produces byte-identical
//!   response streams at any worker count. Sessions are isolated, each
//!   session's commands run serially, and responses are merged by
//!   command input order ([`server`] docs spell out the argument).
//! * **Robustness** — malformed input never panics and never
//!   half-applies: every framing or field error is a typed
//!   [`ProtocolError`] with a stream offset, and a frame only acts once
//!   fully decoded ([`protocol`] docs).
//! * **Bounded warm state** — an LRU parks cold sessions as `NVSS`
//!   snapshot blobs and rehydrates them on demand, on whichever worker
//!   next touches them ([`registry`] docs); the same mechanism backs
//!   explicit [`Command::Migrate`].
//!
//! # Example
//!
//! ```
//! use nvsim_serve::protocol::{Command, OpenOptions, Response};
//! use nvsim_serve::{decode_responses, Server, ServerConfig};
//! use nvsim_types::backend::FixedLatencyBackend;
//! use nvsim_types::{Addr, BackendConfig, BackendKind, ConfigError, MemoryBackend, RequestDesc};
//!
//! fn factory(
//!     kind: BackendKind,
//!     cfg: &BackendConfig,
//! ) -> Result<Box<dyn MemoryBackend>, ConfigError> {
//!     match kind {
//!         BackendKind::FixedLatency => Ok(Box::new(FixedLatencyBackend::new(
//!             cfg.fixed_read_latency,
//!             cfg.fixed_write_latency,
//!         ))),
//!         _ => Err(ConfigError::new("backend.kind", "example builds `fixed` only")),
//!     }
//! }
//!
//! let mut script = Vec::new();
//! Command::Open {
//!     sid: 1,
//!     kind: BackendKind::FixedLatency,
//!     dimms: 1,
//!     opts: OpenOptions::default(),
//! }
//! .encode_frame(&mut script);
//! Command::Batch {
//!     sid: 1,
//!     reqs: vec![RequestDesc::load(Addr::new(0x40))],
//! }
//! .encode_frame(&mut script);
//! Command::Close { sid: 1 }.encode_frame(&mut script);
//!
//! let mut server = Server::new(factory, ServerConfig::default());
//! let reply = server.run_script(&script)?;
//! let responses = decode_responses(&reply)?;
//! assert!(matches!(responses[0], Response::Opened { sid: 1, .. }));
//! # Ok::<(), nvsim_serve::ProtocolError>(())
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::borrow_as_ptr,
    clippy::ref_as_ptr,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod daemon;
pub mod executor;
pub mod protocol;
pub mod registry;
pub mod scripts;
pub mod server;
pub mod session;
pub mod transport;

pub use daemon::{client_round_trip, serve_addr, serve_listener, serve_stream, DaemonReport};
pub use protocol::{
    decode_commands, decode_responses, Command, ErrorCode, OpenOptions, ProtocolError,
    ProtocolErrorKind, Response, SessionId,
};
pub use server::{Server, ServerConfig};
pub use session::BackendFactory;
pub use transport::{ConnId, StreamError, TransportConfig, TransportEngine, TransportMux};

#[cfg(test)]
mod tests {
    use crate::protocol::{Command, ErrorCode, OpenOptions, Response};
    use crate::{decode_responses, Server, ServerConfig};
    use nvsim_types::backend::FixedLatencyBackend;
    use nvsim_types::{
        Addr, BackendConfig, BackendKind, ConfigError, MemoryBackend, RequestDesc, Time,
    };

    fn factory(
        kind: BackendKind,
        cfg: &BackendConfig,
    ) -> Result<Box<dyn MemoryBackend>, ConfigError> {
        match kind {
            BackendKind::FixedLatency => Ok(Box::new(FixedLatencyBackend::new(
                cfg.fixed_read_latency,
                cfg.fixed_write_latency,
            ))),
            _ => Err(ConfigError::new(
                "backend.kind",
                "test factory only builds `fixed`",
            )),
        }
    }

    fn open(sid: u64) -> Command {
        Command::Open {
            sid,
            kind: BackendKind::FixedLatency,
            dimms: 1,
            opts: OpenOptions::default(),
        }
    }

    fn script(cmds: &[Command]) -> Vec<u8> {
        let mut buf = Vec::new();
        for c in cmds {
            c.encode_frame(&mut buf);
        }
        buf
    }

    #[test]
    fn open_batch_close_happy_path() {
        let mut server = Server::new(factory, ServerConfig::default());
        let reply = server
            .run_script(&script(&[
                open(1),
                Command::Batch {
                    sid: 1,
                    reqs: vec![
                        RequestDesc::load(Addr::new(0x40)),
                        RequestDesc::store(Addr::new(0x80)),
                    ],
                },
                Command::Close { sid: 1 },
            ]))
            .unwrap();
        let rsps = decode_responses(&reply).unwrap();
        assert_eq!(rsps.len(), 3);
        assert!(matches!(
            &rsps[0],
            Response::Opened {
                sid: 1,
                seq: 0,
                full_options: true,
                ..
            }
        ));
        match &rsps[1] {
            Response::BatchDone {
                sid: 1,
                seq: 1,
                completions,
            } => {
                // Fixed backend, serial execution: 100ns, then +300ns.
                assert_eq!(completions, &vec![Time::from_ns(100), Time::from_ns(400)]);
            }
            other => panic!("expected BatchDone, got {other:?}"),
        }
        match &rsps[2] {
            Response::Closed {
                sid: 1,
                seq: 2,
                counters,
            } => {
                assert_eq!(counters.bus_reads, 1);
                assert_eq!(counters.bus_writes, 1);
            }
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(server.registry().is_empty());
    }

    #[test]
    fn unknown_and_duplicate_sessions_answer_typed_errors() {
        let mut server = Server::new(factory, ServerConfig::default());
        let reply = server
            .run_script(&script(&[
                Command::Save { sid: 9 },
                open(1),
                open(1),
                Command::Open {
                    sid: 2,
                    kind: BackendKind::Vans,
                    dimms: 1,
                    opts: OpenOptions::default(),
                },
            ]))
            .unwrap();
        let rsps = decode_responses(&reply).unwrap();
        assert!(matches!(
            rsps[0],
            Response::Error {
                sid: 9,
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        assert!(matches!(rsps[1], Response::Opened { sid: 1, .. }));
        assert!(matches!(
            rsps[2],
            Response::Error {
                sid: 1,
                code: ErrorCode::DuplicateSession,
                ..
            }
        ));
        assert!(matches!(
            rsps[3],
            Response::Error {
                sid: 2,
                code: ErrorCode::BadBackendConfig,
                ..
            }
        ));
        assert_eq!(server.registry().len(), 1);
    }

    #[test]
    fn save_restore_rewinds_a_session() {
        let mut server = Server::new(factory, ServerConfig::default());
        let load = |a: u64| RequestDesc::load(Addr::new(a));
        let reply = server
            .run_script(&script(&[
                open(1),
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x40)],
                },
                Command::Save { sid: 1 },
            ]))
            .unwrap();
        let rsps = decode_responses(&reply).unwrap();
        let blob = match &rsps[2] {
            Response::SnapshotBlob { blob, .. } => blob.clone(),
            other => panic!("expected SnapshotBlob, got {other:?}"),
        };

        // Run further, then rewind to the checkpoint: the next batch
        // must complete at the same times as the first run-after-save.
        let reply = server
            .run_script(&script(&[
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x80)],
                },
                Command::Restore {
                    sid: 1,
                    blob: blob.clone(),
                },
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x80)],
                },
            ]))
            .unwrap();
        let rsps = decode_responses(&reply).unwrap();
        let first = match &rsps[0] {
            Response::BatchDone { completions, .. } => completions.clone(),
            other => panic!("expected BatchDone, got {other:?}"),
        };
        assert!(matches!(rsps[1], Response::Opened { sid: 1, .. }));
        let after_restore = match &rsps[2] {
            Response::BatchDone { completions, .. } => completions.clone(),
            other => panic!("expected BatchDone, got {other:?}"),
        };
        assert_eq!(first, after_restore, "restore must rewind the clock");

        // A corrupt blob is rejected and leaves the session usable.
        let mut bad = blob;
        bad[0] ^= 0xFF;
        let reply = server
            .run_script(&script(&[
                Command::Restore { sid: 1, blob: bad },
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0xC0)],
                },
            ]))
            .unwrap();
        let rsps = decode_responses(&reply).unwrap();
        assert!(matches!(
            rsps[0],
            Response::Error {
                code: ErrorCode::RestoreRejected,
                ..
            }
        ));
        assert!(matches!(rsps[1], Response::BatchDone { .. }));
    }

    #[test]
    fn migrate_parks_and_rehydrates_transparently() {
        let mut server = Server::new(factory, ServerConfig::default());
        let load = |a: u64| RequestDesc::load(Addr::new(a));

        // Uninterrupted reference run.
        let mut reference = Server::new(factory, ServerConfig::default());
        let uninterrupted = reference
            .run_script(&script(&[
                open(1),
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x40)],
                },
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x80)],
                },
                Command::Close { sid: 1 },
            ]))
            .unwrap();

        // Same run with a migrate in the middle.
        let migrated = server
            .run_script(&script(&[
                open(1),
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x40)],
                },
                Command::Migrate { sid: 1 },
                Command::Batch {
                    sid: 1,
                    reqs: vec![load(0x80)],
                },
                Command::Close { sid: 1 },
            ]))
            .unwrap();

        // Semantic equality: drop the Migrated frame, then the two
        // streams must agree on every completion and counter (seq
        // numbers shift by one past the migration, so compare content).
        let a = decode_responses(&uninterrupted).unwrap();
        let b: Vec<_> = decode_responses(&migrated)
            .unwrap()
            .into_iter()
            .filter(|r| !matches!(r, Response::Migrated { .. }))
            .collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (
                    Response::BatchDone {
                        completions: cx, ..
                    },
                    Response::BatchDone {
                        completions: cy, ..
                    },
                ) => assert_eq!(cx, cy),
                (Response::Closed { counters: nx, .. }, Response::Closed { counters: ny, .. }) => {
                    assert_eq!(nx, ny)
                }
                (Response::Opened { .. }, Response::Opened { .. }) => {}
                other => panic!("stream shapes diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn lru_parks_cold_sessions_without_changing_responses() {
        let sids: Vec<u64> = (1..=6).collect();
        let mut opens: Vec<Command> = sids.iter().map(|&s| open(s)).collect();
        for &s in &sids {
            opens.push(Command::Batch {
                sid: s,
                reqs: vec![RequestDesc::load(Addr::new(0x40 * s))],
            });
        }
        let batch2: Vec<Command> = sids
            .iter()
            .map(|&s| Command::Batch {
                sid: s,
                reqs: vec![RequestDesc::load(Addr::new(0x40 * s + 0x40))],
            })
            .collect();

        // warm_capacity 2: four of the six sessions park between
        // scripts and must rehydrate on the second batch.
        let mut small = Server::new(
            factory,
            ServerConfig {
                workers: 1,
                warm_capacity: 2,
            },
        );
        let mut roomy = Server::new(factory, ServerConfig::default());

        let first_small = small.run_script(&script(&opens)).unwrap();
        let first_roomy = roomy.run_script(&script(&opens)).unwrap();
        assert_eq!(first_small, first_roomy);
        assert_eq!(small.registry().warm_count(), 2);
        assert_eq!(small.registry().parked_count(), 4);
        assert_eq!(roomy.registry().parked_count(), 0);

        let second_small = small.run_script(&script(&batch2)).unwrap();
        let second_roomy = roomy.run_script(&script(&batch2)).unwrap();
        assert_eq!(
            second_small, second_roomy,
            "parking/rehydration must not change response bytes"
        );
    }

    #[test]
    fn worker_count_never_changes_bytes() {
        let mut cmds = Vec::new();
        for sid in 1..=5u64 {
            cmds.push(open(sid));
        }
        for round in 0..3u64 {
            for sid in 1..=5u64 {
                cmds.push(Command::Batch {
                    sid,
                    reqs: (0..8)
                        .map(|i| RequestDesc::load(Addr::new((round * 8 + i) * 64 + sid)))
                        .collect(),
                });
            }
        }
        for sid in 1..=5u64 {
            cmds.push(Command::Close { sid });
        }
        let script = script(&cmds);

        let reference = Server::new(factory, ServerConfig::with_workers(1))
            .run_script(&script)
            .unwrap();
        for workers in [2, 4, 8] {
            let got = Server::new(factory, ServerConfig::with_workers(workers))
                .run_script(&script)
                .unwrap();
            assert_eq!(got, reference, "workers={workers} diverged");
        }
    }

    #[test]
    fn malformed_script_executes_nothing() {
        let mut server = Server::new(factory, ServerConfig::default());
        let mut buf = script(&[open(1)]);
        buf.push(0x05); // start of a frame that never completes
        assert!(server.run_script(&buf).is_err());
        assert!(server.registry().is_empty(), "nothing may have executed");
    }
}
