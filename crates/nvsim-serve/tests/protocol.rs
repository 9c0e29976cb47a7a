//! Fuzz-style robustness properties of the wire protocol and the
//! server: arbitrary junk bytes, single-byte corruption of valid
//! streams, truncation at every cut point, oversized length prefixes —
//! always a typed [`ProtocolError`], never a panic, never a
//! half-applied command.

use nvsim_serve::protocol::{write_frame, MAX_FRAME_LEN};
use nvsim_serve::{
    decode_commands, decode_responses, Command, OpenOptions, ProtocolErrorKind, Server,
    ServerConfig,
};
use nvsim_types::backend::FixedLatencyBackend;
use nvsim_types::{
    Addr, BackendConfig, BackendKind, ConfigError, FaultPlan, MemOp, MemoryBackend, RequestDesc,
};
use proptest::prelude::*;

fn factory(kind: BackendKind, cfg: &BackendConfig) -> Result<Box<dyn MemoryBackend>, ConfigError> {
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

/// Maps a generated `(variant, op, value)` triple onto a command, so
/// property cases sweep every command shape.
fn command_from(sid: u64, variant: u64, op: u64, value: u64) -> Command {
    match variant % 7 {
        0 => Command::Open {
            sid,
            kind: BackendKind::ALL[(value % 8) as usize],
            dimms: if value.is_multiple_of(2) { 1 } else { 6 },
            opts: OpenOptions {
                trace: value.is_multiple_of(3),
                durability: value.is_multiple_of(5),
                snapshot_interval: value,
            },
        },
        1 => Command::Batch {
            sid,
            reqs: (0..(op % 6))
                .map(|i| {
                    let mem_op = match (op + i) % 5 {
                        0 => MemOp::Load,
                        1 => MemOp::Store,
                        2 => MemOp::StoreClwb,
                        3 => MemOp::NtStore,
                        _ => return RequestDesc::fence(),
                    };
                    RequestDesc::new(Addr::new(value.wrapping_add(i * 64)), 64, mem_op)
                })
                .collect(),
        },
        2 => Command::Fault {
            sid,
            plan: match value % 3 {
                0 => FaultPlan::at_insertion(value),
                1 => FaultPlan::probabilistic(value),
                _ => FaultPlan::at_insertion(value / 2),
            },
        },
        3 => Command::Save { sid },
        4 => Command::Restore {
            sid,
            blob: value.to_le_bytes().to_vec(),
        },
        5 => Command::Migrate { sid },
        _ => Command::Close { sid },
    }
}

fn encode(cmds: &[Command]) -> Vec<u8> {
    let mut buf = Vec::new();
    for c in cmds {
        c.encode_frame(&mut buf);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary junk decodes to a typed error or a (vacuously) valid
    /// command list; it never panics, and a server fed the junk either
    /// rejects it outright or executes only fully-decoded frames.
    #[test]
    fn random_junk_never_panics(
        raw in prop::collection::vec(0u64..256, 0..200)
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = decode_commands(&bytes);
        let _ = decode_responses(&bytes);
        let mut server = Server::new(factory, ServerConfig::default());
        if server.run_script(&bytes).is_err() {
            prop_assert!(server.registry().is_empty());
        }
    }

    /// Random command scripts roundtrip exactly through the wire
    /// encoding.
    #[test]
    fn random_scripts_roundtrip(
        tuples in prop::collection::vec((0u64..6, 0u64..7, 0u64..8, 0u64..(1 << 20)), 1..16)
    ) {
        let cmds: Vec<Command> = tuples
            .iter()
            .map(|&(sid, variant, op, value)| command_from(sid, variant, op, value))
            .collect();
        let buf = encode(&cmds);
        prop_assert_eq!(decode_commands(&buf).expect("well-formed"), cmds);
    }

    /// Every truncation of a valid stream either yields a clean prefix
    /// (cut on a frame boundary) or a typed `Truncated` error whose
    /// offset is within the received bytes — never a panic.
    #[test]
    fn every_truncation_errors_cleanly(
        tuples in prop::collection::vec((0u64..4, 0u64..7, 0u64..8, 0u64..4096), 1..8)
    ) {
        let cmds: Vec<Command> = tuples
            .iter()
            .map(|&(sid, variant, op, value)| command_from(sid, variant, op, value))
            .collect();
        let buf = encode(&cmds);
        for cut in 0..buf.len() {
            match decode_commands(&buf[..cut]) {
                Ok(prefix) => prop_assert!(prefix.len() < cmds.len()),
                Err(e) => {
                    prop_assert!(
                        matches!(
                            e.kind,
                            ProtocolErrorKind::Truncated { .. }
                        ),
                        "cut {cut}: unexpected {e:?}"
                    );
                    prop_assert!(e.offset <= cut);
                }
            }
        }
    }

    /// Flipping any single byte of a valid stream never panics: the
    /// stream decodes to a typed error or to some well-formed command
    /// list, and a server replaying it never half-applies a frame.
    #[test]
    fn single_byte_corruption_never_panics(
        tuples in prop::collection::vec((0u64..4, 0u64..7, 0u64..8, 0u64..4096), 1..6),
        pos_seed in 0u64..(1 << 30),
        flip in 1u64..256
    ) {
        let cmds: Vec<Command> = tuples
            .iter()
            .map(|&(sid, variant, op, value)| command_from(sid, variant, op, value))
            .collect();
        let mut buf = encode(&cmds);
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip as u8;
        let _ = decode_commands(&buf);
        let mut server = Server::new(factory, ServerConfig::default());
        let _ = server.run_script(&buf);
        // Whatever happened, the server is still consistent and usable.
        let mut probe = Vec::new();
        Command::Open {
            sid: u64::MAX,
            kind: BackendKind::FixedLatency,
            dimms: 1,
            opts: OpenOptions::default(),
        }
        .encode_frame(&mut probe);
        let reply = server.run_script(&probe).expect("fresh frame after corruption");
        prop_assert!(!reply.is_empty());
    }

    /// Oversized or overflowing length prefixes are rejected with the
    /// right error kind, for any declared length past the cap.
    #[test]
    fn oversized_prefixes_rejected(extra in 1u64..(1 << 40)) {
        let declared = MAX_FRAME_LEN as u64 + extra;
        let mut w = nvsim_types::SnapshotWriter::new();
        w.put_u64(declared);
        let buf = w.into_bytes();
        let err = decode_commands(&buf).expect_err("must reject");
        prop_assert!(matches!(
            err.kind,
            ProtocolErrorKind::FrameTooLarge { declared: d } if d == declared
        ));
    }
}

/// A varint length prefix longer than any valid `u64` is an overflow,
/// not a truncation.
#[test]
fn varint_overflow_in_length_prefix() {
    let buf = [0xFF; 11];
    let err = decode_commands(&buf).expect_err("must reject");
    assert_eq!(err.kind, ProtocolErrorKind::VarintOverflow);
}

/// A frame whose payload is cut mid-varint inside a field (not just the
/// frame header) still reports a typed error.
#[test]
fn payload_truncated_inside_field_rejected() {
    let mut payload = Vec::new();
    let mut w = nvsim_types::SnapshotWriter::new();
    w.put_u8(0x02); // Batch tag
    w.put_u64(1); // sid
    payload.extend_from_slice(&w.into_bytes());
    payload.push(0x80); // dangling varint continuation byte for the count
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload);
    let err = decode_commands(&buf).expect_err("must reject");
    assert!(matches!(err.kind, ProtocolErrorKind::Truncated { .. }));
}
