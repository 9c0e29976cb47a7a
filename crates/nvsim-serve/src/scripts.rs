//! Canonical workload scripts: deterministic command-stream builders
//! shared by the benchmark's serve-socket workload, the daemon smoke
//! client and the transport tests.
//!
//! Everything here is a pure function of its arguments (the batch
//! generator seeds a [`DetRng`] from `(sid, round)`), so any two
//! processes — the in-process oracle and a daemon across a socket —
//! build byte-identical scripts and can compare response streams
//! directly.

use crate::protocol::{Command, OpenOptions};
use nvsim_types::{Addr, BackendKind, DetRng, FaultPlan, MemOp, RequestDesc};

/// One deterministic mixed batch (stores, non-temporal stores, fences,
/// loads), a pure function of `(sid, round)`.
pub fn batch_for(sid: u64, round: u64, len: u64) -> Vec<RequestDesc> {
    let mut rng = DetRng::seed_from(0x5e7e ^ (sid << 16) ^ round);
    (0..len)
        .map(|i| {
            let addr = Addr::new(rng.range_u64(0, (16 << 20) / 64) * 64);
            match i % 4 {
                0 => RequestDesc::new(addr, 64, MemOp::Store),
                1 => RequestDesc::new(addr, 64, MemOp::NtStore),
                2 if i % 12 == 2 => RequestDesc::fence(),
                _ => RequestDesc::load(addr),
            }
        })
        .collect()
}

/// Opens session `sid` over the backend the fleet assigns it (cycling
/// through every [`BackendKind`]).
pub fn open_cmd(sid: u64) -> Command {
    Command::Open {
        sid,
        kind: BackendKind::ALL[(sid as usize) % BackendKind::ALL.len()],
        dimms: 1,
        opts: OpenOptions::default(),
    }
}

/// Encodes commands into one wire script.
pub fn encode(cmds: &[Command]) -> Vec<u8> {
    let mut buf = Vec::new();
    for c in cmds {
        c.encode_frame(&mut buf);
    }
    buf
}

/// The smoke script: every command shape the service exposes (opens,
/// batches, save, migrate, fault injection, closes) across six sessions.
/// The daemon smoke job replays it through a real socket at different
/// worker counts and byte-compares the replies.
pub fn smoke_script() -> Vec<u8> {
    let mut cmds: Vec<Command> = (0..6).map(open_cmd).collect();
    for round in 0..2u64 {
        for sid in 0..6u64 {
            cmds.push(Command::Batch {
                sid,
                reqs: batch_for(sid, 100 + round, 24),
            });
        }
        if round == 0 {
            cmds.push(Command::Save { sid: 1 });
            cmds.push(Command::Migrate { sid: 2 });
            cmds.push(Command::Fault {
                sid: 0,
                plan: FaultPlan::at_insertion(8),
            });
        }
    }
    cmds.extend((0..6u64).map(|sid| Command::Close { sid }));
    encode(&cmds)
}

/// A small per-connection workload for the multi-connection transport
/// tests: open, `rounds` batches, save, close — all deterministic in
/// `(seed, rounds, batch)`.
pub fn connection_script(seed: u64, rounds: u64, batch: u64) -> Vec<u8> {
    let sid = seed % 7;
    let mut cmds = vec![open_cmd(sid)];
    for round in 0..rounds {
        cmds.push(Command::Batch {
            sid,
            reqs: batch_for(seed, round, batch),
        });
    }
    cmds.push(Command::Save { sid });
    cmds.push(Command::Close { sid });
    encode(&cmds)
}
