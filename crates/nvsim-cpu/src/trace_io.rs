//! Binary trace capture and replay ("trace mode").
//!
//! The paper runs VANS stand-alone in *trace mode*: memory traces are
//! captured once and replayed into the simulator (§IV-C). This module
//! provides the trace container: a compact binary encoding of
//! [`TraceOp`] streams (tag byte + LEB128 varints, delta-coded
//! addresses), so multi-million-op workload traces can be written to
//! disk and replayed deterministically. The varints are those of
//! [`nvsim_types::snapshot`], the codec checkpoints and the wire protocol
//! use.

use crate::trace::TraceOp;
use bytes::Bytes;
use nvsim_types::snapshot::{SnapshotError, SnapshotErrorKind, SnapshotReader, SnapshotWriter};
use nvsim_types::VirtAddr;
use std::fmt;

/// Error decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace decode error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for TraceDecodeError {}

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_CHASE: u8 = 2;
const TAG_CHASE_MKPT: u8 = 3;
const TAG_STORE: u8 = 4;
const TAG_NT_STORE: u8 = 5;
const TAG_CLWB: u8 = 6;
const TAG_FENCE: u8 = 7;
/// Magic header: "NVTR" + version 1.
const MAGIC: &[u8; 5] = b"NVTR\x01";

/// Encodes a trace into the binary container format.
///
/// Addresses are delta-coded against the previous memory op's address,
/// which makes sequential and strided traces extremely compact. Deltas
/// wrap modulo 2^64, so any address follows any other.
///
/// # Example
///
/// ```
/// use nvsim_cpu::trace_io::{encode, decode};
/// use nvsim_cpu::TraceOp;
/// use nvsim_types::VirtAddr;
///
/// let trace = vec![
///     TraceOp::compute(100),
///     TraceOp::load(VirtAddr::new(0x1000)),
///     TraceOp::store(VirtAddr::new(0x1040)),
///     TraceOp::Fence,
/// ];
/// let bytes = encode(&trace);
/// assert_eq!(decode(&bytes)?, trace);
/// # Ok::<(), nvsim_cpu::trace_io::TraceDecodeError>(())
/// ```
pub fn encode(trace: &[TraceOp]) -> Bytes {
    let mut w = SnapshotWriter::new();
    for &b in MAGIC {
        w.put_u8(b);
    }
    w.put_usize(trace.len());
    let mut prev_addr: u64 = 0;
    for op in trace {
        let (tag, vaddr) = match *op {
            TraceOp::Compute { n } => {
                w.put_u8(TAG_COMPUTE);
                w.put_u32(n);
                continue;
            }
            TraceOp::Fence => {
                w.put_u8(TAG_FENCE);
                continue;
            }
            TraceOp::Load {
                vaddr,
                dependent,
                mkpt,
            } => {
                let tag = match (dependent, mkpt) {
                    (false, _) => TAG_LOAD,
                    (true, false) => TAG_CHASE,
                    (true, true) => TAG_CHASE_MKPT,
                };
                (tag, vaddr)
            }
            TraceOp::Store {
                vaddr,
                non_temporal,
            } => (
                if non_temporal {
                    TAG_NT_STORE
                } else {
                    TAG_STORE
                },
                vaddr,
            ),
            TraceOp::Clwb { vaddr } => (TAG_CLWB, vaddr),
        };
        w.put_u8(tag);
        // The wrapped difference, read as two's complement: the shortest
        // zigzag varint for a step in either direction.
        w.put_i64(vaddr.raw().wrapping_sub(prev_addr) as i64);
        prev_addr = vaddr.raw();
    }
    Bytes::from(w.into_bytes())
}

/// Decodes a binary trace container.
///
/// # Errors
///
/// Returns a [`TraceDecodeError`] on bad magic, truncation, an
/// over-long varint, or unknown tags.
pub fn decode(data: &[u8]) -> Result<Vec<TraceOp>, TraceDecodeError> {
    let Some(ops) = data.strip_prefix(MAGIC.as_slice()) else {
        return Err(TraceDecodeError {
            offset: 0,
            reason: "bad magic or unsupported version",
        });
    };
    decode_ops(&mut SnapshotReader::new(ops)).map_err(|e| TraceDecodeError {
        offset: MAGIC.len() + e.offset,
        reason: match e.kind {
            SnapshotErrorKind::VarintOverflow => "varint overflow",
            SnapshotErrorKind::Invalid(reason) => reason,
            // Past those two, the reader's varints fail only by running
            // off the end.
            _ => "truncated varint",
        },
    })
}

/// The op count and ops that follow the magic header.
fn decode_ops(r: &mut SnapshotReader<'_>) -> Result<Vec<TraceOp>, SnapshotError> {
    let count = r.get_usize()?;
    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut prev_addr: u64 = 0;
    for _ in 0..count {
        let tag = r
            .get_u8()
            .map_err(|e| SnapshotError::invalid(e.offset, "truncated op stream"))?;
        let mut addr = |r: &mut SnapshotReader<'_>| -> Result<VirtAddr, SnapshotError> {
            prev_addr = prev_addr.wrapping_add(r.get_i64()? as u64);
            Ok(VirtAddr::new(prev_addr))
        };
        let op = match tag {
            TAG_COMPUTE => {
                let n = r.get_u64()?;
                TraceOp::Compute {
                    n: u32::try_from(n).map_err(|_| r.invalid("compute count exceeds u32"))?,
                }
            }
            TAG_LOAD => TraceOp::Load {
                vaddr: addr(r)?,
                dependent: false,
                mkpt: false,
            },
            TAG_CHASE => TraceOp::Load {
                vaddr: addr(r)?,
                dependent: true,
                mkpt: false,
            },
            TAG_CHASE_MKPT => TraceOp::Load {
                vaddr: addr(r)?,
                dependent: true,
                mkpt: true,
            },
            TAG_STORE => TraceOp::Store {
                vaddr: addr(r)?,
                non_temporal: false,
            },
            TAG_NT_STORE => TraceOp::Store {
                vaddr: addr(r)?,
                non_temporal: true,
            },
            TAG_CLWB => TraceOp::Clwb { vaddr: addr(r)? },
            TAG_FENCE => TraceOp::Fence,
            _ => return Err(r.invalid("unknown op tag")),
        };
        out.push(op);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceOp> {
        vec![
            TraceOp::compute(1000),
            TraceOp::load(VirtAddr::new(0x1000)),
            TraceOp::chase(VirtAddr::new(0xFFFF_0000)),
            TraceOp::chase_mkpt(VirtAddr::new(0x40)),
            TraceOp::store(VirtAddr::new(0x2000)),
            TraceOp::nt_store(VirtAddr::new(0x2040)),
            TraceOp::Clwb {
                vaddr: VirtAddr::new(0x2040),
            },
            TraceOp::Fence,
            TraceOp::compute(1),
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample();
        let bytes = encode(&trace);
        assert_eq!(decode(&bytes).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes).unwrap(), Vec::<TraceOp>::new());
    }

    #[test]
    fn sequential_traces_compress_well() {
        let trace: Vec<TraceOp> = (0..10_000u64)
            .map(|i| TraceOp::nt_store(VirtAddr::new(0x10_0000 + i * 64)))
            .collect();
        let bytes = encode(&trace);
        // Delta coding: ~2-3 bytes per sequential op.
        assert!(
            bytes.len() < trace.len() * 4,
            "{} bytes for {} ops",
            bytes.len(),
            trace.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode(b"XXXX\x01rest").unwrap_err();
        assert_eq!(err.reason, "bad magic or unsupported version");
    }

    #[test]
    fn truncation_detected() {
        let trace = sample();
        let bytes = encode(&trace);
        let cut = &bytes[..bytes.len() - 2];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut raw = encode(&[TraceOp::Fence]).to_vec();
        let last = raw.len() - 1;
        raw[last] = 99;
        let err = decode(&raw).unwrap_err();
        assert_eq!(err.reason, "unknown op tag");
    }

    #[test]
    fn oversized_compute_count_rejected_not_truncated() {
        // Regression: a compute varint above u32::MAX used to be silently
        // truncated by an `as u32` cast (e.g. 2^32 decoded as 0 cycles),
        // corrupting replayed timing instead of failing loudly.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.push(1); // count = 1
        raw.push(TAG_COMPUTE);
        let mut v = u64::from(u32::MAX) + 1;
        while v >= 0x80 {
            raw.push((v & 0x7F) as u8 | 0x80);
            v >>= 7;
        }
        raw.push(v as u8);
        let err = decode(&raw).unwrap_err();
        assert_eq!(err.reason, "compute count exceeds u32");
    }

    /// Regression: address deltas used to be taken in `i64`, so a step
    /// of 2^63 or more overflowed (a panic in debug builds).
    #[test]
    fn deltas_wrap_across_the_whole_address_space() {
        let trace = vec![
            TraceOp::load(VirtAddr::new(1 << 63)),
            TraceOp::load(VirtAddr::new(0)),
            TraceOp::store(VirtAddr::new(u64::MAX)),
            TraceOp::Clwb {
                vaddr: VirtAddr::new(1),
            },
        ];
        assert_eq!(decode(&encode(&trace)).unwrap(), trace);
    }

    /// Regression: the tenth byte of a varint may carry only bit 63; the
    /// old reader dropped the other bits of a `0x7f` there and decoded a
    /// load at 2^62.
    #[test]
    fn varint_past_64_bits_is_rejected() {
        let mut raw = MAGIC.to_vec();
        raw.extend([1, TAG_LOAD]);
        raw.extend([0x80; 9]);
        raw.push(0x7f);
        let err = decode(&raw).unwrap_err();
        assert_eq!((err.offset, err.reason), (raw.len(), "varint overflow"));
    }

    /// A realistic mixed trace from the generator vocabulary.
    fn mixed() -> Vec<TraceOp> {
        let mut trace = Vec::new();
        for i in 0..5_000u64 {
            trace.push(TraceOp::compute((i % 50) as u32 + 1));
            trace.push(TraceOp::chase(VirtAddr::new(
                i.wrapping_mul(7919) % (1 << 30),
            )));
            if i % 7 == 0 {
                trace.push(TraceOp::store(VirtAddr::new(i * 64)));
                trace.push(TraceOp::Fence);
            }
        }
        trace
    }

    #[test]
    fn large_workload_trace_round_trips() {
        let trace = mixed();
        let bytes = encode(&trace);
        assert_eq!(decode(&bytes).unwrap(), trace);
    }

    /// FNV-1a 64 of a byte string.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The container bytes are a format: a trace written by one build
    /// must decode under the next, so the encodings are pinned as
    /// `(length, FNV-1a 64)`.
    #[test]
    fn golden_encodings() {
        for (name, trace, golden) in [
            ("sample", sample(), (35, 0xd534_76b8_a87b_1b24)),
            ("mixed", mixed(), (30_684, 0xf432_a755_4be8_73c0)),
        ] {
            let bytes = encode(&trace);
            assert_eq!((bytes.len(), fnv1a64(&bytes)), golden, "{name}");
        }
    }
}
