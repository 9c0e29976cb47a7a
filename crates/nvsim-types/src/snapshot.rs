//! Versioned, deterministic checkpoint format for simulator state.
//!
//! Every stateful component implements [`Snapshot`]: `save` appends the
//! component's state to a [`SnapshotWriter`], `restore` reads it back from
//! a [`SnapshotReader`] **into an instance built from the same
//! configuration**. Configuration itself is *not* captured — a snapshot is
//! a cut of mutable simulation state, and restoring into a differently
//! configured instance is an error the per-component impls detect via
//! their structural-parameter checks.
//!
//! The encoding is std-only varints (LEB128 `u64`, zigzag `i64`): a plain
//! `Vec<u8>` on the write side and a borrowed `&[u8]` cursor on the read
//! side. The binary trace container (`nvsim_cpu::trace_io`) and the wire
//! protocol write the same varints. Blobs produced by
//! [`save_blob`] start with the magic `b"NVSS"` and a format version
//! byte; [`restore_blob`] rejects unknown versions with a clean
//! [`SnapshotError`] instead of misinterpreting the payload.
//!
//! # Determinism contract
//!
//! Saving the same state twice yields byte-identical blobs, and a
//! restored component continues *bit-identically* to the original: every
//! subsequent counter, completion time and trace byte matches what the
//! uninterrupted run would have produced. The sampled-simulation driver
//! and the crash-consistency layer both rely on this.
//!
//! # Example
//!
//! ```
//! use nvsim_types::snapshot::{restore_blob, save_blob, Snapshot, SnapshotReader, SnapshotWriter};
//! use nvsim_types::DetRng;
//!
//! let mut rng = DetRng::seed_from(7);
//! rng.next_u64();
//! let blob = save_blob(&rng);
//! let mut later = DetRng::seed_from(0);
//! restore_blob(&mut later, &blob)?;
//! assert_eq!(rng.next_u64(), later.next_u64());
//! # Ok::<(), nvsim_types::snapshot::SnapshotError>(())
//! ```

use crate::time::Time;
use std::error::Error;
use std::fmt;

/// Magic prefix of a snapshot blob.
pub const MAGIC: &[u8; 4] = b"NVSS";

/// Current snapshot format version.
pub const VERSION: u8 = 1;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's format version is not supported by this build.
    UnsupportedVersion(u8),
    /// The blob ended mid-field.
    Truncated,
    /// A varint ran past 10 bytes (not a valid `u64`).
    VarintOverflow,
    /// A section tag did not match the component being restored —
    /// usually a save/restore ordering mismatch.
    BadSection {
        /// The tag the component expected.
        expected: u16,
        /// The tag actually present in the blob.
        found: u16,
    },
    /// A decoded value violates a structural invariant (e.g. a buffer
    /// snapshot larger than the buffer's configured capacity).
    Invalid(&'static str),
    /// Bytes remained after the outermost component finished restoring.
    TrailingBytes(usize),
}

/// A decode failure, with the byte offset where it was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotError {
    /// Byte offset into the blob at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub kind: SnapshotErrorKind,
}

impl SnapshotError {
    /// Convenience constructor for structural-invariant violations.
    pub fn invalid(offset: usize, what: &'static str) -> Self {
        SnapshotError {
            offset,
            kind: SnapshotErrorKind::Invalid(what),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SnapshotErrorKind::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            SnapshotErrorKind::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads v{VERSION})"
                )
            }
            SnapshotErrorKind::Truncated => {
                write!(f, "snapshot truncated at byte {}", self.offset)
            }
            SnapshotErrorKind::VarintOverflow => {
                write!(f, "varint overflow at byte {}", self.offset)
            }
            SnapshotErrorKind::BadSection { expected, found } => write!(
                f,
                "section mismatch at byte {}: expected {expected}, found {found}",
                self.offset
            ),
            SnapshotErrorKind::Invalid(what) => {
                write!(f, "invalid snapshot field at byte {}: {what}", self.offset)
            }
            SnapshotErrorKind::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after byte {}", self.offset)
            }
        }
    }
}

impl Error for SnapshotError {}

/// Appends snapshot fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw payload (no magic/version;
    /// see [`save_blob`] for the framed form).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a LEB128 varint.
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            // nvsim-lint: allow(cast-truncation) — masked to 7 bits, lossless
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a `u32` (as a varint).
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(v as u64);
    }

    /// Appends a `usize` (as a varint).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        // nvsim-lint: allow(cast-truncation) — bool is exactly 0 or 1
        self.buf.push(v as u8);
    }

    /// Appends an `f64` as its 8 little-endian IEEE-754 bytes (exact).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a [`Time`] as its picosecond count.
    pub fn put_time(&mut self, t: Time) {
        self.put_u64(t.as_ps());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Opens a component section. Each component writes its own tag so a
    /// save/restore ordering mismatch surfaces as a
    /// [`SnapshotErrorKind::BadSection`] instead of silent garbage.
    pub fn section(&mut self, tag: u16) {
        self.put_u64(tag as u64);
    }
}

/// A borrowing cursor over a snapshot payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over a raw payload (no magic/version framing; see
    /// [`restore_blob`] for the framed form).
    pub fn new(data: &'a [u8]) -> Self {
        SnapshotReader { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn err(&self, kind: SnapshotErrorKind) -> SnapshotError {
        SnapshotError {
            offset: self.pos,
            kind,
        }
    }

    /// A structural-invariant error at the current offset.
    pub fn invalid(&self, what: &'static str) -> SnapshotError {
        self.err(SnapshotErrorKind::Invalid(what))
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Truncated`] if the payload ends mid-varint,
    /// [`SnapshotErrorKind::VarintOverflow`] if it runs past 10 bytes.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err(self.err(SnapshotErrorKind::Truncated));
            };
            self.pos += 1;
            if shift == 9 && byte > 1 {
                return Err(self.err(SnapshotErrorKind::VarintOverflow));
            }
            v |= ((byte & 0x7f) as u64) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err(SnapshotErrorKind::VarintOverflow))
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates the underlying varint decode error.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        let z = self.get_u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads a `u32`-ranged varint.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Invalid`] if the value exceeds `u32::MAX`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| self.invalid("value out of u32 range"))
    }

    /// Reads a `usize`-ranged varint.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Invalid`] if the value exceeds `usize::MAX`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.invalid("value out of usize range"))
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Truncated`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        let Some(&byte) = self.data.get(self.pos) else {
            return Err(self.err(SnapshotErrorKind::Truncated));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Invalid`] unless the byte is 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::invalid(self.pos - 1, "boolean byte not 0/1")),
        }
    }

    /// Reads an `f64` from 8 little-endian bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Truncated`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(self.err(SnapshotErrorKind::Truncated));
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        Ok(f64::from_le_bytes(raw))
    }

    /// Reads a [`Time`] from its picosecond count.
    ///
    /// # Errors
    ///
    /// Propagates the underlying varint decode error.
    pub fn get_time(&mut self) -> Result<Time, SnapshotError> {
        Ok(Time::from_ps(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Truncated`] if the declared length runs past
    /// the end of the payload.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_usize()?;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(self.err(SnapshotErrorKind::Truncated));
        };
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Consumes a section tag, checking it matches the component.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::BadSection`] on a tag mismatch.
    pub fn expect_section(&mut self, tag: u16) -> Result<(), SnapshotError> {
        let at = self.pos;
        let found = self.get_u64()?;
        if found != tag as u64 {
            return Err(SnapshotError {
                offset: at,
                kind: SnapshotErrorKind::BadSection {
                    expected: tag,
                    // nvsim-lint: allow(cast-truncation) — clamped to u16::MAX
                    found: found.min(u16::MAX as u64) as u16,
                },
            });
        }
        Ok(())
    }

    /// Checks that the payload has been fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.err(SnapshotErrorKind::TrailingBytes(self.remaining())));
        }
        Ok(())
    }
}

/// Serializable mutable simulation state.
///
/// `restore` must be called on an instance built from the **same
/// configuration** that produced the save; impls validate structural
/// parameters (capacities, dimm counts, …) and return
/// [`SnapshotErrorKind::Invalid`] on a mismatch. Restore paths never
/// panic: any malformed input maps to a [`SnapshotError`].
pub trait Snapshot {
    /// Appends this component's state to `w`.
    fn save(&self, w: &mut SnapshotWriter);

    /// Replaces this component's state with the saved state at `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the payload is malformed or does
    /// not match this instance's configuration. On error the component
    /// may be left partially restored and must be discarded.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Serializes a component into a framed blob (magic + version + payload).
pub fn save_blob<S: Snapshot + ?Sized>(component: &S) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.buf.extend_from_slice(MAGIC);
    w.put_u8(VERSION);
    component.save(&mut w);
    w.into_bytes()
}

/// Restores a component from a framed blob produced by [`save_blob`].
///
/// # Errors
///
/// Rejects blobs with the wrong magic, an unsupported version, a
/// malformed payload, or trailing bytes.
pub fn restore_blob<S: Snapshot + ?Sized>(
    component: &mut S,
    blob: &[u8],
) -> Result<(), SnapshotError> {
    if blob.len() < MAGIC.len() + 1 || &blob[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError {
            offset: 0,
            kind: SnapshotErrorKind::BadMagic,
        });
    }
    let version = blob[MAGIC.len()];
    if version != VERSION {
        return Err(SnapshotError {
            offset: MAGIC.len(),
            kind: SnapshotErrorKind::UnsupportedVersion(version),
        });
    }
    let mut r = SnapshotReader::new(&blob[MAGIC.len() + 1..]);
    component.restore(&mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, i64);

    impl Snapshot for Pair {
        fn save(&self, w: &mut SnapshotWriter) {
            w.section(7);
            w.put_u64(self.0);
            w.put_i64(self.1);
        }

        fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            r.expect_section(7)?;
            self.0 = r.get_u64()?;
            self.1 = r.get_i64()?;
            Ok(())
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut w = SnapshotWriter::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX];
        for &v in &values {
            w.put_u64(v);
        }
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        for &v in &values {
            assert_eq!(r.get_u64().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn zigzag_roundtrip() {
        let mut w = SnapshotWriter::new();
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        for &v in &values {
            w.put_i64(v);
        }
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        for &v in &values {
            assert_eq!(r.get_i64().unwrap(), v);
        }
    }

    #[test]
    fn f64_time_bool_bytes_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_f64(-1.5e300);
        w.put_f64(f64::NAN);
        w.put_time(Time::from_ns(123));
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_time().unwrap(), Time::from_ns(123));
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn blob_roundtrip() {
        let orig = Pair(42, -99);
        let blob = save_blob(&orig);
        assert_eq!(&blob[..4], MAGIC);
        let mut copy = Pair(0, 0);
        restore_blob(&mut copy, &blob).unwrap();
        assert_eq!(copy.0, 42);
        assert_eq!(copy.1, -99);
    }

    #[test]
    fn save_is_deterministic() {
        let p = Pair(5, 6);
        assert_eq!(save_blob(&p), save_blob(&p));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut p = Pair(0, 0);
        let err = restore_blob(&mut p, b"XXXX\x01\x07").unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::BadMagic);
        assert!(restore_blob(&mut p, b"NV").is_err());
        assert!(restore_blob(&mut p, b"").is_err());
    }

    #[test]
    fn future_version_rejected_cleanly() {
        let mut blob = save_blob(&Pair(1, 2));
        blob[4] = 99;
        let mut p = Pair(0, 0);
        let err = restore_blob(&mut p, &blob).unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::UnsupportedVersion(99));
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn truncation_detected() {
        let blob = save_blob(&Pair(300, -300));
        for cut in 5..blob.len() {
            let mut p = Pair(0, 0);
            assert!(
                restore_blob(&mut p, &blob[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut blob = save_blob(&Pair(1, 1));
        blob.push(0);
        let mut p = Pair(0, 0);
        let err = restore_blob(&mut p, &blob).unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::TrailingBytes(1));
    }

    #[test]
    fn section_mismatch_detected() {
        let mut w = SnapshotWriter::new();
        w.section(3);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let err = r.expect_section(7).unwrap_err();
        assert_eq!(
            err.kind,
            SnapshotErrorKind::BadSection {
                expected: 7,
                found: 3
            }
        );
    }

    #[test]
    fn varint_overflow_rejected() {
        let buf = [0xffu8; 11];
        let mut r = SnapshotReader::new(&buf);
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::VarintOverflow);
    }
}
