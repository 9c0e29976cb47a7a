//! Poisoned-stream regression suite, on the path the daemon serves: the
//! first malformed frame faults a transport connection for good, the
//! commands decoded before it execute exactly once, and what the client
//! observes is byte-for-byte identical no matter how the stream is
//! chunked around the error.

use nvsim_serve::protocol::{write_frame, Command, OpenOptions};
use nvsim_serve::transport::{ConnId, StreamError, TransportConfig, TransportEngine};
use nvsim_serve::{decode_responses, Server, ServerConfig};
use nvsim_types::backend::FixedLatencyBackend;
use nvsim_types::{Addr, BackendConfig, BackendKind, ConfigError, MemoryBackend, RequestDesc};

fn factory(kind: BackendKind, cfg: &BackendConfig) -> Result<Box<dyn MemoryBackend>, ConfigError> {
    match kind {
        BackendKind::FixedLatency => Ok(Box::new(FixedLatencyBackend::new(
            cfg.fixed_read_latency,
            cfg.fixed_write_latency,
        ))),
        _ => Err(ConfigError::new(
            "backend.kind",
            "poison tests build `fixed` only",
        )),
    }
}

fn server() -> Server {
    Server::new(factory, ServerConfig::default())
}

/// A fresh engine with one accepted connection.
fn connection() -> (TransportEngine, ConnId) {
    let mut eng = TransportEngine::new(server(), TransportConfig::default());
    let id = eng.mux().accept();
    (eng, id)
}

fn open(sid: u64) -> Command {
    Command::Open {
        sid,
        kind: BackendKind::FixedLatency,
        dimms: 1,
        opts: OpenOptions::default(),
    }
}

fn encode(cmds: &[Command]) -> Vec<u8> {
    let mut buf = Vec::new();
    for c in cmds {
        c.encode_frame(&mut buf);
    }
    buf
}

/// Valid prefix + a bad frame (unknown command tag) + a valid suffix
/// that must never execute.
fn corrupt_stream() -> (Vec<Command>, Vec<u8>) {
    let good: Vec<Command> = vec![
        open(1),
        Command::Batch {
            sid: 1,
            reqs: vec![
                RequestDesc::load(Addr::new(0x40)),
                RequestDesc::store(Addr::new(0x80)),
            ],
        },
        Command::Save { sid: 1 },
    ];
    let mut bytes = encode(&good);
    write_frame(&mut bytes, &[0x7F, 9, 9, 9]); // unknown tag: poison point
    bytes.extend(encode(&[Command::Batch {
        sid: 1,
        reqs: vec![RequestDesc::load(Addr::new(0xC0))],
    }]));
    (good, bytes)
}

/// The responses owed for the valid prefix: what a fresh server answers
/// for exactly those commands.
fn owed(good: &[Command]) -> Vec<u8> {
    let owed = server().run_script(&encode(good)).expect("valid prefix");
    assert_eq!(
        decode_responses(&owed).expect("well-formed").len(),
        good.len()
    );
    owed
}

/// Feeds `bytes` split at `cut` into the connection, running cycles
/// between the chunks when `cycle_between` is set. Returns the first
/// ingest error and the response bytes taken along the way.
fn ingest_split(
    eng: &mut TransportEngine,
    id: ConnId,
    bytes: &[u8],
    cut: usize,
    cycle_between: bool,
) -> (Option<StreamError>, Vec<u8>) {
    let mut err = None;
    let mut streamed = Vec::new();
    for chunk in [&bytes[..cut], &bytes[cut..]] {
        if let Err(e) = eng.mux().ingest(id, chunk) {
            err.get_or_insert(e);
        }
        if cycle_between {
            eng.run_until_quiet();
            streamed.extend(eng.mux().take_output(id));
        }
    }
    (err, streamed)
}

#[test]
fn every_split_point_behaves_identically() {
    let (good, bytes) = corrupt_stream();
    let owed = owed(&good);

    let mut reference: Option<StreamError> = None;
    for cut in 0..=bytes.len() {
        let (mut eng, id) = connection();
        let (err, _) = ingest_split(&mut eng, id, &bytes, cut, false);
        let err = err.expect("the corrupt stream must fault at every split");
        assert!(matches!(err, StreamError::Protocol(_)), "{err:?}");
        // The typed error is identical at every split: same offset into
        // the logical stream, same kind.
        match &reference {
            None => reference = Some(err.clone()),
            Some(want) => assert_eq!(&err, want, "cut at {cut} changed the error"),
        }
        assert_eq!(eng.mux_ref().fault(id), Some(&err), "the fault is sticky");

        // Pre-fault commands execute exactly once, with the same bytes
        // as an unpoisoned run of the valid prefix.
        eng.run_until_quiet();
        let flushed = eng.mux().take_output(id);
        assert_eq!(flushed, owed, "cut at {cut} changed the owed responses");

        // Nothing is owed any more: later bytes and the end of the
        // stream return the same stored error, and nothing ever
        // executes again.
        assert_eq!(
            eng.mux().ingest(id, &encode(&[open(2)])),
            Err(err.clone()),
            "cut at {cut}"
        );
        assert_eq!(eng.mux().end_of_stream(id), Err(err.clone()));
        assert_eq!(eng.run_until_quiet(), 0, "post-fault bytes must not queue");
        assert!(eng.mux().take_output(id).is_empty(), "delivered once");
        assert_eq!(
            eng.server().registry().sids_in_scope(id),
            vec![1],
            "only the pre-fault session exists"
        );
        assert!(eng.mux_ref().conn_done(id));
    }
}

#[test]
fn cycles_between_chunks_still_deliver_exactly_once() {
    let (good, bytes) = corrupt_stream();
    let owed = owed(&good);

    for cut in 0..=bytes.len() {
        let (mut eng, id) = connection();
        // A cycle between chunks may deliver a prefix of the owed
        // responses early — but the concatenation over the whole stream
        // must equal the oracle exactly (no duplicates, no gaps),
        // regardless of where the split fell.
        let (err, mut streamed) = ingest_split(&mut eng, id, &bytes, cut, true);
        assert!(err.is_some(), "cut at {cut}");
        eng.run_until_quiet();
        streamed.extend(eng.mux().take_output(id));
        assert_eq!(streamed, owed, "cut at {cut}");
        assert!(eng.mux_ref().conn_done(id));
    }
}

#[test]
fn poison_offset_points_at_the_bad_frame() {
    let (good, bytes) = corrupt_stream();
    let (mut eng, id) = connection();
    let err = match eng.mux().ingest(id, &bytes) {
        Err(StreamError::Protocol(e)) => e,
        other => panic!("expected a protocol fault, got {other:?}"),
    };
    // The error's offset lands inside the bad frame, after every valid
    // frame's bytes.
    assert!(
        err.offset >= encode(&good).len(),
        "offset {} points before the bad frame",
        err.offset
    );
    assert!(err.offset < bytes.len());
}

#[test]
fn clean_streams_see_no_poison_machinery() {
    let (good, _) = corrupt_stream();
    let owed = owed(&good);
    let bytes = encode(&good);
    for cut in 0..=bytes.len() {
        let (mut eng, id) = connection();
        let (err, _) = ingest_split(&mut eng, id, &bytes, cut, false);
        assert_eq!(err, None, "cut at {cut}");
        assert!(eng.mux_ref().fault(id).is_none());
        eng.mux().end_of_stream(id).expect("clean end");
        eng.run_until_quiet();
        assert_eq!(eng.mux().take_output(id), owed, "cut at {cut}");
        assert!(eng.mux_ref().conn_done(id));
    }
}
