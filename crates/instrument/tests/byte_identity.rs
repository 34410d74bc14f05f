//! Byte identity of the in-place recorder: whatever the sink, encoding and
//! block size, the packs it emits are exactly what encoding the same
//! events as standalone [`EventPack`]s produces — sequence numbers, counts,
//! the partial final pack and the silence of an empty flush included.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::Bytes;
use opmr_events::{
    Compression, Event, EventKind, EventPack, PackEncoding, DELTA_EVENT_MAX_WIRE_SIZE,
    EVENT_WIRE_SIZE, PACK_HEADER_SIZE,
};
use opmr_instrument::{read_trace_file, PackSink, Recorder, RecorderConfig};
use opmr_runtime::Launcher;
use opmr_vmpi::{Balance, ReadMode, ReadStream, StreamConfig, Vmpi, WriteStream};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const APP: u16 = 7;
const RANK: u32 = 3;

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        any::<u64>(),
        0..EventKind::ALL.len(),
        any::<u32>(),
        any::<i32>(),
        any::<i32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(time_ns, duration_ns, kind, rank, peer, tag, comm, bytes)| Event {
                time_ns,
                duration_ns,
                kind: EventKind::ALL[kind],
                rank,
                peer,
                tag,
                comm,
                bytes,
            },
        )
}

/// The encodings crossed with the block sizes the recorder is sized for:
/// exactly one worst-case event, 2 KiB, 4 KiB, 64 KiB.
fn arb_shape() -> impl Strategy<Value = (PackEncoding, usize)> {
    (0usize..2, 0usize..4).prop_map(|(enc, size)| {
        let (encoding, one_event) = match enc {
            0 => (PackEncoding::Fixed, PACK_HEADER_SIZE + EVENT_WIRE_SIZE),
            _ => (
                PackEncoding::Delta,
                PACK_HEADER_SIZE + DELTA_EVENT_MAX_WIRE_SIZE,
            ),
        };
        (encoding, [one_event, 2048, 4096, 1 << 16][size])
    })
}

/// What the packs must be: `events` cut at the explicit flush and at every
/// full pack, each piece encoded on its own with the next sequence number.
fn reference(
    encoding: PackEncoding,
    block: usize,
    events: &[Event],
    flush_at: usize,
) -> Vec<Bytes> {
    let cap = EventPack::capacity_for_block_with(block, encoding).max(1);
    let (before, after) = events.split_at(flush_at);
    before
        .chunks(cap)
        .chain(after.chunks(cap))
        .enumerate()
        .map(|(seq, chunk)| {
            EventPack::new(APP, RANK, seq as u32, chunk.to_vec()).encode_with(encoding)
        })
        .collect()
}

/// Drives a recorder over `sink` the way the reference is cut.
fn record_all(
    sink: PackSink,
    encoding: PackEncoding,
    block: usize,
    events: &[Event],
    flush_at: usize,
) {
    let cfg = RecorderConfig::for_block(APP, RANK, block, encoding);
    let mut rec = Recorder::new(cfg, sink);
    rec.flush_pack().unwrap(); // nothing recorded yet: must emit nothing
    for (i, e) in events.iter().enumerate() {
        if i == flush_at {
            rec.flush_pack().unwrap();
            rec.flush_pack().unwrap(); // the second one is empty
            assert_eq!(rec.pending(), 0);
        }
        rec.record(*e).unwrap();
    }
    let stats = rec.finish().unwrap();
    assert_eq!(stats.events, events.len() as u64);
}

fn tmp_path() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "opmr_identity_{}_{}.opmr",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The same run through a stream: the analyzer side returns every block.
fn through_stream(
    cfg: StreamConfig,
    encoding: PackEncoding,
    events: Vec<Event>,
    flush_at: usize,
) -> Vec<Bytes> {
    let blocks = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&blocks);
    Launcher::new()
        .partition("app", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let stream = WriteStream::open_to(&v, vec![1], cfg, 0).unwrap();
            record_all(
                PackSink::Stream(stream),
                encoding,
                cfg.block_size,
                &events,
                flush_at,
            );
        })
        .partition("Analyzer", 1, move |mpi| {
            let v = Vmpi::new(mpi).unwrap();
            let mut st = ReadStream::open_from(&v, vec![0], cfg, 0).unwrap();
            while let Some(block) = st.read(ReadMode::Blocking).unwrap() {
                out.lock().unwrap().push(block.data);
            }
        })
        .run()
        .unwrap();
    let got = blocks.lock().unwrap().clone();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn file_sink_packs_equal_standalone_encoding(
        (encoding, block) in arb_shape(),
        events in proptest::collection::vec(arb_event(), 0..3000),
        flush_at in any::<proptest::sample::Index>(),
    ) {
        let flush_at = flush_at.index(events.len() + 1);
        let path = tmp_path();
        record_all(PackSink::file(&path).unwrap(), encoding, block, &events, flush_at);
        let got = read_trace_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let want = reference(encoding, block, &events, flush_at);
        prop_assert_eq!(got.len(), want.len());
        for (seq, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "pack {} differs", seq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stream_sink_blocks_equal_standalone_encoding(
        (encoding, block) in arb_shape(),
        lz4 in any::<bool>(),
        events in proptest::collection::vec(arb_event(), 0..3000),
        flush_at in any::<proptest::sample::Index>(),
    ) {
        let flush_at = flush_at.index(events.len() + 1);
        let cfg = StreamConfig::new(block, 3, Balance::RoundRobin)
            .with_pack_encoding(encoding)
            .with_compression(if lz4 { Compression::Lz4 } else { Compression::None })
            .with_read_timeout(std::time::Duration::from_secs(20));
        let want = reference(encoding, block, &events, flush_at);
        let got = through_stream(cfg, encoding, events, flush_at);
        prop_assert_eq!(got.len(), want.len());
        for (seq, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "block {} differs", seq);
        }
    }
}
