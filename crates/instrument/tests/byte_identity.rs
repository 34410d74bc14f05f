//! Byte identity of the in-place recorder: whatever the sink, encoding and
//! block size, the packs it emits are exactly what encoding the same
//! events as standalone [`EventPack`]s produces — sequence numbers, counts,
//! the partial final pack and the silence of an empty flush included. The
//! reference cuts packs by bytes, on its own: a pack closes once its
//! standalone encoding leaves less than one worst-case row of its block.

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

/// Events like a real rank's: close in time, one rank, small fields, so
/// Delta rows take a few bytes and a pack holds hundreds of them.
fn near_event() -> impl Strategy<Value = Event> {
    (
        0u64..1 << 20,
        prop_oneof![Just(0u64), 0u64..100_000],
        0..EventKind::ALL.len(),
        -1i32..4,
        -1i32..64,
        0u32..2,
        prop_oneof![Just(0u64), 0u64..1 << 20],
    )
        .prop_map(
            |(time_ns, duration_ns, kind, peer, tag, comm, bytes)| Event {
                time_ns,
                duration_ns,
                kind: EventKind::ALL[kind],
                rank: RANK,
                peer,
                tag,
                comm,
                bytes,
            },
        )
}

/// Up to 3 000 events, all arbitrary or all near one another.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    use proptest::collection::vec;
    prop_oneof![vec(arb_event(), 0..3000), vec(near_event(), 0..3000)]
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

/// How many events from the front of `events` the next pack takes: the
/// chunk grows while its standalone encoding leaves room for one more
/// worst-case row, so it closes at the first event that leaves less.
/// The standalone length grows with the chunk, so the first chunk length
/// that leaves no room is found by bisection.
fn byte_cut(encoding: PackEncoding, block: usize, events: &[Event]) -> usize {
    let room = |n: usize| {
        let pack = EventPack::new(APP, RANK, 0, events[..n].to_vec());
        pack.encode_with(encoding).len() + encoding.max_event_wire_size() <= block
    };
    let (mut lo, mut hi) = (1, events.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if room(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `events` cut into packs: at the explicit flush and wherever the byte
/// rule closes a pack.
fn cut(encoding: PackEncoding, block: usize, events: &[Event], flush_at: usize) -> Vec<&[Event]> {
    let mut chunks = Vec::new();
    for mut rest in [&events[..flush_at], &events[flush_at..]] {
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(byte_cut(encoding, block, rest));
            chunks.push(chunk);
            rest = tail;
        }
    }
    if encoding == PackEncoding::Fixed {
        // Fixed rows are all worst-case rows: the byte rule cuts where the
        // block's event capacity always did.
        let cap = EventPack::capacity_for_block_with(block, encoding).max(1);
        let (before, after) = events.split_at(flush_at);
        let by_count: Vec<&[Event]> = before.chunks(cap).chain(after.chunks(cap)).collect();
        assert_eq!(chunks, by_count, "{block} B");
    }
    chunks
}

/// What the packs must be: each chunk of [`cut`] encoded on its own with
/// the next sequence number.
fn reference(
    encoding: PackEncoding,
    block: usize,
    events: &[Event],
    flush_at: usize,
) -> Vec<Bytes> {
    cut(encoding, block, events, flush_at)
        .into_iter()
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
        events in arb_events(),
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

    #[test]
    fn packs_fill_their_block_and_decode_to_the_input(
        (encoding, block) in arb_shape(),
        events in arb_events(),
        flush_at in any::<proptest::sample::Index>(),
    ) {
        let flush_at = flush_at.index(events.len() + 1);
        let path = tmp_path();
        record_all(PackSink::file(&path).unwrap(), encoding, block, &events, flush_at);
        let got = read_trace_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let max_row = encoding.max_event_wire_size();
        let mut decoded = Vec::new();
        for (seq, pack) in got.iter().enumerate() {
            // A Delta row takes at most 52 of its 53-byte margin, so a
            // Delta pack plus its stream frame's flag byte fits the block.
            let cap = if encoding == PackEncoding::Delta { block - 1 } else { block };
            prop_assert!(pack.len() <= cap, "pack {} is {} B in {} B", seq, pack.len(), block);
            decoded.extend(EventPack::decode(pack).unwrap().events);
            // Only the explicit flush and `finish` may close a pack that
            // still has room for a worst-case row.
            if decoded.len() != flush_at && decoded.len() != events.len() {
                prop_assert!(block - pack.len() < max_row, "pack {} closed early", seq);
            }
        }
        prop_assert_eq!(decoded, events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stream_sink_blocks_equal_standalone_encoding(
        (encoding, block) in arb_shape(),
        lz4 in any::<bool>(),
        events in arb_events(),
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
