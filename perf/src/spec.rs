//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, regression bound (end to end) or the end-to-end metric and
//! workload it is predicted to move (per layer). `BENCHMARK.json` lists the
//! same names; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees; gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "correctness gate (three small sessions) plus a warm-up session; median of the run's five repetitions",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "events in the final report / outer wall around run() (first record to report returned, drain included); on serve_* the open-loop schedule, which must simply hold",
    },
    EndToEnd {
        name: "app_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        what: "max over application ranks of body wall time / calls the rank issued: the instrumentation overhead as the application sees it (pacing sleeps included on serve_*)",
    },
    EndToEnd {
        name: "wire_bytes_per_event",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
        what: "VMPI stream bytes on the wire / events (registry delta per segment); on serve_* the event streams alone, as the recorders count them",
    },
    EndToEnd {
        name: "lag_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "serve_*: Update::lag_ns median, publish to apply at the subscriber; ingest workloads: median age of a pack's oldest event when the recorder hands the pack to the stream",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Single-threaded timed calls into the crate's public functions.
    Ledger,
    /// Registry delta, outcome field or client-side sample of the sessions.
    Session,
    /// Spans of the traced run (session or pipeline twin).
    Span,
    /// About the benchmark run or the process itself.
    Bench,
}

/// A metric of one layer. No bound; `moves` is the prediction it carries:
/// the end-to-end metric it should move, on which workload ("*" = all).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub moves: &'static [(&'static str, &'static str)],
    /// The public function or counter the number comes from.
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static [(&'static str, &'static str)],
    what: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
        what,
    }
}

use Better::{Higher, Lower};
use Source::{Bench, Ledger, Session, Span};

const APP_BULK: &[(&str, &str)] = &[("app_ns_per_event", "firehose_bulk")];
const APP_PACKS: &[(&str, &str)] = &[("app_ns_per_event", "firehose_packs")];
const RATE_BULK: &[(&str, &str)] = &[("events_per_s", "firehose_bulk")];
const RATE_PACKS: &[(&str, &str)] = &[("events_per_s", "firehose_packs")];
const RATE_RING: &[(&str, &str)] = &[("events_per_s", "ring_socket_lz4")];
const RATE_TBON: &[(&str, &str)] = &[("events_per_s", "tbon_aggregate")];
const RATE_RING_TBON: &[(&str, &str)] = &[
    ("events_per_s", "ring_socket_lz4"),
    ("events_per_s", "tbon_aggregate"),
];
const STREAM_PACKS: &[(&str, &str)] = &[
    ("events_per_s", "firehose_packs"),
    ("app_ns_per_event", "firehose_packs"),
];
const SOCKET_RING: &[(&str, &str)] = &[
    ("events_per_s", "ring_socket_lz4"),
    ("wire_bytes_per_event", "ring_socket_lz4"),
];
const WIRE_PACKS: &[(&str, &str)] = &[("wire_bytes_per_event", "firehose_packs")];
const WIRE_RING: &[(&str, &str)] = &[("wire_bytes_per_event", "ring_socket_lz4")];
const LAG_SERVE: &[(&str, &str)] = &[
    ("lag_p50_us", "serve_paced"),
    ("lag_p50_us", "serve_resync"),
];
const LAG_PACED: &[(&str, &str)] = &[("lag_p50_us", "serve_paced")];
const LAG_RESYNC: &[(&str, &str)] = &[("lag_p50_us", "serve_resync")];
const SETUP_ALL: &[(&str, &str)] = &[("setup_s", "*")];
const RATE_ALL: &[(&str, &str)] = &[("events_per_s", "*")];

pub const PER_LAYER: [Layer; 63] = [
    // instrument
    layer("instrument.record_ns_per_event", "ns", Lower, Ledger, APP_BULK, "Recorder::record into a /dev/null file sink, 64 KiB fixed packs, flushes amortised"),
    layer("instrument.flush_ns_per_pack", "ns", Lower, Ledger, APP_PACKS, "Recorder::flush_pack of a full 64 KiB fixed pack into a /dev/null file sink"),
    // events
    layer("events.encode_fixed_ns_per_event", "ns", Lower, Ledger, APP_BULK, "EventPack::encode_into(Fixed), 64 KiB packs"),
    layer("events.encode_delta_ns_per_event", "ns", Lower, Ledger, APP_PACKS, "EventPack::encode_into(Delta), 4 KiB packs"),
    layer("events.decode_fixed_ns_per_event", "ns", Lower, Ledger, RATE_BULK, "EventPack::decode of fixed 64 KiB packs"),
    layer("events.decode_delta_ns_per_event", "ns", Lower, Ledger, RATE_PACKS, "EventPack::decode of delta 4 KiB packs"),
    layer("events.lz4_compress_ns_per_byte", "ns", Lower, Ledger, RATE_RING, "Lz4Encoder::compress over delta packs"),
    layer("events.lz4_decompress_ns_per_byte", "ns", Lower, Ledger, RATE_RING, "decompress_into over the same blocks (per raw byte)"),
    layer("events.frame_ns_per_block", "ns", Lower, Ledger, RATE_RING, "frame + FrameBuf::push + next_frame of one 4 KiB block"),
    layer("events.delta_bytes_per_event", "B", Lower, Ledger, WIRE_PACKS, "encoded delta bytes / events (count)"),
    layer("events.lz4_ratio", "ratio", Higher, Ledger, WIRE_RING, "raw / compressed bytes of delta packs (count)"),
    // vmpi
    layer("vmpi.write_ns_per_block", "ns", Lower, Span, STREAM_PACKS, "WriteStream::write + flush of one pack in the pipeline twin (back-pressure waits included)"),
    layer("vmpi.read_ns_per_block", "ns", Lower, Span, STREAM_PACKS, "ReadStream::read calls that returned a block in the pipeline twin"),
    layer("vmpi.backpressure_waits_per_block", "ratio", Lower, Session, STREAM_PACKS, "vmpi_stream_backpressure_waits_total / blocks_sent"),
    layer("vmpi.eagain_ratio", "ratio", Lower, Session, STREAM_PACKS, "vmpi_stream_eagain_total / reads_total: wasted polls"),
    layer("vmpi.blocks_per_kevent", "count", Lower, Session, STREAM_PACKS, "vmpi_stream_blocks_sent_total per 1000 events"),
    layer("vmpi.retransmits", "count", Lower, Session, STREAM_PACKS, "vmpi_stream_retransmits_total"),
    layer("vmpi.stream_mib_per_s_64k", "MiB/s", Higher, Ledger, RATE_BULK, "1 writer -> 1 reader raw 64 KiB blocks (the Fig. 14 analogue): the ceiling for events_per_s"),
    layer("vmpi.stream_mib_per_s_4k", "MiB/s", Higher, Ledger, RATE_PACKS, "the same with 4 KiB blocks"),
    // runtime
    layer("runtime.inproc_msg_ns_64b", "ns", Lower, Ledger, RATE_RING, "Mpi::send/recv ping-pong, 64 B, two ranks in one process"),
    layer("runtime.inproc_msg_ns_64k", "ns", Lower, Ledger, RATE_BULK, "the same with 64 KiB messages (the in-process block hand-off)"),
    layer("runtime.socket_msg_ns_64k", "ns", Lower, Ledger, RATE_RING, "the same across a Unix-socket mesh (run_multiproc, two thread-hosted processes)"),
    layer("runtime.socket_bytes_per_event", "B", Lower, Session, SOCKET_RING, "transport_socket_bytes_sent_total / events"),
    layer("runtime.socket_retransmits", "count", Lower, Session, SOCKET_RING, "transport_socket_frames_retransmitted_total"),
    // blackboard
    layer("blackboard.post_ns_per_entry", "ns", Lower, Ledger, RATE_PACKS, "Blackboard::post + run_inline with one no-op KS"),
    layer("blackboard.jobs_per_pack", "count", Lower, Session, RATE_PACKS, "blackboard_ks_invocations_total / packs"),
    layer("blackboard.backlog_p99", "count", Lower, Session, RATE_PACKS, "blackboard_job_backlog histogram, p99 bucket bound"),
    layer("blackboard.drain_s", "s", Lower, Session, RATE_PACKS, "outer wall - SessionOutcome::wall_s: engine.finish() after the job ended"),
    // analysis
    layer("analysis.ingest_ns_per_event_64k", "ns", Lower, Ledger, RATE_BULK, "AnalysisEngine::post_block + run_inline + finish, fixed 64 KiB packs, no workers"),
    layer("analysis.ingest_ns_per_event_4k", "ns", Lower, Ledger, RATE_PACKS, "the same with delta 4 KiB packs"),
    layer("analysis.finish_ms", "ms", Lower, Ledger, RATE_PACKS, "AnalysisEngine::finish on a loaded, drained engine"),
    layer("analysis.snapshot_us", "us", Lower, Ledger, LAG_SERVE, "AnalysisEngine::snapshot_partials with ~900 metrics windows"),
    layer("analysis.encode_partials_us", "us", Lower, Ledger, LAG_SERVE, "wire::encode_partials of that snapshot"),
    layer("analysis.partials_bytes", "B", Lower, Ledger, LAG_SERVE, "its encoded size (count)"),
    // metrics
    layer("metrics.fold_ns_per_event", "ns", Lower, Ledger, RATE_RING_TBON, "MetricsSeries::fold_pack over the ring stream, 1 ms windows"),
    layer("metrics.merge_ns_per_window", "ns", Lower, Ledger, RATE_RING_TBON, "MetricsSeries::merge of two ranks' series"),
    layer("metrics.encode_ns_per_window", "ns", Lower, Ledger, RATE_RING_TBON, "MetricsSeries::encode"),
    // reduce
    layer("reduce.merge_ns_per_partial", "ns", Lower, Ledger, RATE_TBON, "Reducible::merge_from on a ReducePartial"),
    layer("reduce.encode_set_us", "us", Lower, Ledger, RATE_TBON, "encode_partial_set"),
    layer("reduce.decode_set_us", "us", Lower, Ledger, RATE_TBON, "decode_partial_set"),
    layer("reduce.bytes_out_per_in", "ratio", Lower, Session, RATE_TBON, "SessionOutcome::reduce_stats: bytes forwarded / bytes received, whole tree"),
    layer("reduce.windows_closed", "count", Lower, Session, RATE_TBON, "SessionOutcome::reduce_stats: aggregation windows closed per segment"),
    // serve
    layer("serve.publish_us", "us", Lower, Ledger, LAG_SERVE, "ShardedStore::publish of snapshots captured every two packs"),
    layer("serve.encode_delta_us", "us", Lower, Ledger, LAG_PACED, "encode_delta between consecutive captured snapshots"),
    layer("serve.apply_delta_us", "us", Lower, Ledger, LAG_PACED, "apply_delta down the chain"),
    layer("serve.delta_bytes_per_update", "B", Lower, Ledger, LAG_PACED, "mean encoded delta size (count)"),
    layer("serve.snapshot_bytes", "B", Lower, Ledger, LAG_RESYNC, "encoded size of the last captured snapshot (count)"),
    layer("serve.lag_p99_us", "us", Lower, Session, LAG_SERVE, "Update::lag_ns p99 (0 below 1000 samples); reported, not gated: it does not repeat within a tenth"),
    layer("serve.lag_max_us", "us", Lower, Session, LAG_SERVE, "Update::lag_ns maximum"),
    layer("query_p50_us", "us", Lower, Session, LAG_SERVE, "closed-loop querier: mean request round trip per iteration, median; demoted from the end-to-end list (undefined on ingest workloads, 35-83 us run to run)"),
    layer("serve.query_p99_us", "us", Lower, Session, LAG_SERVE, "the same, p99"),
    layer("serve.queries_per_s", "1/s", Higher, Session, LAG_SERVE, "requests the querier completed / outer wall"),
    layer("serve.updates_per_s", "1/s", Higher, Session, LAG_SERVE, "updates the subscriber applied / outer wall"),
    layer("serve.resync_ratio", "ratio", Lower, Session, LAG_RESYNC, "resyncs / updates at the subscriber"),
    layer("serve.generator_late_us_p99", "us", Lower, Session, LAG_SERVE, "how late the open-loop generator ran: p99 of round time - 600 us at rank 0"),
    // core
    layer("core.session_launch_ms", "ms", Lower, Ledger, SETUP_ALL, "empty two-rank Session::run(): spawn, map pivot, close"),
    // process and the benchmark itself
    layer("process.peak_rss_mib", "MiB", Lower, Bench, RATE_PACKS, "VmHWM of the benchmark process (the unbounded blackboard backlog lives here)"),
    layer("process.cpu_s_per_mevent", "s", Lower, Bench, RATE_ALL, "process CPU time over the segments / million events"),
    layer("bench.segment_iqr_share", "ratio", Lower, Bench, RATE_ALL, "IQR / median of events_per_s over the run's segments"),
    layer("bench.slow_segments", "count", Lower, Bench, RATE_ALL, "segments slower than 3x the median segment"),
    layer("bench.trace_overhead_pct", "%", Lower, Bench, RATE_ALL, "traced vs untraced events_per_s of the same run"),
    layer("bench.unattributed_share", "ratio", Lower, Bench, RATE_ALL, "share of session.run in which no traced layer was active"),
    layer("bench.twin_events_per_s", "1/s", Higher, Span, RATE_ALL, "events / wall of the pipeline twin the hop spans come from"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_is_named_once_with_unit_direction_and_bound() {
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(!m.what.is_empty());
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "{} listed twice", w.name);
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move_and_where() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} predicts nothing", m.name);
            for (metric, workload) in m.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{}: unknown metric {metric}",
                    m.name
                );
                assert!(
                    *workload == "*" || WORKLOADS.iter().any(|w| w.name == *workload),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
        }
    }
}
