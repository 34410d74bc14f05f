//! Selective-trace IO proxy (the paper's Section VI future work: "a
//! module, acting as an IO proxy, to generate selective traces in the OTF2
//! format in order to combine our analysis with existing tools such as
//! Vampir").
//!
//! The proxy is a knowledge source that subscribes to the decoded event
//! stream, applies a *selection predicate* (call class, rank subset, time
//! window) and re-encodes only the surviving events into pack files — so a
//! user can keep the zero-trace online workflow and still extract a small
//! replayable trace of just the interesting region.

use opmr_events::recording;
use opmr_events::{Event, EventKind, EventPack};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Selection predicate for the proxy.
#[derive(Clone, Default)]
pub struct Selection {
    /// Keep events of these kinds (None = all kinds).
    pub kinds: Option<Vec<EventKind>>,
    /// Keep events of ranks below this bound (None = all ranks).
    pub max_rank: Option<u32>,
    /// Keep events starting within `[from_ns, to_ns)` (None = all times).
    pub window_ns: Option<(u64, u64)>,
    /// Keep only events moving at least this many bytes.
    pub min_bytes: u64,
}

impl Selection {
    /// Does an event survive the selection?
    pub fn keep(&self, e: &Event) -> bool {
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&e.kind) {
                return false;
            }
        }
        if let Some(max) = self.max_rank {
            if e.rank >= max {
                return false;
            }
        }
        if let Some((from, to)) = self.window_ns {
            if e.time_ns < from || e.time_ns >= to {
                return false;
            }
        }
        e.bytes >= self.min_bytes
    }
}

/// Shared state of the proxy (a KS closure and the finalizer both hold it).
pub struct TraceProxy {
    inner: Arc<ProxyInner>,
}

struct ProxyInner {
    selection: Selection,
    path: PathBuf,
    state: Mutex<ProxyState>,
}

struct ProxyState {
    buf: Vec<Event>,
    seq: u32,
    written_events: u64,
    seen_events: u64,
    /// Unbuffered: a pack the write accepted is in the file.
    file: Option<std::fs::File>,
}

/// Events per emitted pack.
const PACK_EVENTS: usize = 512;

/// Counts one proxy file that could not be created, or one pack it could
/// not write (its events are seen but not written).
fn failed() {
    opmr_obs::registry()
        .counter("analysis_trace_proxy_failures_total")
        .inc();
}

impl TraceProxy {
    /// Creates a proxy writing selected events (the trace-file format of
    /// [`recording`]) to `path`. A failure is counted.
    pub fn create(path: impl AsRef<Path>, selection: Selection) -> std::io::Result<TraceProxy> {
        let path = path.as_ref().to_path_buf();
        let file = recording::create(&path).inspect_err(|_| failed())?;
        Ok(TraceProxy {
            inner: Arc::new(ProxyInner {
                selection,
                path,
                state: Mutex::new(ProxyState {
                    buf: Vec::with_capacity(PACK_EVENTS),
                    seq: 0,
                    written_events: 0,
                    seen_events: 0,
                    file: Some(file),
                }),
            }),
        })
    }

    /// Feeds a batch of decoded events (what the KS closure calls).
    pub fn offer(&self, app_id: u16, events: &[Event]) {
        let mut st = self.inner.state.lock();
        for e in events {
            st.seen_events += 1;
            if self.inner.selection.keep(e) {
                st.buf.push(*e);
                if st.buf.len() >= PACK_EVENTS {
                    Self::flush_locked(&mut st, app_id);
                }
            }
        }
    }

    fn flush_locked(st: &mut ProxyState, app_id: u16) {
        let Some(rank) = st.buf.first().map(|e| e.rank) else {
            return;
        };
        let events = std::mem::replace(&mut st.buf, Vec::with_capacity(PACK_EVENTS));
        let n = events.len() as u64;
        let pack = EventPack::new(app_id, rank, st.seq, events).encode();
        st.seq += 1;
        match st.file.as_mut().map(|f| recording::write_pack(f, &pack)) {
            Some(Ok(())) => st.written_events += n,
            _ => failed(),
        }
    }

    /// Writes the last pack and closes the file; returns `(seen,
    /// written)`, an event being written once the file accepted its pack.
    pub fn finish(&self, app_id: u16) -> (u64, u64) {
        let mut st = self.inner.state.lock();
        Self::flush_locked(&mut st, app_id);
        st.file = None;
        (st.seen_events, st.written_events)
    }

    /// Destination path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// A shareable handle for KS closures.
    pub fn handle(&self) -> TraceProxy {
        TraceProxy {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, rank: u32, t: u64, bytes: u64) -> Event {
        Event {
            time_ns: t,
            duration_ns: 10,
            kind,
            rank,
            peer: 0,
            tag: 0,
            comm: 0,
            bytes,
        }
    }

    /// Reads a proxy trace back.
    fn read_proxy_trace(path: &Path) -> Vec<EventPack> {
        let packs = recording::read_trace_file(path).unwrap();
        packs
            .iter()
            .map(|p| EventPack::decode(p).unwrap())
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("opmr_proxy_{name}_{}", std::process::id()))
    }

    #[test]
    fn selection_predicates() {
        let sel = Selection {
            kinds: Some(vec![EventKind::Send]),
            max_rank: Some(4),
            window_ns: Some((100, 200)),
            min_bytes: 10,
        };
        assert!(sel.keep(&ev(EventKind::Send, 0, 150, 64)));
        assert!(!sel.keep(&ev(EventKind::Recv, 0, 150, 64)), "kind filter");
        assert!(!sel.keep(&ev(EventKind::Send, 4, 150, 64)), "rank filter");
        assert!(!sel.keep(&ev(EventKind::Send, 0, 250, 64)), "window filter");
        assert!(!sel.keep(&ev(EventKind::Send, 0, 150, 5)), "size filter");
    }

    #[test]
    fn roundtrip_selected_events() {
        let path = tmp("roundtrip");
        let proxy = TraceProxy::create(
            &path,
            Selection {
                kinds: Some(vec![EventKind::Send]),
                ..Selection::default()
            },
        )
        .unwrap();
        let events: Vec<Event> = (0..1000)
            .map(|i| {
                ev(
                    if i % 2 == 0 {
                        EventKind::Send
                    } else {
                        EventKind::Recv
                    },
                    i % 8,
                    i as u64,
                    64,
                )
            })
            .collect();
        proxy.offer(3, &events);
        let (seen, written) = proxy.finish(3);
        assert_eq!(seen, 1000);
        assert_eq!(written, 500);

        let packs = read_proxy_trace(&path);
        let back: Vec<Event> = packs
            .iter()
            .flat_map(|p| p.events.iter().copied())
            .collect();
        assert_eq!(back.len(), 500);
        assert!(back.iter().all(|e| e.kind == EventKind::Send));
        assert!(packs.iter().all(|p| p.header.app_id == 3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_selection_writes_nothing() {
        let path = tmp("empty");
        let proxy = TraceProxy::create(
            &path,
            Selection {
                min_bytes: u64::MAX,
                ..Selection::default()
            },
        )
        .unwrap();
        proxy.offer(0, &[ev(EventKind::Send, 0, 0, 64)]);
        let (seen, written) = proxy.finish(0);
        assert_eq!((seen, written), (1, 0));
        assert!(read_proxy_trace(&path).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn handles_share_state() {
        let path = tmp("share");
        let proxy = TraceProxy::create(&path, Selection::default()).unwrap();
        let h = proxy.handle();
        h.offer(0, &[ev(EventKind::Send, 0, 0, 64)]);
        proxy.offer(0, &[ev(EventKind::Recv, 1, 1, 64)]);
        let (seen, written) = proxy.finish(0);
        assert_eq!((seen, written), (2, 2));
        std::fs::remove_file(&path).unwrap();
    }

    /// A pack the file refuses is counted, and its events are seen but not
    /// written.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_is_counted_not_written() {
        let failures = opmr_obs::registry().counter("analysis_trace_proxy_failures_total");
        let before = failures.get();
        let proxy = TraceProxy::create("/dev/full", Selection::default()).unwrap();
        let events: Vec<Event> = (0..1000).map(|i| ev(EventKind::Send, 0, i, 64)).collect();
        proxy.offer(0, &events);
        assert_eq!(proxy.finish(0), (1000, 0));
        assert!(failures.get() - before >= 2, "both packs counted");
        // A proxy that cannot be created is counted too.
        assert!(TraceProxy::create("/dev/null/x", Selection::default()).is_err());
        assert!(failures.get() - before >= 3);
    }
}
