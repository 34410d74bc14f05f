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

use opmr_events::{Event, EventKind, EventPack};
use parking_lot::Mutex;
use std::io::Write;
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
    file: Option<std::io::BufWriter<std::fs::File>>,
}

/// Events per emitted pack.
const PACK_EVENTS: usize = 512;

impl TraceProxy {
    /// Creates a proxy writing selected events (length-prefixed packs, the
    /// same `.opmr` format the trace baseline uses) to `path`.
    pub fn create(path: impl AsRef<Path>, selection: Selection) -> std::io::Result<TraceProxy> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
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
        if st.buf.is_empty() {
            return;
        }
        let events = std::mem::take(&mut st.buf);
        st.written_events += events.len() as u64;
        let rank = events.first().map(|e| e.rank).unwrap_or(0);
        let pack = EventPack::new(app_id, rank, st.seq, events);
        st.seq += 1;
        let encoded = pack.encode();
        if let Some(f) = st.file.as_mut() {
            let _ = f.write_all(&(encoded.len() as u32).to_le_bytes());
            let _ = f.write_all(&encoded);
        }
        st.buf = Vec::with_capacity(PACK_EVENTS);
    }

    /// Flushes and closes the file; returns `(seen, written)` counts.
    pub fn finish(&self, app_id: u16) -> std::io::Result<(u64, u64)> {
        let mut st = self.inner.state.lock();
        Self::flush_locked(&mut st, app_id);
        if let Some(mut f) = st.file.take() {
            f.flush()?;
        }
        Ok((st.seen_events, st.written_events))
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
    use opmr_events::wire::Reader;

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
    fn read_proxy_trace(path: &Path) -> std::io::Result<Vec<EventPack>> {
        let data = std::fs::read(path)?;
        let truncated =
            |_| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated proxy trace");
        let mut out = Vec::new();
        let mut r = Reader::new(&data);
        while r.remaining() >= 4 {
            let len = r.u32().map_err(truncated)? as usize;
            let pack = EventPack::decode(r.bytes(len).map_err(truncated)?).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad pack: {e}"))
            })?;
            out.push(pack);
        }
        Ok(out)
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
        let (seen, written) = proxy.finish(3).unwrap();
        assert_eq!(seen, 1000);
        assert_eq!(written, 500);

        let packs = read_proxy_trace(&path).unwrap();
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
        let (seen, written) = proxy.finish(0).unwrap();
        assert_eq!((seen, written), (1, 0));
        assert!(read_proxy_trace(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn handles_share_state() {
        let path = tmp("share");
        let proxy = TraceProxy::create(&path, Selection::default()).unwrap();
        let h = proxy.handle();
        h.offer(0, &[ev(EventKind::Send, 0, 0, 64)]);
        proxy.offer(0, &[ev(EventKind::Recv, 1, 1, 64)]);
        let (seen, written) = proxy.finish(0).unwrap();
        assert_eq!((seen, written), (2, 2));
        std::fs::remove_file(&path).unwrap();
    }
}
