//! The classical trace baseline (Figure 1) as a session sink. A file
//! [`Sink`] writes each rank's packs to a per-rank trace file or to one
//! SIONlib-style container per application, with no analyzer launched;
//! [`Session::replay`] streams such a directory back, one source rank per
//! recorded rank, so post-mortem analysis is an ordinary session (any
//! coupling, tree, wait-state or metrics plane, or serving) and the paper's
//! oracle compares two runs of one pipeline.

use crate::session::{Session, SessionBuilder, SessionError, SessionOutcome};
use bytes::Bytes;
use opmr_events::recording::{self, RankPacks, RecordingError, RecordingFile, SionFile};
use opmr_instrument::{InstrumentedMpi, PackSink};
use opmr_runtime::{Mpi, RankError};
use opmr_vmpi::{MapPolicy, StreamConfig, Vmpi, VmpiError};
use std::path::{Path, PathBuf};

/// Where a session's instrumented applications write their packs.
#[derive(Debug, Clone, PartialEq)]
pub enum Sink {
    /// Online coupling: one pack per block of the analyzer's stream.
    Stream,
    /// One trace file per rank, `dir/app<a>_rank<r>.opmr`.
    TraceDir(PathBuf),
    /// One SIONlib-style container per application, `dir/app<a>.sion`.
    Sion(PathBuf),
}

/// How one rank of an application opens its pack sink.
pub(crate) type Opener = Box<dyn Fn(&Vmpi) -> opmr_vmpi::Result<PackSink> + Send + Sync>;

/// The pack sink of application `app_id`'s `ranks` ranks on `sink`: the
/// analyzer's stream mapped with `policy` in `cfg`, or a file under the
/// sink's directory (creating the app's SION container).
pub(crate) fn opener(
    sink: &Sink,
    app_id: u16,
    ranks: usize,
    policy: MapPolicy,
    cfg: StreamConfig,
) -> Result<Opener, SessionError> {
    Ok(match sink {
        Sink::Stream => Box::new(move |v| PackSink::stream(v, "Analyzer", policy.clone(), cfg)),
        Sink::TraceDir(dir) => {
            let dir = dir.clone();
            Box::new(move |v| {
                let rank = v.rank() as u32;
                let path = RecordingFile::Rank { app: app_id, rank }.path(&dir);
                PackSink::file(&path).map_err(|e| VmpiError::io(&path, e))
            })
        }
        Sink::Sion(dir) => {
            let path = RecordingFile::Sion { app: app_id }.path(dir);
            let file = SionFile::create(&path, ranks as u32)
                .map_err(|e| SessionError::Vmpi(VmpiError::io(&path, e)))?;
            Box::new(move |v| {
                let (file, rank) = (file.clone(), v.rank() as u32);
                Ok(PackSink::Sion { file, rank })
            })
        }
    })
}

/// A replay source rank: opens the analyzer's stream exactly as an
/// instrumented rank does, then writes its recorded packs (`recorded`
/// holds every rank's), one per block, verbatim.
pub(crate) fn replay_rank(
    mpi: Mpi,
    recorded: &[Vec<Bytes>],
    policy: MapPolicy,
    cfg: StreamConfig,
) -> Result<(), RankError> {
    let vmpi = Vmpi::new(mpi)?;
    let packs = recorded
        .get(vmpi.rank())
        .ok_or("replay rank outside the recording")?;
    let mut sink = PackSink::stream(&vmpi, "Analyzer", policy, cfg)?;
    let mut block = sink.new_block(cfg.block_size);
    let head = block.len();
    for pack in packs {
        block.truncate(head);
        block.extend_from_slice(pack);
        sink.put(&mut block)?;
    }
    sink.close()?;
    Ok(())
}

/// Reads the recording in `dir` (see [`recording::read_dir`]); a bad one
/// is a [`SessionError::Recording`] naming the file.
pub(crate) fn read_recording(dir: &Path) -> Result<Vec<(u16, RankPacks)>, SessionError> {
    recording::read_dir(dir)
        .map_err(|RecordingError { path, what }| SessionError::Recording { path, what })
}

/// The trace-file baseline as a preset: record the applications with a
/// [`Sink::TraceDir`] session, analyze the directory with
/// [`Session::replay`], and name the report's chapters after the
/// applications.
pub struct TraceSession {
    dir: PathBuf,
    record: SessionBuilder,
    names: Vec<String>,
}

impl TraceSession {
    /// A trace session writing under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> TraceSession {
        let dir = dir.into();
        TraceSession {
            record: Session::builder().sink(Sink::TraceDir(dir.clone())),
            dir,
            names: Vec::new(),
        }
    }

    /// Pack/block size (bytes).
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.record = self.record.stream_config(StreamConfig {
            block_size: bytes,
            ..StreamConfig::default()
        });
        self
    }

    /// Adds an application with a custom body.
    pub fn app<F>(mut self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&InstrumentedMpi) + Send + Sync + 'static,
    {
        self.names.push(name.to_string());
        self.record = self.record.app(name, ranks, body);
        self
    }

    /// Records to trace files, then replays them. The outcome is the
    /// replay's, with the recording's recorder totals.
    pub fn run(self) -> Result<SessionOutcome, SessionError> {
        let recorded = self.record.run()?;
        let mut outcome = Session::replay(&self.dir).run()?;
        for app in &mut outcome.report.apps {
            if let Some(name) = self.names.get(usize::from(app.app_id)) {
                app.name.clone_from(name);
            }
        }
        outcome.recorders = recorded.recorders;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opmr_events::EventKind;
    use opmr_runtime::{Src, TagSel};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("opmr_trace_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn trace_session_produces_report_and_files() {
        let dir = tmpdir("basic");
        let outcome = TraceSession::new(&dir)
            .app("pingpong", 2, |imp| {
                let w = imp.comm_world();
                if imp.rank() == 0 {
                    imp.send(&w, 1, 5, vec![1u8; 128]).unwrap();
                } else {
                    imp.recv(&w, Src::Rank(0), TagSel::Tag(5)).unwrap();
                }
            })
            .run()
            .unwrap();
        assert_eq!(outcome.report.apps.len(), 1);
        let app = &outcome.report.apps[0];
        assert_eq!(app.name, "pingpong");
        assert_eq!(app.profile.kind(EventKind::Send).unwrap().hits, 1);
        // Two per-rank trace files exist on disk (the classical workflow),
        // holding every byte the recorders wrote plus a length per pack.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "opmr"))
            .collect();
        assert_eq!(files.len(), 2);
        let on_disk: u64 = files.iter().map(|e| e.metadata().unwrap().len()).sum();
        let (packs, wire): (u64, u64) = outcome
            .recorders
            .iter()
            .fold((0, 0), |(p, w), (_, s)| (p + s.packs, w + s.wire_bytes));
        assert!(wire > 0);
        assert_eq!(on_disk, wire + 4 * packs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_session_rejected() {
        assert!(TraceSession::new(tmpdir("empty")).run().is_err());
    }
}
