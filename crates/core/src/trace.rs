//! The classical trace baseline (Figure 1) as a session sink. A file
//! [`Sink`] writes each rank's packs to a per-rank trace file or to one
//! SIONlib-style container per application, with no analyzer launched;
//! [`Session::replay`] streams such a directory back, one source rank per
//! recorded rank, so post-mortem analysis is an ordinary session (any
//! coupling, tree, wait-state or metrics plane, or serving) and the paper's
//! oracle compares two runs of one pipeline.

use crate::session::{Session, SessionBuilder, SessionError, SessionOutcome};
use bytes::Bytes;
use opmr_instrument::{read_sion, read_trace_file, InstrumentedMpi, SionFile};
use opmr_runtime::{Mpi, RankError};
use opmr_vmpi::{MapPolicy, StreamConfig, Vmpi};
use std::collections::BTreeMap;
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

/// How one rank of an application opens its instrumented handle.
pub(crate) type Opener =
    Box<dyn Fn(Mpi) -> opmr_vmpi::Result<InstrumentedMpi> + Send + Sync + 'static>;

/// The opener of application `app_id`'s `ranks` ranks on `sink`, in `cfg`'s
/// block size and encoding: mapped onto the analyzer with `policy`, or
/// writing under the sink's directory (creating the app's SION container).
pub(crate) fn opener(
    sink: &Sink,
    app_id: u16,
    ranks: usize,
    policy: MapPolicy,
    cfg: StreamConfig,
) -> Result<Opener, SessionError> {
    Ok(match sink {
        Sink::Stream => Box::new(move |mpi| {
            InstrumentedMpi::init_directed(mpi, "Analyzer", policy.clone(), cfg, 0, app_id)
        }),
        Sink::TraceDir(dir) => {
            let dir = dir.clone();
            Box::new(move |mpi| InstrumentedMpi::init_trace(mpi, &dir, app_id, cfg))
        }
        Sink::Sion(dir) => {
            let path = dir.join(format!("app{app_id}.sion"));
            let sion = SionFile::create(&path, ranks as u32).map_err(|e| {
                SessionError::Config(format!("sion container {}: {e}", path.display()))
            })?;
            Box::new(move |mpi| InstrumentedMpi::init_sion(mpi, sion.clone(), app_id, cfg))
        }
    })
}

/// A replay source rank: maps onto the analyzer exactly as an instrumented
/// rank does, then writes its recorded packs (`recorded` holds every
/// rank's), one per block, verbatim.
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
    let mut stream = InstrumentedMpi::open_directed(&vmpi, "Analyzer", policy, cfg, 0)?;
    let mut block = stream.new_block();
    for pack in packs {
        block.extend_from_slice(pack);
        stream.send_block(&mut block)?;
    }
    stream.close()?;
    Ok(())
}

/// One recorded application's packs, rank by rank.
pub(crate) type RankPacks = Vec<Vec<Bytes>>;

/// Reads the recording in `dir`: every `app<a>_rank<r>.opmr` trace file
/// and every `app<a>.sion` container, as `(app id, packs of each rank in
/// rank order)`, ascending by app id. Files with other extensions are
/// ignored; a misnamed or truncated recording file, a rank recorded twice,
/// a rank missing below an app's highest, or no recording at all is a
/// [`SessionError::Recording`] naming the file.
pub(crate) fn read_recording(dir: &Path) -> Result<Vec<(u16, RankPacks)>, SessionError> {
    let bad = |path: &Path, what: String| SessionError::Recording {
        path: path.to_path_buf(),
        what,
    };
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| bad(dir, e.to_string()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut apps: BTreeMap<u16, BTreeMap<u32, Vec<Bytes>>> = BTreeMap::new();
    let mut containers: BTreeMap<u16, &Path> = BTreeMap::new();
    for path in &paths {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("");
        let name_err = |want: &str| bad(path, format!("not named {want}"));
        let (app, ranks) = match ext {
            "opmr" => {
                let (app, rank) = stem
                    .strip_prefix("app")
                    .and_then(|s| s.split_once("_rank"))
                    .and_then(|(a, r)| Some((a.parse().ok()?, r.parse().ok()?)))
                    .ok_or_else(|| name_err("app<a>_rank<r>.opmr"))?;
                let packs = read_trace_file(path).map_err(|e| bad(path, e.to_string()))?;
                (app, vec![(rank, packs)])
            }
            "sion" => {
                let app = stem
                    .strip_prefix("app")
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| name_err("app<a>.sion"))?;
                containers.insert(app, path);
                (app, read_sion(path).map_err(|e| bad(path, e.to_string()))?)
            }
            _ => continue,
        };
        let recorded = apps.entry(app).or_default();
        for (rank, packs) in ranks {
            if recorded.insert(rank, packs).is_some() {
                return Err(bad(path, format!("app {app} rank {rank} recorded twice")));
            }
        }
    }
    if apps.is_empty() {
        return Err(bad(dir, "no app<a>_rank<r>.opmr or app<a>.sion".into()));
    }
    apps.into_iter()
        .map(|(app, ranks)| {
            // Ranks come out ascending, so the first gap is the first rank
            // that differs from its index.
            if let Some(missing) = (0u32..).zip(ranks.keys()).find(|(i, r)| i != *r) {
                let path = containers.get(&app).map_or_else(
                    || dir.join(format!("app{app}_rank{}.opmr", missing.0)),
                    |p| p.to_path_buf(),
                );
                return Err(bad(&path, format!("app {app} has no rank {}", missing.0)));
            }
            Ok((app, ranks.into_values().collect()))
        })
        .collect()
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
