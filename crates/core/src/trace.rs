//! The classical trace-based baseline (Figure 1).
//!
//! Identical instrumentation, but event packs are written to per-rank
//! trace files; analysis happens post-mortem by replaying every file into
//! the same engine. This is the workflow the paper replaces — kept both as
//! the comparison baseline and as the equivalence oracle: the profile
//! computed post-mortem from traces must equal the one computed online
//! from streams.

use crate::driver::{run_program, LiveOptions};
use crate::session::SessionError;
use opmr_analysis::{AnalysisEngine, EngineConfig, MultiReport};
use opmr_instrument::{read_sion, read_trace_file, InstrumentedMpi, RecorderStats, SionFile};
use opmr_netsim::Workload;
use opmr_runtime::{Launcher, Mpi, RankError};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Replays every `*.opmr` trace file in `dir` through a fresh analysis
/// engine (the post-mortem pass).
pub fn analyze_trace_dir(dir: &Path, cfg: EngineConfig) -> std::io::Result<MultiReport> {
    let engine = AnalysisEngine::new(cfg);
    engine.start();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "opmr"))
        .collect();
    entries.sort();
    for path in entries {
        for pack in read_trace_file(&path)? {
            engine.post_block(pack);
        }
    }
    Ok(engine.finish())
}

/// Replays every `*.sion` container in `dir` through a fresh engine.
pub fn analyze_sion_dir(dir: &Path, cfg: EngineConfig) -> std::io::Result<MultiReport> {
    let engine = AnalysisEngine::new(cfg);
    engine.start();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sion"))
        .collect();
    entries.sort();
    for path in entries {
        for (_, rank_chunks) in read_sion(&path)? {
            for pack in rank_chunks {
                engine.post_block(pack);
            }
        }
    }
    Ok(engine.finish())
}

type AppBody = Arc<dyn Fn(&InstrumentedMpi) -> Result<(), RankError> + Send + Sync + 'static>;

struct AppSpec {
    name: String,
    ranks: usize,
    body: AppBody,
}

/// A trace-mode session: same applications, file sink instead of streams.
pub struct TraceSession {
    apps: Vec<AppSpec>,
    dir: PathBuf,
    block_size: usize,
    engine: EngineConfig,
    /// Use one SIONlib-style container per application instead of one file
    /// per rank (the reduced-metadata variant the paper's Score-P runs
    /// use).
    sion: bool,
}

/// Outcome of a trace session.
pub struct TraceOutcome {
    pub report: MultiReport,
    pub recorders: Vec<(String, RecorderStats)>,
    /// Wall time of the instrumented job (excluding post-mortem analysis).
    pub wall_s: f64,
    /// Wall time of the post-mortem analysis pass.
    pub analysis_s: f64,
    /// Total trace bytes on disk.
    pub trace_bytes: u64,
}

impl TraceSession {
    /// Builds a trace session writing under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> TraceSession {
        TraceSession {
            apps: Vec::new(),
            dir: dir.into(),
            block_size: 64 * 1024,
            engine: EngineConfig::default(),
            sion: false,
        }
    }

    /// Switches to the SIONlib-style shared container (one file per
    /// application, multiplexed per-rank chunks).
    pub fn sion(mut self) -> Self {
        self.sion = true;
        self
    }

    /// Pack/block size (bytes).
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes;
        self
    }

    /// Adds an application with a custom body.
    pub fn app<F>(mut self, name: &str, ranks: usize, body: F) -> Self
    where
        F: Fn(&InstrumentedMpi) + Send + Sync + 'static,
    {
        self.apps.push(AppSpec {
            name: name.to_string(),
            ranks,
            body: Arc::new(move |imp| {
                body(imp);
                Ok(())
            }),
        });
        self
    }

    /// Adds an application running a generated workload.
    pub fn app_workload(mut self, name: &str, workload: Workload, opts: LiveOptions) -> Self {
        let ranks = workload.ranks();
        let workload = Arc::new(workload);
        self.apps.push(AppSpec {
            name: name.to_string(),
            ranks,
            body: Arc::new(move |imp| {
                run_program(imp, &workload, imp.rank(), &opts)?;
                Ok(())
            }),
        });
        self
    }

    /// Runs instrumentation to trace files, then the post-mortem analysis.
    pub fn run(self) -> Result<TraceOutcome, SessionError> {
        if self.apps.is_empty() {
            return Err(SessionError::Config("no applications added".into()));
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SessionError::Config(format!("trace dir: {e}")))?;

        let recorders: Arc<Mutex<Vec<(String, RecorderStats)>>> = Arc::new(Mutex::new(Vec::new()));
        let block_size = self.block_size;
        let dir = self.dir.clone();

        let use_sion = self.sion;
        let mut launcher = Launcher::new();
        let mut names = Vec::new();
        for (app_id, spec) in self.apps.into_iter().enumerate() {
            names.push(spec.name.clone());
            let body = spec.body;
            let name = spec.name.clone();
            let recs = Arc::clone(&recorders);
            let dir = dir.clone();
            let container = if use_sion {
                Some(
                    SionFile::create(dir.join(format!("app{app_id}.sion")), spec.ranks as u32)
                        .map_err(|e| SessionError::Config(format!("sion container: {e}")))?,
                )
            } else {
                None
            };
            launcher = launcher.partition_try(&spec.name, spec.ranks, move |mpi: Mpi| {
                let imp = match &container {
                    Some(c) => {
                        InstrumentedMpi::init_sion(mpi, c.clone(), app_id as u16, block_size)?
                    }
                    None => InstrumentedMpi::init_trace(mpi, &dir, app_id as u16, block_size)?,
                };
                body(&imp)?;
                let stats = imp.finalize()?;
                recs.lock().push((name.clone(), stats));
                Ok(())
            });
        }
        let t0 = std::time::Instant::now();
        launcher.run().map_err(SessionError::Launch)?;
        let wall_s = t0.elapsed().as_secs_f64();

        let trace_bytes = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| {
                        e.path()
                            .extension()
                            .is_some_and(|x| x == "opmr" || x == "sion")
                    })
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);

        let t1 = std::time::Instant::now();
        let mut report = if use_sion {
            analyze_sion_dir(&self.dir, self.engine)
                .map_err(|e| SessionError::Config(format!("post-mortem pass: {e}")))?
        } else {
            analyze_trace_dir(&self.dir, self.engine)
                .map_err(|e| SessionError::Config(format!("post-mortem pass: {e}")))?
        };
        let analysis_s = t1.elapsed().as_secs_f64();
        for (app_id, name) in names.iter().enumerate() {
            if let Some(app) = report.apps.iter_mut().find(|a| a.app_id == app_id as u16) {
                app.name = name.clone();
            }
        }

        let mut recorders = Arc::try_unwrap(recorders)
            .map(|m| m.into_inner())
            .unwrap_or_default();
        recorders.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(TraceOutcome {
            report,
            recorders,
            wall_s,
            analysis_s,
            trace_bytes,
        })
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
        assert!(outcome.trace_bytes > 0);
        // Two per-rank trace files exist on disk (the classical workflow).
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "opmr"))
            .collect();
        assert_eq!(files.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_session_rejected() {
        assert!(TraceSession::new(tmpdir("empty")).run().is_err());
    }
}
