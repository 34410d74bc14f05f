//! The recording: what the trace baseline (Figure 1) leaves on disk, and
//! the one place its bytes and file names are written and parsed.
//!
//! A recording directory holds, for each application `a`, one trace file
//! per rank, `app<a>_rank<r>.opmr`, or one SIONlib-style container for
//! all of its ranks, `app<a>.sion`. A trace proxy's selected events land
//! as `app<a>_selected.opmr`: a trace file, but no rank of a recording.
//!
//! ```text
//! trace file:  repeat: [len u32] [pack bytes]
//! container:   [magic "OPSN"] [ranks u32]
//!              repeat: [rank u32] [len u32] [pack bytes]
//! ```
//!
//! Integers are little-endian. Container writers share one handle; each
//! pack is appended as one chunk under a short lock (the in-process
//! equivalent of SIONlib's pre-reserved block ranges), so the file system
//! sees one file instead of one per rank — trading metadata pressure for
//! coordination. A reader demultiplexes chunks back per rank, preserving
//! each rank's write order.

use crate::wire::{Reader, Truncated};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

const SION_MAGIC: &[u8; 4] = b"OPSN";

/// One file of a recording directory, as its name says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordingFile {
    /// `app<a>_rank<r>.opmr`: one rank's trace file.
    Rank { app: u16, rank: u32 },
    /// `app<a>.sion`: one application's container.
    Sion { app: u16 },
    /// `app<a>_selected.opmr`: a trace proxy's selected events.
    Selected { app: u16 },
}

impl RecordingFile {
    /// The file's path under `dir`.
    pub fn path(self, dir: &Path) -> PathBuf {
        dir.join(match self {
            RecordingFile::Rank { app, rank } => format!("app{app}_rank{rank}.opmr"),
            RecordingFile::Sion { app } => format!("app{app}.sion"),
            RecordingFile::Selected { app } => format!("app{app}_selected.opmr"),
        })
    }

    /// What `path` names: `None` for no recording file (another
    /// extension), `Err` with the expected pattern for a misnamed one.
    pub fn parse(path: &Path) -> Option<Result<RecordingFile, &'static str>> {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let app = |s: &str| s.strip_prefix("app")?.parse().ok();
        Some(match path.extension().and_then(|s| s.to_str())? {
            "opmr" => match stem.strip_suffix("_selected").and_then(app) {
                Some(app) => Ok(RecordingFile::Selected { app }),
                None => stem
                    .split_once("_rank")
                    .and_then(|(a, r)| Some((app(a)?, r.parse().ok()?)))
                    .map(|(app, rank)| RecordingFile::Rank { app, rank })
                    .ok_or("app<a>_rank<r>.opmr"),
            },
            "sion" => app(stem)
                .map(|app| RecordingFile::Sion { app })
                .ok_or("app<a>.sion"),
            _ => return None,
        })
    }
}

/// Creates (truncates) the file at `path` and any missing parent.
pub fn create(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    File::create(path)
}

/// Appends one pack to a trace file: `[len u32][pack]`.
pub fn write_pack(w: &mut impl Write, pack: &[u8]) -> io::Result<()> {
    w.write_all(&(pack.len() as u32).to_le_bytes())?;
    w.write_all(pack)
}

/// Splits trace-file bytes into their packs. A pack or a length prefix cut
/// at the tail is [`Truncated`].
pub fn parse_trace(data: &[u8]) -> Result<Vec<Bytes>, Truncated> {
    let mut r = Reader::new(data);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let len = r.u32()? as usize;
        out.push(Bytes::copy_from_slice(r.bytes(len)?));
    }
    Ok(out)
}

/// Reads every pack back from a trace file.
pub fn read_trace_file(path: &Path) -> io::Result<Vec<Bytes>> {
    parse_trace(&std::fs::read(path)?).map_err(|t| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated trace {path:?}: {t}"),
        )
    })
}

/// Shared writer for one container file.
#[derive(Clone)]
pub struct SionFile {
    path: Arc<Path>,
    state: Arc<Mutex<SionState>>,
}

struct SionState {
    file: Option<BufWriter<File>>,
    open_ranks: u32,
}

impl SionFile {
    /// Creates the container for `ranks` writers.
    pub fn create(path: impl Into<PathBuf>, ranks: u32) -> io::Result<SionFile> {
        let path: PathBuf = path.into();
        let mut file = BufWriter::new(create(&path)?);
        file.write_all(SION_MAGIC)?;
        file.write_all(&ranks.to_le_bytes())?;
        Ok(SionFile {
            path: path.into(),
            state: Arc::new(Mutex::new(SionState {
                file: Some(file),
                open_ranks: ranks,
            })),
        })
    }

    /// The container's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one chunk for `rank`.
    pub fn write(&self, rank: u32, payload: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        let file = st
            .file
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "sion container closed"))?;
        file.write_all(&rank.to_le_bytes())?;
        write_pack(file, payload)
    }

    /// One writer detaches; the container flushes and closes when the last
    /// writer leaves.
    pub fn close_rank(&self) -> io::Result<()> {
        let mut st = self.state();
        st.open_ranks = st.open_ranks.saturating_sub(1);
        if st.open_ranks > 0 {
            return Ok(());
        }
        st.file.take().map_or(Ok(()), |mut f| f.flush())
    }
}

/// Demultiplexes a container file (see [`parse_sion`]).
pub fn read_sion(path: &Path) -> io::Result<Vec<(u32, Vec<Bytes>)>> {
    parse_sion(&std::fs::read(path)?)
}

/// Demultiplexes container bytes: `(rank, chunks)` for every rank that
/// wrote, ascending, each rank's chunks in write order. A rank that wrote
/// nothing has no entry, so what is allocated is bounded by the bytes
/// present, whatever rank count the header claims.
pub fn parse_sion(data: &[u8]) -> io::Result<Vec<(u32, Vec<Bytes>)>> {
    use io::{Error, ErrorKind};
    let truncated = |t: Truncated| Error::new(ErrorKind::UnexpectedEof, t);
    let mut r = Reader::new(data);
    if r.bytes(4).map_err(truncated)? != SION_MAGIC.as_slice() {
        return Err(Error::new(ErrorKind::InvalidData, "bad sion magic"));
    }
    let ranks = r.u32().map_err(truncated)?;
    let mut out: BTreeMap<u32, Vec<Bytes>> = BTreeMap::new();
    while r.remaining() > 0 {
        let rank = r.u32().map_err(truncated)?;
        let len = r.u32().map_err(truncated)? as usize;
        let chunk = r.bytes(len).map_err(truncated)?;
        if rank >= ranks {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("chunk for rank {rank} of {ranks}"),
            ));
        }
        out.entry(rank)
            .or_default()
            .push(Bytes::copy_from_slice(chunk));
    }
    Ok(out.into_iter().collect())
}

/// A recording that cannot be read, and the file at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingError {
    pub path: PathBuf,
    pub what: String,
}

/// One recorded application's packs, rank by rank.
pub type RankPacks = Vec<Vec<Bytes>>;

/// Reads the recording in `dir`: every trace file and container, as
/// `(app id, packs of each rank in rank order)`, ascending by app id.
/// Files with other extensions are ignored; a misnamed or truncated
/// recording file (a trace proxy's selection included), a rank recorded
/// twice, a rank missing below an app's highest, or no recording at all
/// is a [`RecordingError`] naming the file.
pub fn read_dir(dir: &Path) -> Result<Vec<(u16, RankPacks)>, RecordingError> {
    let bad = |path: &Path, what: String| RecordingError {
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
        let read_err = |e: io::Error| bad(path, e.to_string());
        let (app, ranks) = match RecordingFile::parse(path) {
            None => continue,
            Some(Err(want)) => return Err(bad(path, format!("not named {want}"))),
            Some(Ok(RecordingFile::Selected { .. })) => {
                return Err(bad(path, "a trace proxy's selection, not a rank".into()))
            }
            Some(Ok(RecordingFile::Rank { app, rank })) => {
                (app, vec![(rank, read_trace_file(path).map_err(read_err)?)])
            }
            Some(Ok(RecordingFile::Sion { app })) => {
                containers.insert(app, path);
                (app, read_sion(path).map_err(read_err)?)
            }
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
            if let Some((rank, _)) = (0u32..).zip(ranks.keys()).find(|(i, r)| i != *r) {
                let path = containers.get(&app).map_or_else(
                    || RecordingFile::Rank { app, rank }.path(dir),
                    |p| p.to_path_buf(),
                );
                return Err(bad(&path, format!("app {app} has no rank {rank}")));
            }
            Ok((app, ranks.into_values().collect()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("opmr_recording_{name}_{}", std::process::id()))
    }

    #[test]
    fn names_roundtrip_and_misnames_are_typed() {
        let dir = Path::new("rec");
        for file in [
            RecordingFile::Rank { app: 3, rank: 17 },
            RecordingFile::Sion { app: 0 },
            RecordingFile::Selected { app: 65535 },
        ] {
            assert_eq!(RecordingFile::parse(&file.path(dir)), Some(Ok(file)));
        }
        assert_eq!(RecordingFile::parse(Path::new("rec/notes.txt")), None);
        assert_eq!(RecordingFile::parse(Path::new("rec/noext")), None);
        for (name, want) in [
            ("app0.opmr", "app<a>_rank<r>.opmr"),
            ("rank0.opmr", "app<a>_rank<r>.opmr"),
            ("app0_rankx.opmr", "app<a>_rank<r>.opmr"),
            ("app70000_rank0.opmr", "app<a>_rank<r>.opmr"),
            ("appx.sion", "app<a>.sion"),
        ] {
            assert_eq!(RecordingFile::parse(Path::new(name)), Some(Err(want)));
        }
    }

    #[test]
    fn trace_file_roundtrip() {
        let path = tmp("trace").join("rank0.opmr");
        let packs = [
            Bytes::from_static(b"first"),
            Bytes::from_static(b""),
            Bytes::from(vec![7u8; 1000]),
        ];
        let mut file = BufWriter::new(create(&path).unwrap());
        for p in &packs {
            write_pack(&mut file, p).unwrap();
        }
        drop(file);
        assert_eq!(read_trace_file(&path).unwrap(), packs);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_trace_detected() {
        let path = tmp("cut");
        std::fs::write(&path, [10, 0, 0, 0, 1, 2]).unwrap();
        assert!(read_trace_file(&path).is_err());
        std::fs::remove_file(&path).unwrap();
        // A length prefix cut at the tail is an error too, not a silent
        // end of the trace.
        assert!(parse_trace(&[1, 0, 0, 0, 7, 2, 0]).is_err());
    }

    #[test]
    fn multiplex_roundtrip_preserves_per_rank_order() {
        let path = tmp("order");
        let sion = SionFile::create(&path, 3).unwrap();
        assert_eq!(sion.path(), path);
        // Interleaved writes from 3 "ranks".
        for i in 0..10u8 {
            for rank in 0..3u32 {
                sion.write(rank, &[rank as u8, i]).unwrap();
            }
        }
        for _ in 0..3 {
            sion.close_rank().unwrap();
        }
        let per_rank = read_sion(&path).unwrap();
        assert_eq!(per_rank.len(), 3);
        for (rank, chunks) in &per_rank {
            assert_eq!(chunks.len(), 10);
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(&c[..], &[*rank as u8, i as u8]);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_writers_one_file() {
        let path = tmp("concurrent");
        let sion = SionFile::create(&path, 8).unwrap();
        let mut handles = Vec::new();
        for rank in 0..8u32 {
            let s = sion.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    s.write(rank, &i.to_le_bytes()).unwrap();
                }
                s.close_rank().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let per_rank = read_sion(&path).unwrap();
        assert_eq!(per_rank.iter().map(|(_, c)| c.len()).sum::<usize>(), 400);
        for (_, chunks) in &per_rank {
            assert_eq!(chunks.len(), 50);
            // Per-rank order preserved even under interleaving.
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c[..], (i as u32).to_le_bytes());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_after_close_fails() {
        let path = tmp("closed");
        let sion = SionFile::create(&path, 1).unwrap();
        sion.write(0, b"x").unwrap();
        sion.close_rank().unwrap();
        assert!(sion.write(0, b"y").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_containers_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"NOPE1234").unwrap();
        assert!(read_sion(&path).is_err());
        std::fs::write(&path, []).unwrap();
        assert!(read_sion(&path).is_err());
        std::fs::remove_file(&path).unwrap();

        let header = |ranks: u32| [&SION_MAGIC[..], &ranks.to_le_bytes()].concat();
        // A chunk for a rank past the header's count, and a chunk header
        // cut at the tail, are errors.
        let mut bad_rank = header(2);
        bad_rank.extend([2, 0, 0, 0, 0, 0, 0, 0]);
        assert!(parse_sion(&bad_rank).is_err());
        let mut cut = header(2);
        cut.extend([1, 0, 0]);
        assert!(parse_sion(&cut).is_err());
        // Ranks that wrote nothing cost nothing, however many are claimed.
        assert_eq!(parse_sion(&header(u32::MAX)).unwrap(), vec![]);
    }

    #[test]
    fn one_file_many_ranks_is_the_point() {
        // The metadata argument: 64 writers, still one inode.
        let path = tmp("inode");
        let sion = SionFile::create(&path, 64).unwrap();
        for rank in 0..64u32 {
            sion.write(rank, &[0u8; 100]).unwrap();
        }
        for _ in 0..64 {
            sion.close_rank().unwrap();
        }
        assert!(path.is_file());
        assert_eq!(read_sion(&path).unwrap().len(), 64);
        std::fs::remove_file(&path).unwrap();
    }
}
