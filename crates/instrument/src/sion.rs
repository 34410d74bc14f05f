//! SIONlib-style multiplexed trace container.
//!
//! The paper's trace-based comparisons use SIONlib ("Scalable massively
//! parallel I/O to task-local files"): all ranks write into *one* shared
//! container file with per-rank chunks, so the file system sees one file
//! instead of `P` — trading metadata pressure for coordination. This
//! module implements that container for the trace baseline:
//!
//! ```text
//! [magic u32 "OPSN"] [ranks u32]
//! repeat: [rank u32] [len u32] [payload bytes]
//! ```
//!
//! Writers share a handle; each `write` appends one framed chunk under a
//! short lock (the in-process equivalent of SIONlib's pre-reserved block
//! ranges). Readers demultiplex chunks back per rank, preserving each
//! rank's write order.

use bytes::Bytes;
use opmr_events::wire::{Reader, Truncated};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"OPSN";

/// Shared writer for one multiplexed container file.
#[derive(Clone)]
pub struct SionFile {
    state: Arc<Mutex<SionState>>,
}

struct SionState {
    file: Option<std::io::BufWriter<std::fs::File>>,
    open_ranks: u32,
}

impl SionFile {
    /// Creates the container for `ranks` writers.
    pub fn create(path: impl Into<PathBuf>, ranks: u32) -> std::io::Result<SionFile> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        file.write_all(MAGIC)?;
        file.write_all(&ranks.to_le_bytes())?;
        Ok(SionFile {
            state: Arc::new(Mutex::new(SionState {
                file: Some(file),
                open_ranks: ranks,
            })),
        })
    }

    /// Appends one chunk for `rank`.
    pub fn write(&self, rank: u32, payload: &[u8]) -> std::io::Result<()> {
        let mut st = self.state.lock();
        let file = st.file.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "sion container closed")
        })?;
        file.write_all(&rank.to_le_bytes())?;
        file.write_all(&(payload.len() as u32).to_le_bytes())?;
        file.write_all(payload)?;
        Ok(())
    }

    /// One writer detaches; the container flushes and closes when the last
    /// writer leaves.
    pub fn close_rank(&self) -> std::io::Result<()> {
        let mut st = self.state.lock();
        st.open_ranks = st.open_ranks.saturating_sub(1);
        if st.open_ranks == 0 {
            if let Some(mut f) = st.file.take() {
                f.flush()?;
            }
        }
        Ok(())
    }
}

/// Demultiplexes a container file (see [`parse_sion`]).
pub fn read_sion(path: &Path) -> std::io::Result<Vec<(u32, Vec<Bytes>)>> {
    parse_sion(&std::fs::read(path)?)
}

/// Demultiplexes container bytes: `(rank, chunks)` for every rank that
/// wrote, ascending, each rank's chunks in write order. A rank that wrote
/// nothing has no entry, so what is allocated is bounded by the bytes
/// present, whatever rank count the header claims.
pub fn parse_sion(data: &[u8]) -> std::io::Result<Vec<(u32, Vec<Bytes>)>> {
    use std::io::{Error, ErrorKind};
    let truncated = |t: Truncated| Error::new(ErrorKind::UnexpectedEof, t);
    let mut r = Reader::new(data);
    if r.bytes(4).map_err(truncated)? != MAGIC.as_slice() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("opmr_sion_{name}_{}", std::process::id()))
    }

    #[test]
    fn multiplex_roundtrip_preserves_per_rank_order() {
        let path = tmp("order");
        let sion = SionFile::create(&path, 3).unwrap();
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
                assert_eq!(u32::from_le_bytes([c[0], c[1], c[2], c[3]]), i as u32);
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

        let header = |ranks: u32| [&MAGIC[..], &ranks.to_le_bytes()].concat();
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
