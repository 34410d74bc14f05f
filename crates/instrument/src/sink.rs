//! Pack sinks: where encoded event packs go.
//!
//! The paper's point is precisely the difference between these two sinks:
//! [`PackSink::Stream`] couples instrumentation to the online analyzer over
//! the interconnect; [`PackSink::File`] is the classical trace-to-disk
//! workflow kept as the comparison baseline (length-prefixed packs, one
//! file per rank — the "task-local files" pattern whose metadata pressure
//! the paper criticizes).

use bytes::{Bytes, BytesMut};
use opmr_events::wire::{Reader, Truncated};
use opmr_vmpi::{Result, VmpiError, WriteStream};
use std::io::Write;

/// Destination for encoded packs.
#[allow(clippy::large_enum_variant)] // one sink per rank, size is irrelevant
pub enum PackSink {
    /// Online coupling: one pack per stream block.
    Stream(WriteStream),
    /// Classical trace file: `[u32 little-endian length][pack bytes]*`.
    File(std::io::BufWriter<std::fs::File>),
    /// SIONlib-style shared container: all ranks multiplex into one file.
    Sion {
        file: crate::sion::SionFile,
        rank: u32,
    },
}

impl PackSink {
    /// Opens a per-rank trace file sink.
    pub fn file(path: impl Into<std::path::PathBuf>) -> std::io::Result<PackSink> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(&path)?;
        Ok(PackSink::File(std::io::BufWriter::new(file)))
    }

    /// An empty buffer for [`PackSink::put`] to be filled with one pack of
    /// up to `pack_cap` bytes. Whatever it already holds is headroom the
    /// sink stamps itself (a stream's frame header); the pack goes behind.
    pub fn new_block(&self, pack_cap: usize) -> BytesMut {
        match self {
            PackSink::Stream(stream) => stream.new_block(),
            _ => opmr_events::global_pool().get(pack_cap),
        }
    }

    /// Writes the encoded pack behind the headroom of `block` (a buffer
    /// from [`PackSink::new_block`]) and empties it back to that headroom.
    pub fn put(&mut self, block: &mut BytesMut) -> Result<()> {
        let written = match self {
            // One pack == one block, sent from where it was encoded.
            PackSink::Stream(stream) => return stream.send_block(block),
            PackSink::File(writer) => {
                let len = (block.len() as u32).to_le_bytes();
                writer.write_all(&len).and_then(|_| writer.write_all(block))
            }
            PackSink::Sion { file, rank } => file.write(*rank, block),
        };
        block.clear();
        written.map_err(|_| VmpiError::StreamClosed)
    }

    /// Closes the sink (EOF markers for streams, flush for files).
    pub fn close(self) -> Result<()> {
        match self {
            PackSink::Stream(stream) => stream.close(),
            PackSink::File(mut writer) => writer.flush().map_err(|_| VmpiError::StreamClosed),
            PackSink::Sion { file, .. } => file.close_rank().map_err(|_| VmpiError::StreamClosed),
        }
    }
}

/// Reads every length-prefixed pack back from a trace file.
pub fn read_trace_file(path: &std::path::Path) -> std::io::Result<Vec<Bytes>> {
    parse_trace(&std::fs::read(path)?).map_err(|t| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("truncated trace {path:?}: {t}"),
        )
    })
}

/// Splits trace-file bytes into their packs. A pack or a length prefix cut
/// at the tail is [`Truncated`].
pub fn parse_trace(data: &[u8]) -> std::result::Result<Vec<Bytes>, Truncated> {
    let mut r = Reader::new(data);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let len = r.u32()? as usize;
        out.push(Bytes::copy_from_slice(r.bytes(len)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join(format!("opmr_sink_{}", std::process::id()));
        let path = dir.join("rank0.opmr");
        let mut sink = PackSink::file(&path).unwrap();
        let packs = [
            Bytes::from_static(b"first"),
            Bytes::from_static(b""),
            Bytes::from(vec![7u8; 1000]),
        ];
        let mut block = sink.new_block(1000);
        assert!(block.is_empty(), "a file sink stamps no headroom");
        for p in &packs {
            block.extend_from_slice(p);
            sink.put(&mut block).unwrap();
            assert!(block.is_empty());
        }
        sink.close().unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], packs[0]);
        assert_eq!(back[1], packs[1]);
        assert_eq!(back[2], packs[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_trace_detected() {
        let dir = std::env::temp_dir().join(format!("opmr_sink_tr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.opmr");
        std::fs::write(&path, [10, 0, 0, 0, 1, 2]).unwrap();
        assert!(read_trace_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        // A length prefix cut at the tail is an error too, not a silent
        // end of the trace.
        assert!(parse_trace(&[1, 0, 0, 0, 7, 2, 0]).is_err());
    }
}
