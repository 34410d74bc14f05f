//! Pack sinks: where encoded event packs go.
//!
//! The paper's point is precisely the difference between these sinks:
//! [`PackSink::Stream`] couples instrumentation to the online analyzer over
//! the interconnect; [`PackSink::File`] and [`PackSink::Sion`] are the
//! classical trace-to-disk workflow kept as the comparison baseline (one
//! file per rank — the "task-local files" pattern whose metadata pressure
//! the paper criticizes — or one container per application). What those
//! files hold is [`opmr_events::recording`]'s to say.

use bytes::BytesMut;
use opmr_events::recording::{self, SionFile};
use opmr_vmpi::map::map_partitions_directed;
use opmr_vmpi::{Map, MapPolicy, Result, StreamConfig, Vmpi, VmpiError, WriteStream};
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// The stream id every event stream opens on.
pub const EVENT_STREAM: u16 = 0;

/// Destination for encoded packs.
#[allow(clippy::large_enum_variant)] // one sink per rank, size is irrelevant
pub enum PackSink {
    /// Online coupling: one pack per stream block.
    Stream(WriteStream),
    /// Classical trace file, one per rank.
    File {
        writer: BufWriter<std::fs::File>,
        path: PathBuf,
    },
    /// SIONlib-style shared container: all ranks multiplex into one file.
    Sion { file: SionFile, rank: u32 },
}

impl PackSink {
    /// The event stream of a rank, live or replayed: maps the caller's
    /// partition onto the analyzer partition (by name) with `policy`, the
    /// analyzer side mastering the map regardless of partition sizes (the
    /// policy picks the reduction-tree node for each arriving leaf;
    /// round-robin over every analyzer rank for direct mapping).
    pub fn stream(
        vmpi: &Vmpi,
        analyzer_partition: &str,
        policy: MapPolicy,
        cfg: StreamConfig,
    ) -> Result<PackSink> {
        let analyzer = vmpi
            .partition_by_name(analyzer_partition)
            .ok_or_else(|| VmpiError::UnknownPartition(analyzer_partition.to_string()))?
            .id;
        let mut map = Map::new();
        map_partitions_directed(vmpi, analyzer, analyzer, policy, &mut map)?;
        WriteStream::open_map(vmpi, &map, cfg, EVENT_STREAM).map(PackSink::Stream)
    }

    /// Opens a per-rank trace file sink.
    pub fn file(path: impl Into<PathBuf>) -> std::io::Result<PackSink> {
        let path = path.into();
        let writer = BufWriter::new(recording::create(&path)?);
        Ok(PackSink::File { writer, path })
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

    /// Writes the encoded pack behind the headroom of `frame` (the front
    /// of a buffer from [`PackSink::new_block`]); the caller's buffer is
    /// left as it was, bar the headroom. A file's failure is
    /// [`VmpiError::Io`] naming the file.
    pub fn put(&mut self, frame: &mut [u8]) -> Result<()> {
        match self {
            // One pack == one block, sent from where it was encoded.
            PackSink::Stream(stream) => stream.send_block(frame),
            PackSink::File { writer, path } => {
                recording::write_pack(writer, frame).map_err(|e| VmpiError::io(path, e))
            }
            PackSink::Sion { file, rank } => file
                .write(*rank, frame)
                .map_err(|e| VmpiError::io(file.path(), e)),
        }
    }

    /// Closes the sink (EOF markers for streams, flush for files).
    pub fn close(self) -> Result<()> {
        match self {
            PackSink::Stream(stream) => stream.close(),
            PackSink::File { mut writer, path } => {
                writer.flush().map_err(|e| VmpiError::io(&path, e))
            }
            PackSink::Sion { file, .. } => {
                file.close_rank().map_err(|e| VmpiError::io(file.path(), e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, RecorderConfig};
    use bytes::Bytes;
    use opmr_events::{Event, EventKind, EventPack, PackEncoding};

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
            block.clear();
            block.extend_from_slice(p);
            sink.put(&mut block).unwrap();
            assert_eq!(&block[..], &p[..], "the caller keeps its block");
        }
        sink.close().unwrap();
        assert_eq!(recording::read_trace_file(&path).unwrap(), packs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A full disk is a typed error naming the file, at the first pack the
    /// file refuses, not "stream closed".
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_fails_the_first_flush_naming_the_file() {
        let path = std::path::Path::new("/dev/full");
        let cfg = RecorderConfig::for_block(0, 0, 64 * 1024, PackEncoding::Fixed);
        let mut rec = Recorder::new(cfg, PackSink::file(path).unwrap());
        let (n, err) = (1u64..)
            .find_map(|t| {
                Some((
                    t,
                    rec.record(Event::basic(EventKind::Marker, 0, t, 1)).err()?,
                ))
            })
            .unwrap();
        let one_pack = EventPack::capacity_for_block_with(64 * 1024, PackEncoding::Fixed);
        assert_eq!(n, one_pack as u64, "the first flush fails");
        assert_eq!(
            err,
            VmpiError::Io {
                kind: std::io::ErrorKind::StorageFull,
                path: path.into(),
            }
        );
        assert!(err.to_string().contains("/dev/full"), "{err}");
        let sion = SionFile::create(path, 1).unwrap();
        let mut sink = PackSink::Sion {
            file: sion,
            rank: 0,
        };
        let mut block = sink.new_block(16);
        block.extend_from_slice(b"pack");
        sink.put(&mut block).unwrap(); // buffered
        assert!(matches!(
            sink.close(),
            Err(VmpiError::Io { kind: std::io::ErrorKind::StorageFull, path: p }) if p == path
        ));
    }
}
