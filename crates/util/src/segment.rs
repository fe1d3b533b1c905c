//! Checksummed, block-addressed segment files.
//!
//! A **segment** is the on-disk unit of the paged storage tier: an
//! append-once container of opaque byte blocks, each independently
//! CRC-32-checked, plus a directory that carries per-block metadata
//! (offsets, lengths, checksums, and an opaque caller-defined meta blob
//! such as a per-row sketch). Readers open the directory once and then fetch
//! individual blocks with positioned reads (`pread`: one syscall per block,
//! no seek, no shared file cursor and therefore no lock — any number of
//! threads read one [`Segment`] concurrently) — no mmap, no full-file
//! residency. The same reader serves an image already in memory
//! ([`Segment::from_bytes`]); only where a positioned read gets its bytes
//! from differs:
//!
//! ```text
//! ┌ preamble (8 bytes) ──────────────────────────────────────────────┐
//! │ magic "WGSG" │ version u32                                       │
//! ├ blocks ──────────────────────────────────────────────────────────┤
//! │ block 0 payload … │ crc32(payload) u32                           │
//! │ block 1 payload … │ crc32(payload) u32                           │
//! │ …                                                                │
//! ├ directory ───────────────────────────────────────────────────────┤
//! │ magic "WGSD" │ version u32 │ header_meta bytes │ n_blocks        │
//! │ per block: offset u64 │ payload_len u32 │ crc u32 │ meta bytes   │
//! ├ trailer (24 bytes) ──────────────────────────────────────────────┤
//! │ magic "WGSE" │ version u32 │ dir_offset u64 │ dir_len u32 │      │
//! │ crc32(directory) u32                                             │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Integrity story: the trailer is fixed-size and self-checking (magic +
//! version + a CRC over the directory), the directory holds every block's
//! CRC, and each block read re-verifies its CRC before the payload is
//! interpreted. A torn write therefore fails at `open` (bad trailer or
//! directory), and a bit flip fails either at `open` or at the first read
//! of the damaged block — a partially-visible block set is impossible
//! because the directory is written last and validated first.
//!
//! Per-read contract ([`Segment::read_block_into`]): every read checks the
//! CRC word stored after the payload *and* the CRC recomputed over the
//! payload against the directory's value. On any mismatch the caller gets
//! [`SegmentError::Corrupt`] and an empty buffer, never the damaged bytes.

use crate::checksum::crc32;
use crate::codec::{self, CodecError};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Magic opening a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"WGSG";
/// Magic opening the directory frame.
pub const DIRECTORY_MAGIC: [u8; 4] = *b"WGSD";
/// Magic opening the fixed-size trailer.
pub const TRAILER_MAGIC: [u8; 4] = *b"WGSE";
/// Segment format version. The container's framing has not changed since
/// version 1; the number moves when what callers keep in the header and
/// block metadata does, because a reader cannot tell the layouts apart.
/// Version 3: the vector tier's header carries a snapshot manifest and a
/// flag saying whether the blocks' metadata includes row sketches. Any
/// other version is refused — there is one decode path.
pub const SEGMENT_VERSION: u32 = 3;
/// The fewest bytes one directory entry encodes to: offset, payload length,
/// CRC and an empty meta blob's length prefix.
const MIN_ENTRY_BYTES: usize = 8 + 4 + 4 + 4;
/// Preamble size: magic (4) + version (4).
pub const PREAMBLE_LEN: usize = 8;
/// Trailer size: magic (4) + version (4) + dir_offset (8) + dir_len (4) +
/// dir_crc (4).
pub const TRAILER_LEN: usize = 24;

/// Failure opening or reading a segment.
#[derive(Debug)]
pub enum SegmentError {
    /// The underlying file could not be read.
    Io(std::io::Error),
    /// The bytes on disk are not a complete, intact segment.
    Corrupt(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment I/O error: {e}"),
            SegmentError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// For writers whose result is an `io::Result`: an I/O failure as itself,
/// damage as [`std::io::ErrorKind::InvalidData`] with the message kept.
impl From<SegmentError> for std::io::Error {
    fn from(e: SegmentError) -> Self {
        match e {
            SegmentError::Io(e) => e,
            SegmentError::Corrupt(_) => std::io::Error::new(std::io::ErrorKind::InvalidData, e),
        }
    }
}

impl From<CodecError> for SegmentError {
    fn from(e: CodecError) -> Self {
        SegmentError::Corrupt(e.to_string())
    }
}

/// Location and integrity data for one block, parsed from the directory.
#[derive(Debug, Clone)]
struct BlockInfo {
    /// Payload start, absolute file offset.
    offset: u64,
    /// Payload length in bytes (excluding the trailing CRC word).
    payload_len: u32,
    /// Expected CRC-32 of the payload.
    crc: u32,
    /// Where the opaque caller metadata (id lists, row sketches, …) sits in
    /// [`Segment::directory`].
    meta: std::ops::Range<usize>,
}

/// Incremental writer: push blocks, then [`SegmentBuilder::finish`] into
/// the complete byte image (written atomically by the caller, see
/// [`crate::atomic_file`]).
pub struct SegmentBuilder {
    bytes: Vec<u8>,
    /// The per-block directory entries pushed so far.
    entries: Vec<u8>,
    n_blocks: u32,
}

impl SegmentBuilder {
    /// Start a segment with room for an image of about `size_hint` bytes
    /// (a sealed image is large, and growing it by doubling would hold it
    /// in memory twice).
    pub fn new(size_hint: usize) -> Self {
        let mut bytes = Vec::with_capacity(size_hint);
        codec::put_header(&mut bytes, SEGMENT_MAGIC, SEGMENT_VERSION);
        SegmentBuilder { bytes, entries: Vec::new(), n_blocks: 0 }
    }

    /// Append one block with its payload and opaque per-block metadata.
    pub fn push_block(&mut self, payload: &[u8], meta: &[u8]) {
        self.push_block_with(payload.len(), meta, |out| out.copy_from_slice(payload));
    }

    /// Append one block of `payload_len` bytes that `fill` writes straight
    /// into the segment image (it receives exactly that block's zeroed
    /// bytes), so a caller encoding its payload needs no staging copy.
    pub fn push_block_with(
        &mut self,
        payload_len: usize,
        meta: &[u8],
        fill: impl FnOnce(&mut [u8]),
    ) {
        let offset = self.bytes.len();
        self.bytes.resize(offset + payload_len, 0);
        fill(&mut self.bytes[offset..]);
        let crc = crc32(&self.bytes[offset..]);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        codec::put_u64(&mut self.entries, offset as u64);
        codec::put_len(&mut self.entries, payload_len);
        codec::put_u32(&mut self.entries, crc);
        codec::put_bytes(&mut self.entries, meta);
        self.n_blocks += 1;
    }

    /// Seal the segment: directory + trailer appended, full image returned.
    /// The directory carries `header_meta` — an opaque caller blob
    /// describing the whole segment (geometry, a manifest), given as parts
    /// that are stored back to back.
    pub fn finish(mut self, header_meta: &[&[u8]]) -> Vec<u8> {
        // The directory goes straight into the image (header, block count,
        // entries) and is checksummed there: with per-row metadata it is a
        // quarter of the file, too big to assemble in a buffer of its own.
        let dir_offset = self.bytes.len();
        codec::put_header(&mut self.bytes, DIRECTORY_MAGIC, SEGMENT_VERSION);
        codec::put_len(&mut self.bytes, header_meta.iter().map(|part| part.len()).sum());
        for part in header_meta {
            self.bytes.extend_from_slice(part);
        }
        codec::put_u32(&mut self.bytes, self.n_blocks);
        self.bytes.extend_from_slice(&self.entries);
        let dir_crc = crc32(&self.bytes[dir_offset..]);
        let dir_len = (self.bytes.len() - dir_offset) as u32;
        let dir_offset = dir_offset as u64;
        self.bytes.extend_from_slice(&TRAILER_MAGIC);
        self.bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        self.bytes.extend_from_slice(&dir_offset.to_le_bytes());
        self.bytes.extend_from_slice(&dir_len.to_le_bytes());
        self.bytes.extend_from_slice(&dir_crc.to_le_bytes());
        self.bytes
    }
}

/// Where a segment's bytes are: a file read with `pread`, or an image the
/// caller already holds in memory.
enum Source {
    File(File),
    Bytes(Vec<u8>),
}

impl Source {
    fn len(&self) -> std::io::Result<u64> {
        match self {
            Source::File(file) => Ok(file.metadata()?.len()),
            Source::Bytes(bytes) => Ok(bytes.len() as u64),
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        match self {
            Source::File(file) => file.read_exact_at(buf, offset),
            Source::Bytes(bytes) => {
                let range = usize::try_from(offset)
                    .ok()
                    .and_then(|start| Some(start..start.checked_add(buf.len())?))
                    .and_then(|range| bytes.get(range))
                    .ok_or(std::io::ErrorKind::UnexpectedEof)?;
                buf.copy_from_slice(range);
                Ok(())
            }
        }
    }
}

/// An open segment: directory resident, payloads fetched on demand with
/// positioned reads and re-verified per block.
pub struct Segment {
    /// Empty for an in-memory image.
    path: PathBuf,
    source: Source,
    header_meta: Vec<u8>,
    /// The directory frame as read and checksummed: the blocks' metadata
    /// blobs are ranges of it, not copies. Empty once released.
    directory: Vec<u8>,
    blocks: Vec<BlockInfo>,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl Segment {
    /// Open a segment file, validating preamble, trailer, and directory.
    /// Block payloads are *not* read here.
    pub fn open(path: &Path) -> Result<Segment, SegmentError> {
        Self::open_source(Source::File(File::open(path)?), path.to_path_buf())
    }

    /// [`Self::open`] over a complete image held in memory: the same
    /// validation, and block reads that copy out of `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Segment, SegmentError> {
        Self::open_source(Source::Bytes(bytes), PathBuf::new())
    }

    /// Nothing below is interpreted before it has been compared with
    /// something fixed: the preamble and trailer against their magics, the
    /// version and the file's own length, the directory against the
    /// trailer's CRC — and only then parsed.
    fn open_source(source: Source, path: PathBuf) -> Result<Segment, SegmentError> {
        let file_len = source.len()?;
        if file_len < (PREAMBLE_LEN + TRAILER_LEN) as u64 {
            return Err(SegmentError::Corrupt(format!(
                "{} bytes is too short to be a segment",
                file_len
            )));
        }

        let mut preamble = [0u8; PREAMBLE_LEN];
        source.read_exact_at(&mut preamble, 0)?;
        if preamble[..4] != SEGMENT_MAGIC {
            return Err(SegmentError::Corrupt("bad segment magic".into()));
        }
        let version = u32::from_le_bytes(preamble[4..8].try_into().expect("4 bytes"));
        if version != SEGMENT_VERSION {
            return Err(SegmentError::Corrupt(format!("unsupported segment version {version}")));
        }

        let mut trailer = [0u8; TRAILER_LEN];
        source.read_exact_at(&mut trailer, file_len - TRAILER_LEN as u64)?;
        if trailer[..4] != TRAILER_MAGIC {
            return Err(SegmentError::Corrupt("bad trailer magic (torn write?)".into()));
        }
        let tver = u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes"));
        if tver != SEGMENT_VERSION {
            return Err(SegmentError::Corrupt(format!("unsupported trailer version {tver}")));
        }
        let dir_offset = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
        let dir_len = u32::from_le_bytes(trailer[16..20].try_into().expect("4 bytes")) as u64;
        let dir_crc = u32::from_le_bytes(trailer[20..24].try_into().expect("4 bytes"));
        if dir_offset < PREAMBLE_LEN as u64
            || dir_offset.checked_add(dir_len).and_then(|end| end.checked_add(TRAILER_LEN as u64))
                != Some(file_len)
        {
            return Err(SegmentError::Corrupt(format!(
                "directory at {dir_offset}+{dir_len} does not fit a {file_len}-byte file"
            )));
        }

        let mut directory = vec![0u8; dir_len as usize];
        source.read_exact_at(&mut directory, dir_offset)?;
        if crc32(&directory) != dir_crc {
            return Err(SegmentError::Corrupt("directory checksum mismatch".into()));
        }

        let mut r = &directory[..];
        let dver = codec::get_header(&mut r, DIRECTORY_MAGIC)?;
        if dver != SEGMENT_VERSION {
            return Err(SegmentError::Corrupt(format!("unsupported directory version {dver}")));
        }
        let header_meta = codec::get_bytes(&mut r)?;
        let n_blocks = codec::get_count(&mut r, MIN_ENTRY_BYTES)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for i in 0..n_blocks {
            let offset = codec::get_u64(&mut r)?;
            let payload_len = codec::get_len(&mut r)? as u32;
            let crc = codec::get_u32(&mut r)?;
            let meta_len = codec::get_len(&mut r)?;
            let meta_at = directory.len() - r.len();
            r = r.get(meta_len..).ok_or(CodecError::UnexpectedEof)?;
            let meta = meta_at..meta_at + meta_len;
            let end = offset
                .checked_add(payload_len as u64)
                .and_then(|e| e.checked_add(4))
                .ok_or_else(|| SegmentError::Corrupt(format!("block {i} offset overflow")))?;
            if offset < PREAMBLE_LEN as u64 || end > dir_offset {
                return Err(SegmentError::Corrupt(format!(
                    "block {i} at {offset}+{payload_len} escapes the data region"
                )));
            }
            blocks.push(BlockInfo { offset, payload_len, crc, meta });
        }
        if !r.is_empty() {
            return Err(SegmentError::Corrupt(format!("{} trailing directory bytes", r.len())));
        }

        Ok(Segment { path, source, header_meta, directory, blocks })
    }

    /// The segment-wide metadata blob the writer stored.
    pub fn header_meta(&self) -> &[u8] {
        &self.header_meta
    }

    /// Move the header blob out of the segment, leaving it empty: a reader
    /// that parses it once has no reason to keep it resident.
    pub fn take_header_meta(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.header_meta)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Per-block metadata blob (resident since `open`; empty after
    /// [`Self::release_block_meta`]).
    pub fn block_meta(&self, block: usize) -> &[u8] {
        self.directory.get(self.blocks[block].meta.clone()).unwrap_or(&[])
    }

    /// Drop every block's metadata blob — one buffer, the directory as it
    /// was read: a reader that has decoded the blobs into a form of its own
    /// releases them, so the directory is not resident twice.
    pub fn release_block_meta(&mut self) {
        self.directory = Vec::new();
    }

    /// Payload length of one block in bytes.
    pub fn block_payload_len(&self, block: usize) -> usize {
        self.blocks[block].payload_len as usize
    }

    /// The file this segment was opened from (empty for an in-memory
    /// image).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read one block's payload with a positioned read, verifying its
    /// CRC-32 before returning.
    pub fn read_block(&self, block: usize) -> Result<Vec<u8>, SegmentError> {
        let mut payload = Vec::new();
        self.read_block_into(block, &mut payload)?;
        Ok(payload)
    }

    /// [`Segment::read_block`] into a caller-owned buffer, so a reader that
    /// decodes block after block pays for one allocation, not one per read
    /// (whatever `payload` held is overwritten, not zeroed first). On
    /// success it holds exactly the verified payload; on any error it is
    /// left empty — damaged bytes are never handed out.
    pub fn read_block_into(&self, block: usize, payload: &mut Vec<u8>) -> Result<(), SegmentError> {
        let result = self.read_verified(block, payload);
        if result.is_err() {
            payload.clear();
        }
        result
    }

    fn read_verified(&self, block: usize, payload: &mut Vec<u8>) -> Result<(), SegmentError> {
        let info = self
            .blocks
            .get(block)
            .ok_or_else(|| SegmentError::Corrupt(format!("block {block} out of range")))?;
        let payload_len = info.payload_len as usize;
        payload.resize(payload_len + 4, 0);
        self.source.read_exact_at(payload, info.offset)?;
        let stored = u32::from_le_bytes(payload[payload_len..].try_into().expect("4 bytes"));
        payload.truncate(payload_len);
        if stored != info.crc || crc32(payload) != info.crc {
            return Err(SegmentError::Corrupt(format!(
                "block {block} checksum mismatch at offset {}",
                info.offset
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic_file::write as atomic_write_bytes;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wg-segment-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn build_sample() -> Vec<u8> {
        let mut b = SegmentBuilder::new(0);
        b.push_block(b"first block payload", b"meta-0");
        b.push_block(b"", b"meta-empty");
        b.push_block(&[0xAB; 1000], b"");
        b.finish(&[b"header", b"-meta"])
    }

    /// `bytes` opened both ways: written to `path` and opened as a file,
    /// and as an in-memory image.
    fn open_both(path: &Path, bytes: &[u8]) -> [Result<Segment, SegmentError>; 2] {
        atomic_write_bytes(path, bytes).expect("write");
        [Segment::open(path), Segment::from_bytes(bytes.to_vec())]
    }

    #[test]
    fn roundtrip_blocks_and_meta() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("seg.wgs");
        for seg in open_both(&path, &build_sample()) {
            roundtrip(seg.expect("open"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn roundtrip(mut seg: Segment) {
        assert_eq!(seg.header_meta(), b"header-meta");
        assert_eq!(seg.block_count(), 3);
        assert_eq!(seg.block_meta(0), b"meta-0");
        assert_eq!(seg.block_meta(1), b"meta-empty");
        assert_eq!(seg.read_block(0).expect("block 0"), b"first block payload");
        assert_eq!(seg.read_block(1).expect("block 1"), b"");
        assert_eq!(seg.read_block(2).expect("block 2"), vec![0xAB; 1000]);
        assert!(seg.read_block(3).is_err());
        seg.release_block_meta();
        assert_eq!((seg.block_meta(0), seg.block_meta(1)), (&b""[..], &b""[..]));
        assert_eq!(seg.read_block(0).expect("block 0"), b"first block payload");
        assert_eq!(seg.take_header_meta(), b"header-meta");
        assert!(seg.header_meta().is_empty());
    }

    #[test]
    fn read_block_into_reuses_the_buffer_and_empties_it_on_error() {
        let dir = temp_dir("into");
        let path = dir.join("seg.wgs");
        let bytes = build_sample();
        atomic_write_bytes(&path, &bytes).expect("write");
        let seg = Segment::open(&path).expect("open");
        let mut buf = Vec::new();
        // Large, then small, then empty: stale bytes never leak through.
        seg.read_block_into(2, &mut buf).expect("block 2");
        assert_eq!(buf, vec![0xAB; 1000]);
        seg.read_block_into(0, &mut buf).expect("block 0");
        assert_eq!(buf, b"first block payload");
        seg.read_block_into(1, &mut buf).expect("block 1");
        assert!(buf.is_empty());

        seg.read_block_into(0, &mut buf).expect("block 0");
        assert!(matches!(seg.read_block_into(3, &mut buf), Err(SegmentError::Corrupt(_))));
        assert!(buf.is_empty(), "an out-of-range read must not leave the previous payload");

        // Damage block 0 in place, after open: refused, nothing handed out.
        let mut broken = bytes.clone();
        broken[PREAMBLE_LEN] ^= 0x01;
        std::fs::write(&path, &broken).expect("rewrite in place");
        assert!(matches!(seg.read_block_into(0, &mut buf), Err(SegmentError::Corrupt(_))));
        assert!(buf.is_empty(), "damaged bytes must not be handed out");
        seg.read_block_into(2, &mut buf).expect("intact block still reads");
        assert_eq!(buf, vec![0xAB; 1000]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn push_block_with_writes_the_same_image_as_push_block() {
        let mut filled = SegmentBuilder::new(0);
        filled.push_block_with(19, b"meta-0", |out| out.copy_from_slice(b"first block payload"));
        filled.push_block_with(0, b"meta-empty", |out| assert!(out.is_empty()));
        filled.push_block_with(1000, b"", |out| {
            assert!(out.iter().all(|&b| b == 0), "fill sees only its own zeroed block");
            out.fill(0xAB);
        });
        assert_eq!(filled.finish(&[b"header-meta"]), build_sample());
    }

    #[test]
    fn another_format_version_is_refused() {
        let dir = temp_dir("version");
        let path = dir.join("seg.wgs");
        // The version before, and the one after.
        for version in [SEGMENT_VERSION - 1, SEGMENT_VERSION + 1] {
            let mut other = build_sample();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            for seg in open_both(&path, &other) {
                match seg {
                    Err(SegmentError::Corrupt(msg)) => {
                        assert_eq!(msg, format!("unsupported segment version {version}"))
                    }
                    other => panic!("a v{version} image must be refused, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_fails_open() {
        let dir = temp_dir("trunc");
        let bytes = build_sample();
        let path = dir.join("seg.wgs");
        for len in 0..bytes.len() {
            for seg in open_both(&path, &bytes[..len]) {
                assert!(seg.is_err(), "truncation to {len} bytes opened");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_bit_flip_is_caught_at_open_or_read() {
        let dir = temp_dir("flip");
        let bytes = build_sample();
        let path = dir.join("seg.wgs");
        for i in 0..bytes.len() {
            let mut broken = bytes.clone();
            broken[i] ^= 1 << (i % 8);
            for seg in open_both(&path, &broken) {
                let Ok(seg) = seg else { continue };
                let damaged = (0..seg.block_count()).any(|b| seg.read_block(b).is_err());
                assert!(damaged, "flip at byte {i} went undetected");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_count_the_directory_cannot_hold_is_refused_before_anything_is_reserved() {
        // A directory whose CRC vouches for a block count of 2^30: refused
        // by the count check, not by an allocation of that many entries.
        let mut image = build_sample();
        let trailer_at = image.len() - TRAILER_LEN;
        let dir_at = u64::from_le_bytes(image[trailer_at + 8..trailer_at + 16].try_into().unwrap());
        let count_at = dir_at as usize + 8 + 4 + b"header-meta".len();
        assert_eq!(image[count_at..count_at + 4], 3u32.to_le_bytes());
        image[count_at..count_at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let crc = crc32(&image[dir_at as usize..trailer_at]);
        image[trailer_at + 20..].copy_from_slice(&crc.to_le_bytes());
        match Segment::from_bytes(image) {
            Err(SegmentError::Corrupt(msg)) => assert!(msg.contains("count 1073741824"), "{msg}"),
            other => panic!("a lying block count must be refused, got {other:?}"),
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = temp_dir("empty");
        let path = dir.join("seg.wgs");
        atomic_write_bytes(&path, &SegmentBuilder::new(0).finish(&[])).expect("write");
        let seg = Segment::open(&path).expect("open");
        assert_eq!(seg.block_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
