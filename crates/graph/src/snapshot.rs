//! Versioned, checksummed on-disk snapshots.
//!
//! This module is the workspace's binary persistence substrate: it stores
//! [`CsrGraph`] arenas on disk and provides the container format the
//! restoration pipeline's crash-safe checkpoints (`sgr-core`) are built
//! on. Everything is little-endian, flat, and checksummed, so a snapshot
//! written on one machine loads bit-for-bit on another and a corrupted or
//! truncated file is *always* reported as a typed [`SnapshotError`] —
//! never a panic, never silent garbage.
//!
//! # Checkpoint format
//!
//! A snapshot file is a fixed 32-byte header followed by an opaque
//! payload:
//!
//! ```text
//! offset  size  field        encoding
//! ------  ----  -----------  ----------------------------------------
//!      0     8  magic        the ASCII bytes "SGRSNAP\0"
//!      8     4  version      u32 LE — format version, currently 1
//!     12     4  kind         u32 LE — payload discriminator
//!     16     8  payload_len  u64 LE — exact byte length of the payload
//!     24     8  checksum     u64 LE — checksum of the payload
//!     32     …  payload      kind-specific section data
//! ```
//!
//! **Versioning policy.** `version` covers the *container* (header layout
//! and checksum definition) and every kind-specific payload layout
//! together: any incompatible change to either bumps the single version
//! number, and readers reject any version other than the one they were
//! built for with [`SnapshotError::UnsupportedVersion`] rather than
//! guessing. Forward compatibility is explicitly out of scope for
//! checkpoint files — they are short-lived restart artifacts, not an
//! archival format.
//!
//! **Checksum.** A chained SplitMix64 digest: the payload is split into
//! little-endian 8-byte words (the final partial word zero-padded), and
//!
//! ```text
//! h ← SplitMix64(SEED ⊕ payload_len).next()
//! for each word w:  h ← SplitMix64(h ⊕ w).next()
//! ```
//!
//! Mixing the length first distinguishes payloads that differ only in
//! trailing zero bytes. This is an *integrity* check against torn writes
//! and bit rot, not an authentication code.
//!
//! **Atomicity and durability.** [`write_section`] writes to a
//! `<path>.tmp` sibling, fsyncs the file, renames over the destination,
//! and then fsyncs the **parent directory**, so a crash mid-write can
//! leave a stale temp file but never a half-written snapshot under the
//! final name — and once `write_section` returns, the rename itself is
//! durable. (Without the directory fsync the rename lives only in the
//! in-memory dentry cache: a power loss after "successful" persistence
//! could make the snapshot vanish entirely, the failure mode the
//! checkpoint fault-injection suite's durability contract rules out; see
//! `sgr_core::checkpoint`.)
//!
//! **Bounded reads.** [`read_section`] reads and validates the 32-byte
//! header *before* touching the payload: a garbage or adversarial file —
//! for example a multi-GiB blob arriving over a socket and spooled to
//! disk — fails on [`SnapshotError::BadMagic`] after at most 32 bytes,
//! and the payload read is bounded by the declared `payload_len`
//! cross-checked against the file's actual size. A `payload_len` that
//! does not even fit in `usize` is structurally impossible content and
//! is reported as [`SnapshotError::Corrupt`], not `Truncated`.
//!
//! **Payload encoding.** Payloads are built from LE primitives via
//! [`PayloadWriter`] / [`PayloadReader`]: `u32`/`u64` scalars, `f64`
//! values as raw IEEE-754 bit patterns (so float state round-trips
//! bitwise, ULP-exactly), and `u64`-length-prefixed slices of each. The
//! graph payload (`kind` [`KIND_CSR_GRAPH`]) is:
//!
//! ```text
//! num_edges: u64, sorted: u64 (0|1), offsets: [u32], neighbors: [u32]
//! ```
//!
//! `sgr-core` layers its restore-checkpoint payload (kind
//! [`KIND_RESTORE_CHECKPOINT`]) on the same primitives; see
//! `sgr_core::checkpoint`.

use crate::index::MultiplicityIndex;
use crate::{CsrGraph, Graph, NodeId};
use std::io::Write;
use std::path::Path;

/// Magic bytes identifying a snapshot file.
pub const MAGIC: [u8; 8] = *b"SGRSNAP\0";

/// Current (and only) supported format version.
pub const FORMAT_VERSION: u32 = 1;

/// Header length in bytes (magic + version + kind + payload_len + checksum).
pub const HEADER_LEN: usize = 32;

/// Payload kind: a [`CsrGraph`] snapshot.
pub const KIND_CSR_GRAPH: u32 = 1;

/// Payload kind: a restoration-pipeline checkpoint (`sgr_core::checkpoint`).
pub const KIND_RESTORE_CHECKPOINT: u32 = 2;

/// Payload kind: a restoration-job specification persisted (and shipped
/// over the wire) by the `sgr serve` job server (`sgr_serve::job`).
pub const KIND_JOB_SPEC: u32 = 3;

/// Payload kind: a terminal job-state record (completed/failed status and
/// final counters) persisted by the `sgr serve` job server.
pub const KIND_JOB_STATE: u32 = 4;

const CHECKSUM_SEED: u64 = 0x5347_5253_4e41_5021;

/// Errors arising while writing or reading a snapshot file.
///
/// Each distinct corruption mode has its own variant so callers (and the
/// CLI) can report precisely what is wrong with a file.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The header declares a format version this reader does not support.
    UnsupportedVersion(u32),
    /// The header's payload kind differs from what the caller expected.
    KindMismatch {
        /// Kind the caller asked for.
        expected: u32,
        /// Kind found in the header.
        found: u32,
    },
    /// The file ends before the header (or declared payload) is complete.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Structurally invalid content (trailing bytes, inconsistent arenas,
    /// a section underrun after the checksum passed, …).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {FORMAT_VERSION})"
                )
            }
            SnapshotError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Chained-SplitMix64 digest of a payload (see the module docs).
pub fn checksum(payload: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| sgr_util::rng::SplitMix64::new(h ^ w).next_u64();
    let mut h = mix(CHECKSUM_SEED, payload.len() as u64);
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h
}

/// The decoded fields of a section header.
#[derive(Clone, Copy, Debug)]
pub struct SectionHeader {
    /// Payload kind discriminator.
    pub kind: u32,
    /// Declared payload byte length.
    pub payload_len: u64,
    /// Declared payload checksum.
    pub checksum: u64,
}

/// The 32-byte section header for `payload` under `kind`, its checksum
/// computed over the payload in place.
fn section_header(kind: u32, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&kind.to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&checksum(payload).to_le_bytes());
    header
}

/// Builds the full section byte stream (header + payload) for `payload`
/// under `kind` — the exact bytes [`write_section`] persists, exposed so
/// the same container can travel over a socket as a wire payload.
pub fn encode_section(kind: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&section_header(kind, payload));
    bytes.extend_from_slice(payload);
    bytes
}

/// Writes `payload` under the snapshot container format, atomically and
/// durably: the bytes go to a `<path>.tmp` sibling which is fsynced and
/// renamed over `path`, and the parent directory is fsynced afterwards so
/// the rename survives a crash (see the module docs). The header and
/// the caller's payload are written one after the other, so the payload
/// is never copied into a section-sized buffer.
pub fn write_section<P: AsRef<Path>>(
    path: P,
    kind: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        file.write_all(&section_header(kind, payload))?;
        file.write_all(payload)?;
        file.flush()?;
        file.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// durable. On platforms where directories cannot be opened as files
/// (non-Unix), this is a no-op — the atomicity guarantee still holds,
/// only the power-loss durability window widens to the OS flush cadence.
fn sync_parent_dir(path: &Path) -> Result<(), SnapshotError> {
    #[cfg(unix)]
    {
        // An empty parent means a bare relative filename: the containing
        // directory is the CWD.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Parses and validates the fixed 32-byte header against the expected
/// `kind`. `got` is how many header bytes could actually be read; short
/// reads are classified by what fails first (magic, then length), so a
/// text file and a truncated snapshot report distinct errors.
fn parse_header(
    buf: &[u8; HEADER_LEN],
    got: usize,
    kind: u32,
) -> Result<SectionHeader, SnapshotError> {
    if got < HEADER_LEN {
        if got >= 8 && buf[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if got < 8 && !MAGIC.starts_with(&buf[..got]) {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    if buf[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let found_kind = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    if found_kind != kind {
        return Err(SnapshotError::KindMismatch {
            expected: kind,
            found: found_kind,
        });
    }
    Ok(SectionHeader {
        kind: found_kind,
        payload_len: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        checksum: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
    })
}

/// Reads and verifies a snapshot file, returning its payload. The header
/// must carry the expected `kind`; every corruption mode maps to its
/// [`SnapshotError`] variant.
///
/// The read is **header-first and bounded**: the 32-byte header is read
/// and fully validated before any payload byte, and the payload read is
/// sized by the declared length cross-checked against the file's actual
/// size — a garbage multi-GiB file fails on `BadMagic` after 32 bytes
/// instead of being slurped whole, and a header declaring more payload
/// than the file holds fails on `Truncated` without allocating the
/// declared amount.
pub fn read_section<P: AsRef<Path>>(path: P, kind: u32) -> Result<Vec<u8>, SnapshotError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match file.read(&mut header[got..])? {
            0 => break,
            n => got += n,
        }
    }
    let decoded = parse_header(&header, got, kind)?;
    // `payload_len` wider than the address space cannot describe real
    // content on this host: structurally invalid, not merely truncated.
    let Ok(payload_len) = usize::try_from(decoded.payload_len) else {
        return Err(SnapshotError::Corrupt(format!(
            "declared payload length {} overflows usize",
            decoded.payload_len
        )));
    };
    let body_len = file.metadata()?.len().saturating_sub(HEADER_LEN as u64);
    if body_len < decoded.payload_len {
        return Err(SnapshotError::Truncated);
    }
    if body_len > decoded.payload_len {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after declared payload",
            body_len - decoded.payload_len
        )));
    }
    let mut body = vec![0u8; payload_len];
    file.read_exact(&mut body).map_err(|e| match e.kind() {
        // The file shrank between the size probe and the read.
        std::io::ErrorKind::UnexpectedEof => SnapshotError::Truncated,
        _ => SnapshotError::Io(e),
    })?;
    if checksum(&body) != decoded.checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(body)
}

/// Verifies an in-memory section byte stream (header + payload), as
/// received over a socket, returning the payload slice. Same validation
/// and error classification as [`read_section`]; the caller has already
/// bounded the allocation by framing the transfer.
pub fn decode_section(bytes: &[u8], kind: u32) -> Result<&[u8], SnapshotError> {
    let mut header = [0u8; HEADER_LEN];
    let got = bytes.len().min(HEADER_LEN);
    header[..got].copy_from_slice(&bytes[..got]);
    let decoded = parse_header(&header, got, kind)?;
    let body = &bytes[HEADER_LEN..];
    let Ok(payload_len) = usize::try_from(decoded.payload_len) else {
        return Err(SnapshotError::Corrupt(format!(
            "declared payload length {} overflows usize",
            decoded.payload_len
        )));
    };
    if body.len() < payload_len {
        return Err(SnapshotError::Truncated);
    }
    if body.len() > payload_len {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after declared payload",
            body.len() - payload_len
        )));
    }
    if checksum(body) != decoded.checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(body)
}

/// Little-endian payload builder; the write-side half of the encoding
/// described in the module docs. All slices are `u64`-length-prefixed.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes the payload, yielding the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u32` scalar.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` scalar.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern (round-trips
    /// bitwise, including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as a `u64` (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u64(v as u64);
    }

    /// Appends the length prefix `len`, then the `len` fixed-width words
    /// `words` yields. The buffer grows once and the new tail is filled
    /// in one pass.
    ///
    /// # Panics
    /// Panics if `words` does not yield exactly `len` words: the prefix
    /// would misdescribe the bytes after it.
    fn put_words<const W: usize>(&mut self, len: usize, words: impl Iterator<Item = [u8; W]>) {
        self.put_u64(len as u64);
        let end = self.buf.len() + W * len;
        self.buf.reserve(W * len);
        self.buf.extend(words.flatten());
        assert_eq!(self.buf.len(), end, "slice length prefix {len} is wrong");
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_words(vs.len(), vs.iter().map(|v| v.to_le_bytes()));
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64_iter(vs.iter().copied());
    }

    /// Appends a length-prefixed `u64` slice from an iterator, without
    /// collecting it first; reads back with [`PayloadReader::get_u64_slice`].
    pub fn put_u64_iter<I>(&mut self, vs: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let vs = vs.into_iter();
        self.put_words(vs.len(), vs.map(u64::to_le_bytes));
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64_iter(vs.iter().map(|v| v.to_bits()));
    }

    /// Appends a length-prefixed raw byte blob.
    pub fn put_byte_slice(&mut self, vs: &[u8]) {
        self.put_u64(vs.len() as u64);
        self.buf.extend_from_slice(vs);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_byte_slice(s.as_bytes());
    }

    /// Appends a [`Graph`]'s adjacency *in list order*: a degree slice,
    /// then one neighbor slice in node order — the arena layout, so
    /// [`PayloadReader::get_graph`] adopts it without re-sorting.
    pub fn put_graph(&mut self, g: &Graph) {
        let n = g.num_nodes() as NodeId;
        let mut total = 0;
        self.put_words(
            n as usize,
            (0..n).map(|u| {
                let d = g.neighbors(u).len();
                total += d;
                (d as u32).to_le_bytes()
            }),
        );
        self.put_u64(total as u64);
        self.buf.reserve(4 * total);
        for u in 0..n {
            for v in g.neighbors(u) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Appends the multigraph `idx` holds exactly as
    /// [`put_graph`](Self::put_graph) writes [`Graph::from_index`] of it
    /// (every list ascending, a neighbor repeated once per parallel edge
    /// and twice per loop), without building that graph.
    pub fn put_index(&mut self, idx: &MultiplicityIndex) {
        let n = idx.num_nodes() as NodeId;
        let mut total = 0;
        self.put_words(
            n as usize,
            (0..n).map(|u| {
                let d: u32 = idx.entries(u).map(|(_, a)| a).sum();
                total += d as usize;
                d.to_le_bytes()
            }),
        );
        self.put_u64(total as u64);
        self.buf.reserve(4 * total);
        for u in 0..n {
            for (v, a) in idx.entries(u) {
                for _ in 0..a {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Appends node pairs as one flat `u32` slice `u0, v0, u1, v1, …`.
    pub fn put_pairs(&mut self, pairs: &[(NodeId, NodeId)]) {
        let flat = pairs.iter().flat_map(|&(u, v)| [u, v]);
        self.put_words(2 * pairs.len(), flat.map(u32::to_le_bytes));
    }
}

/// Little-endian payload reader; the read-side half of [`PayloadWriter`].
///
/// An underrun after the container checksum has already passed indicates a
/// malformed payload (or a reader/writer mismatch) and surfaces as
/// [`SnapshotError::Corrupt`].
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Errors unless the payload was fully consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} unread payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Corrupt("payload section underrun".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u32` scalar.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` scalar.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (rejecting values other than 0 and 1).
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool word {other}"))),
        }
    }

    fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let len = self.get_u64()?;
        usize::try_from(len)
            .map_err(|_| SnapshotError::Corrupt(format!("slice length {len} overflows usize")))
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_len()?;
        let bytes =
            self.take(len.checked_mul(4).ok_or_else(|| {
                SnapshotError::Corrupt("slice byte length overflows usize".into())
            })?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.get_len()?;
        let bytes =
            self.take(len.checked_mul(8).ok_or_else(|| {
                SnapshotError::Corrupt("slice byte length overflows usize".into())
            })?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed `f64` slice (bit patterns).
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, SnapshotError> {
        Ok(self
            .get_u64_slice()?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn get_byte_slice(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.get_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string (rejecting invalid UTF-8).
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.get_byte_slice()?)
            .map_err(|_| SnapshotError::Corrupt("string field is not valid UTF-8".into()))
    }

    /// Reads a graph written by [`PayloadWriter::put_graph`]. The neighbor
    /// slab is adopted wholesale as the arena; [`Graph::from_flat`]
    /// validates it (degree/slab consistency, symmetry, loop pairing) and
    /// any violation is reported as [`SnapshotError::Corrupt`].
    pub fn get_graph(&mut self) -> Result<Graph, SnapshotError> {
        let degrees = self.get_u32_slice()?;
        let flat = self.get_u32_slice()?;
        Graph::from_flat(&degrees, flat).map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }

    /// Reads node pairs written by [`PayloadWriter::put_pairs`].
    pub fn get_pairs(&mut self) -> Result<Vec<(NodeId, NodeId)>, SnapshotError> {
        let flat = self.get_u32_slice()?;
        if flat.len() % 2 != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "pair arena has odd length {}",
                flat.len()
            )));
        }
        Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }
}

/// Writes a [`CsrGraph`] snapshot to `path` (kind [`KIND_CSR_GRAPH`]).
pub fn write_csr<P: AsRef<Path>>(csr: &CsrGraph, path: P) -> Result<(), SnapshotError> {
    write_section(path, KIND_CSR_GRAPH, &encode_csr(csr))
}

/// Encodes a [`CsrGraph`] into its payload bytes (without the container
/// header); exposed so benches can measure pure encode cost.
pub fn encode_csr(csr: &CsrGraph) -> Vec<u8> {
    let (offsets, neighbors, num_edges, sorted) = csr.raw_parts();
    let mut w = PayloadWriter::new();
    w.put_u64(num_edges as u64);
    w.put_bool(sorted);
    w.put_u32_slice(offsets);
    w.put_u32_slice(neighbors);
    w.into_bytes()
}

/// Reads a [`CsrGraph`] snapshot from `path`, validating the arenas
/// (monotone offsets, in-range neighbor ids, consistent edge count)
/// before constructing the graph.
pub fn read_csr<P: AsRef<Path>>(path: P) -> Result<CsrGraph, SnapshotError> {
    let payload = read_section(path, KIND_CSR_GRAPH)?;
    let mut r = PayloadReader::new(&payload);
    let num_edges = r.get_u64()?;
    let sorted = r.get_bool()?;
    let offsets = r.get_u32_slice()?;
    let neighbors = r.get_u32_slice()?;
    r.finish()?;
    decode_csr_parts(num_edges, sorted, offsets, neighbors)
}

fn decode_csr_parts(
    num_edges: u64,
    sorted: bool,
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
) -> Result<CsrGraph, SnapshotError> {
    if offsets.is_empty() {
        return Err(SnapshotError::Corrupt("empty offsets arena".into()));
    }
    if offsets[0] != 0 {
        return Err(SnapshotError::Corrupt("offsets do not start at 0".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("offsets not monotone".into()));
    }
    if *offsets.last().unwrap() as usize != neighbors.len() {
        return Err(SnapshotError::Corrupt(
            "final offset disagrees with neighbor arena length".into(),
        ));
    }
    let n = offsets.len() - 1;
    if neighbors.iter().any(|&v| (v as usize) >= n) {
        return Err(SnapshotError::Corrupt("out-of-range neighbor id".into()));
    }
    let num_edges = usize::try_from(num_edges)
        .map_err(|_| SnapshotError::Corrupt("edge count overflows usize".into()))?;
    if num_edges * 2 != neighbors.len() {
        return Err(SnapshotError::Corrupt(format!(
            "edge count {num_edges} disagrees with {} neighbor entries",
            neighbors.len()
        )));
    }
    Ok(CsrGraph::from_raw_parts(
        offsets, neighbors, num_edges, sorted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sgr_snapshot_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn messy() -> Graph {
        let mut g = Graph::from_edges(5, &[(0, 1), (0, 1), (1, 2), (2, 0), (3, 1)]);
        g.add_edge(4, 4);
        g.add_edge(1, 1);
        g
    }

    #[test]
    fn csr_roundtrip_preserves_order() {
        let g = messy();
        let csr = g.freeze();
        let path = tmp("roundtrip.snap");
        write_csr(&csr, &path).unwrap();
        let back = read_csr(&path).unwrap();
        assert_eq!(back.num_nodes(), csr.num_nodes());
        assert_eq!(back.num_edges(), csr.num_edges());
        assert_eq!(back.is_sorted(), csr.is_sorted());
        for u in g.nodes() {
            assert_eq!(back.neighbors(u), csr.neighbors(u), "order changed at {u}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sorted_flag_roundtrips() {
        let csr = CsrGraph::freeze_sorted(&messy());
        let path = tmp("sorted.snap");
        write_csr(&csr, &path).unwrap();
        assert!(read_csr(&path).unwrap().is_sorted());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let csr = Graph::with_nodes(0).freeze();
        let path = tmp("empty.snap");
        write_csr(&csr, &path).unwrap();
        let back = read_csr(&path).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// Flipping a byte inside every header field produces the *distinct*
    /// typed error for that field — the satellite's core requirement.
    #[test]
    fn byte_flips_at_every_header_offset_are_typed() {
        let csr = messy().freeze();
        let path = tmp("flip.snap");
        write_csr(&csr, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        for offset in 0..HEADER_LEN {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x01;
            let flipped = tmp("flipped.snap");
            std::fs::write(&flipped, &bytes).unwrap();
            let err = read_csr(&flipped).unwrap_err();
            match offset {
                0..=7 => assert!(
                    matches!(err, SnapshotError::BadMagic),
                    "offset {offset}: {err}"
                ),
                8..=11 => assert!(
                    matches!(err, SnapshotError::UnsupportedVersion(_)),
                    "offset {offset}: {err}"
                ),
                12..=15 => assert!(
                    matches!(err, SnapshotError::KindMismatch { .. }),
                    "offset {offset}: {err}"
                ),
                16..=23 => assert!(
                    matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
                    "offset {offset}: {err}"
                ),
                _ => assert!(
                    matches!(err, SnapshotError::ChecksumMismatch),
                    "offset {offset}: {err}"
                ),
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmp("flipped.snap")).ok();
    }

    #[test]
    fn payload_byte_flip_is_checksum_mismatch() {
        let csr = messy().freeze();
        let path = tmp("payload_flip.snap");
        write_csr(&csr, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::ChecksumMismatch
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_prefix_is_typed() {
        let csr = messy().freeze();
        let path = tmp("trunc.snap");
        write_csr(&csr, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            let short = tmp("trunc_cut.snap");
            std::fs::write(&short, &bytes[..cut]).unwrap();
            let err = read_csr(&short).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmp("trunc_cut.snap")).ok();
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let csr = messy().freeze();
        let path = tmp("trailing.snap");
        write_csr(&csr, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_kind_is_kind_mismatch() {
        let path = tmp("kind.snap");
        write_section(&path, KIND_RESTORE_CHECKPOINT, b"whatever").unwrap();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::KindMismatch {
                expected: KIND_CSR_GRAPH,
                found: KIND_RESTORE_CHECKPOINT,
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            read_csr(tmp("does_not_exist.snap")).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn non_snapshot_file_is_bad_magic() {
        let path = tmp("text.snap");
        std::fs::write(&path, b"# definitely an edge list\n1 2\n").unwrap();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::BadMagic
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_arenas_are_corrupt() {
        // Well-formed container, nonsense payload: offsets say 2 entries
        // but the neighbor arena is empty.
        let path = tmp("arena.snap");
        let mut w = PayloadWriter::new();
        w.put_u64(1); // num_edges
        w.put_bool(false);
        w.put_u32_slice(&[0, 2]); // offsets claim two neighbor entries
        w.put_u32_slice(&[]); // … but the arena has none
        write_section(&path, KIND_CSR_GRAPH, &w.into_bytes()).unwrap();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_primitives_roundtrip() {
        let mut w = PayloadWriter::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u64_slice(&[]);
        w.put_f64_slice(&[1.5, f64::INFINITY]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32_slice().unwrap(), vec![1, 2, 3]);
        assert!(r.get_u64_slice().unwrap().is_empty());
        assert_eq!(r.get_f64_slice().unwrap(), vec![1.5, f64::INFINITY]);
        r.finish().unwrap();
    }

    /// The element-at-a-time writers the grow-once slice writers and the
    /// direct graph and index writes replaced, kept as their byte oracle:
    /// a length prefix, then one scalar write per element, from collected
    /// vectors.
    mod oracle {
        use super::*;

        pub fn u32_slice(w: &mut PayloadWriter, vs: &[u32]) {
            w.put_u64(vs.len() as u64);
            for &v in vs {
                w.put_u32(v);
            }
        }

        pub fn u64_slice(w: &mut PayloadWriter, vs: &[u64]) {
            w.put_u64(vs.len() as u64);
            for &v in vs {
                w.put_u64(v);
            }
        }

        pub fn graph(w: &mut PayloadWriter, g: &Graph) {
            let degrees: Vec<u32> = g.nodes().map(|u| g.neighbors(u).len() as u32).collect();
            let flat: Vec<u32> = g.nodes().flat_map(|u| g.neighbors(u).to_vec()).collect();
            u32_slice(w, &degrees);
            u32_slice(w, &flat);
        }
    }

    /// A small multigraph on `n` nodes from raw pairs (loops and parallel
    /// edges included), neighbor lists in insertion order.
    fn multigraph(n: usize, pairs: &[(NodeId, NodeId)]) -> Graph {
        let mut g = Graph::with_nodes(n);
        for &(u, v) in pairs {
            g.add_edge(u % n as NodeId, v % n as NodeId);
        }
        g
    }

    proptest::proptest! {
        /// Every slice writer, after a prefix of any length, writes the
        /// bytes of the element-at-a-time oracle.
        #[test]
        fn slice_writers_match_the_element_at_a_time_oracle(
            head in proptest::collection::vec(0u8..=u8::MAX, 0..9),
            a in proptest::collection::vec(0u32..=u32::MAX, 0..200),
            b in proptest::collection::vec(0u64..=u64::MAX, 0..200),
            pairs in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..100),
        ) {
            // `b` doubles as f64 bit patterns: NaN payloads, signed zeros,
            // subnormals and infinities all occur.
            let floats: Vec<f64> = b.iter().map(|&x| f64::from_bits(x)).collect();
            let mut fast = PayloadWriter::new();
            let mut each = PayloadWriter::new();
            fast.buf.extend_from_slice(&head);
            each.buf.extend_from_slice(&head);

            fast.put_u32_slice(&a);
            fast.put_u64_slice(&b);
            fast.put_f64_slice(&floats);
            fast.put_u64_iter(b.iter().rev().copied());
            fast.put_pairs(&pairs);

            oracle::u32_slice(&mut each, &a);
            oracle::u64_slice(&mut each, &b);
            oracle::u64_slice(&mut each, &b);
            let reversed: Vec<u64> = b.iter().rev().copied().collect();
            oracle::u64_slice(&mut each, &reversed);
            let flat: Vec<u32> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
            oracle::u32_slice(&mut each, &flat);
            proptest::prop_assert_eq!(fast.into_bytes(), each.into_bytes());
        }

        /// `put_graph` writes the oracle's bytes in list order, and
        /// `put_index` writes the oracle's bytes of `Graph::from_index`,
        /// on multigraphs with loops, parallel edges and isolated nodes.
        #[test]
        fn graph_and_index_writers_match_the_oracle(
            n in 1usize..40,
            pairs in proptest::collection::vec((0u32..64, 0u32..64), 0..150),
        ) {
            let g = multigraph(n, &pairs);
            let mut fast = PayloadWriter::new();
            let mut each = PayloadWriter::new();
            fast.put_graph(&g);
            oracle::graph(&mut each, &g);
            let idx = MultiplicityIndex::build(&g);
            fast.put_index(&idx);
            oracle::graph(&mut each, &Graph::from_index(&idx));
            proptest::prop_assert_eq!(fast.into_bytes(), each.into_bytes());
        }
    }

    #[test]
    fn a_short_iterator_is_refused() {
        let result = std::panic::catch_unwind(|| {
            let mut w = PayloadWriter::new();
            w.put_words(3, [[0u8; 4]; 2].into_iter());
        });
        assert!(result.is_err(), "a prefix of 3 over 2 words was written");
    }

    #[test]
    fn reader_underrun_is_corrupt() {
        let mut w = PayloadWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            r.get_u64().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Unread bytes are also an error.
        let mut r = PayloadReader::new(&bytes);
        let _ = r.get_u32().unwrap();
        r.finish().unwrap();
        let r = PayloadReader::new(&bytes);
        assert!(matches!(r.finish().unwrap_err(), SnapshotError::Corrupt(_)));
    }

    /// A header declaring far more payload than the file holds must fail
    /// on `Truncated` *without* attempting to read (or allocate) the
    /// declared amount — the read is bounded by the real file size.
    #[test]
    fn huge_declared_payload_is_truncated_without_allocation() {
        let path = tmp("huge_decl.snap");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&KIND_CSR_GRAPH.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 42).to_le_bytes()); // 4 TiB declared
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"tiny actual body");
        std::fs::write(&path, &bytes).unwrap();
        let t = std::time::Instant::now();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::Truncated
        ));
        // Would take far longer than this if 4 TiB were being zeroed.
        assert!(t.elapsed().as_secs() < 5);
        std::fs::remove_file(&path).ok();
    }

    /// A large non-snapshot file fails on the magic after reading only
    /// the header — the whole point of the header-first read. The file is
    /// sparse, so the test is cheap while the old slurp-first behavior
    /// would have materialized gigabytes.
    #[test]
    #[cfg(unix)]
    fn large_garbage_file_fails_fast_on_magic() {
        let path = tmp("garbage_big.snap");
        let f = std::fs::File::create(&path).unwrap();
        f.set_len(8 << 30).unwrap(); // 8 GiB hole, zero bytes ≠ magic
        drop(f);
        let t = std::time::Instant::now();
        assert!(matches!(
            read_csr(&path).unwrap_err(),
            SnapshotError::BadMagic
        ));
        assert!(t.elapsed().as_secs() < 5, "header-first read regressed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_section_roundtrip_and_errors() {
        let payload = b"wire payload".to_vec();
        let bytes = encode_section(KIND_JOB_SPEC, &payload);
        assert_eq!(decode_section(&bytes, KIND_JOB_SPEC).unwrap(), &payload[..]);
        // Wrong kind.
        assert!(matches!(
            decode_section(&bytes, KIND_CSR_GRAPH).unwrap_err(),
            SnapshotError::KindMismatch { .. }
        ));
        // Truncated stream.
        assert!(matches!(
            decode_section(&bytes[..bytes.len() - 1], KIND_JOB_SPEC).unwrap_err(),
            SnapshotError::Truncated
        ));
        // Flipped payload byte.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            decode_section(&flipped, KIND_JOB_SPEC).unwrap_err(),
            SnapshotError::ChecksumMismatch
        ));
        // Not a container at all.
        assert!(matches!(
            decode_section(b"hello", KIND_JOB_SPEC).unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn write_section_persists_exactly_the_encode_section_bytes() {
        let path = tmp("encode_matches_disk.snap");
        let kinds = [
            KIND_CSR_GRAPH,
            KIND_RESTORE_CHECKPOINT,
            KIND_JOB_SPEC,
            KIND_JOB_STATE,
        ];
        // Lengths on both sides of a checksum word and of the writer's
        // 8 KiB buffer.
        for (i, len) in [0usize, 1, 8, 13, 8 * 1024 - 32, 8 * 1024 + 5, 100_003]
            .into_iter()
            .enumerate()
        {
            let payload: Vec<u8> = (0..len).map(|b| (b * 31 + i) as u8).collect();
            let kind = kinds[i % kinds.len()];
            write_section(&path, kind, &payload).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                encode_section(kind, &payload),
                "kind {kind}, {len} payload bytes"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_and_string_payload_fields_roundtrip() {
        let mut w = PayloadWriter::new();
        w.put_byte_slice(b"\x00\xFFraw");
        w.put_str("tenant-α");
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_byte_slice().unwrap(), b"\x00\xFFraw");
        assert_eq!(r.get_str().unwrap(), "tenant-α");
        assert_eq!(r.get_str().unwrap(), "");
        r.finish().unwrap();
        // Invalid UTF-8 in a string field is Corrupt.
        let mut w = PayloadWriter::new();
        w.put_byte_slice(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert!(matches!(
            r.get_str().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn checksum_distinguishes_length_and_padding() {
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_ne!(checksum(b"\0\0\0\0\0\0\0\0"), checksum(b"\0"));
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }

    #[test]
    fn atomic_write_replaces_existing() {
        let path = tmp("atomic.snap");
        let a = Graph::from_edges(2, &[(0, 1)]).freeze();
        let b = messy().freeze();
        write_csr(&a, &path).unwrap();
        write_csr(&b, &path).unwrap();
        assert_eq!(read_csr(&path).unwrap().num_edges(), b.num_edges());
        // No temp file left behind.
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp_name).exists());
        std::fs::remove_file(&path).ok();
    }
}
