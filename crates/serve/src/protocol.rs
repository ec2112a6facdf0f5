//! The framed wire protocol: length-prefixed frames whose payloads reuse
//! the [`sgr_graph::snapshot`] little-endian field encoding, so the job
//! server has exactly one serialization idiom on disk and on the wire.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SGRW"
//! 4       4     frame type (REQ_* / RESP_* constant)
//! 8       8     payload length in bytes
//! 16      len   payload
//! ```
//!
//! [`read_frame`] validates the header before trusting the declared
//! length: a wrong magic is [`ProtocolError::BadMagic`], a declared
//! length past the receiver's cap is [`ProtocolError::Oversize`] (the
//! read side never allocates more than its cap), and a connection that
//! ends mid-frame is [`ProtocolError::Truncated`]. A connection closed
//! cleanly *between* frames is not an error (`Ok(None)`).

use std::io::{self, IoSlice, Read, Write};

use sgr_graph::snapshot::{PayloadReader, PayloadWriter};
use sgr_graph::SnapshotError;

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SGRW";
/// Fixed frame-header size (magic + type + payload length).
pub const FRAME_HEADER_LEN: usize = 16;
/// Default cap on a single frame's payload (256 MiB) — covers the edge
/// lists of every graph in the paper's table with headroom, while
/// keeping a malicious or corrupt declared length from exhausting
/// memory.
pub const DEFAULT_MAX_FRAME_BYTES: u64 = 256 << 20;

/// Submit a restoration job.
pub const REQ_SUBMIT: u32 = 1;
/// Poll one job's status.
pub const REQ_STATUS: u32 = 2;
/// Fetch a finished job's restored graph.
pub const REQ_FETCH: u32 = 3;
/// List every job the server knows about.
pub const REQ_LIST: u32 = 4;
/// Request a graceful shutdown (running jobs finish first).
pub const REQ_SHUTDOWN: u32 = 5;

/// Response to [`REQ_SUBMIT`]: the assigned job id.
pub const RESP_SUBMITTED: u32 = 101;
/// Response to [`REQ_STATUS`]: one encoded [`JobStatus`].
pub const RESP_STATUS: u32 = 102;
/// Response to [`REQ_FETCH`]: the payload is a complete
/// [`sgr_graph::snapshot`] section (`KIND_CSR_GRAPH`) — the snapshot
/// container doubles as the wire format, so the fetched bytes can be
/// written to disk verbatim and read back with `read_csr`.
pub const RESP_SNAPSHOT: u32 = 103;
/// Typed failure response: an encoded error code + message.
pub const RESP_ERROR: u32 = 104;
/// Response to [`REQ_LIST`]: a count-prefixed sequence of [`JobStatus`].
pub const RESP_JOBS: u32 = 105;
/// Acknowledges [`REQ_SHUTDOWN`].
pub const RESP_SHUTDOWN_OK: u32 = 106;

/// Whether `t` is a frame type this protocol version defines.
pub fn is_known_frame_type(t: u32) -> bool {
    matches!(
        t,
        REQ_SUBMIT
            | REQ_STATUS
            | REQ_FETCH
            | REQ_LIST
            | REQ_SHUTDOWN
            | RESP_SUBMITTED
            | RESP_STATUS
            | RESP_SNAPSHOT
            | RESP_ERROR
            | RESP_JOBS
            | RESP_SHUTDOWN_OK
    )
}

/// [`RESP_ERROR`] code: the named job id does not exist.
pub const ERR_UNKNOWN_JOB: u32 = 1;
/// [`RESP_ERROR`] code: the job exists but has no fetchable result yet
/// (queued, running, interrupted, or failed).
pub const ERR_NOT_FINISHED: u32 = 2;
/// [`RESP_ERROR`] code: admission control rejected the job.
pub const ERR_REJECTED: u32 = 3;
/// [`RESP_ERROR`] code: the request payload failed to decode or
/// validate.
pub const ERR_MALFORMED: u32 = 4;
/// [`RESP_ERROR`] code: the frame itself was unusable (bad magic,
/// oversize declared length, unknown frame type, truncation).
pub const ERR_PROTOCOL: u32 = 5;
/// [`RESP_ERROR`] code: the server is shutting down and admits no new
/// jobs.
pub const ERR_SHUTTING_DOWN: u32 = 6;
/// [`RESP_ERROR`] code: an internal server failure.
pub const ERR_INTERNAL: u32 = 7;

/// What can go wrong speaking the frame protocol.
#[derive(Debug)]
pub enum ProtocolError {
    /// Socket-level failure.
    Io(io::Error),
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic,
    /// A well-framed message of a type this protocol does not define.
    UnknownFrameType(u32),
    /// The declared payload length exceeds the receiver's cap.
    Oversize {
        /// Declared payload length.
        len: u64,
        /// The receiver's configured cap.
        max: u64,
    },
    /// The connection ended mid-frame.
    Truncated,
    /// The frame payload failed to decode as its message type.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::BadMagic => write!(f, "bad frame magic (expected \"SGRW\")"),
            ProtocolError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtocolError::Oversize { len, max } => {
                write!(f, "declared payload length {len} exceeds the cap {max}")
            }
            ProtocolError::Truncated => write!(f, "connection closed mid-frame"),
            ProtocolError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<SnapshotError> for ProtocolError {
    fn from(e: SnapshotError) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

/// Writes one frame: the header and the payload leave in one vectored
/// write (a loop of them only if the writer takes part of the frame),
/// without copying the payload.
///
/// Transport rule: one write per frame, and `TCP_NODELAY` on both ends
/// of the socket ([`crate::Client::connect`] and the server's
/// connection handler set it). A header written on its own is a small
/// segment; Nagle's algorithm then holds the payload back until the
/// peer ACKs the header, and the peer, blocked reading the rest of the
/// frame, delays that ACK by ~40 ms. That stall cost ~43 ms per
/// `list` round trip and ~89 ms per `status` round trip on localhost.
pub fn write_frame<W: Write>(w: &mut W, frame_type: u32, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..8].copy_from_slice(&frame_type.to_le_bytes());
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame, bounding the payload allocation by `max_len`.
///
/// Returns `Ok(None)` on a clean close (EOF before the first header
/// byte); EOF anywhere inside a frame is [`ProtocolError::Truncated`].
/// The payload buffer is sized from the *validated* header, never from
/// unchecked input.
pub fn read_frame<R: Read>(
    r: &mut R,
    max_len: u64,
) -> Result<Option<(u32, Vec<u8>)>, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < FRAME_HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    if header[..4] != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    let frame_type = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if len > max_len {
        return Err(ProtocolError::Oversize { len, max: max_len });
    }
    let len = usize::try_from(len).map_err(|_| ProtocolError::Oversize { len, max: max_len })?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e)
        }
    })?;
    Ok(Some((frame_type, payload)))
}

/// A [`REQ_SUBMIT`] payload: the hidden graph's edge-list bytes plus the
/// crawl and restoration parameters. The server replays exactly the
/// `sgr restore` pipeline over these inputs, so a submitted job is
/// byte-identical to a local run with the same seed.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// Tenant label for fair scheduling (free-form; empty means the
    /// anonymous tenant).
    pub tenant: String,
    /// Crawler family ([`sgr_sample::WalkKind::code`]). Admission takes
    /// only `rw` and `nbrw` (see [`crate::JobSpec::check_design`]).
    pub walk_code: u32,
    /// Fraction of nodes to crawl.
    pub fraction: f64,
    /// Snowball fan-out cap.
    pub snowball_k: u64,
    /// Forest-fire burn parameter.
    pub burn_prob: f64,
    /// `R_C`, the rewiring-attempts coefficient.
    pub rewiring_coefficient: f64,
    /// Whether to run the rewiring phase.
    pub rewire: bool,
    /// Ignored; retire at the next benchmark change. Carried on the wire
    /// and into `RestoreConfig::threads` unchanged, so the frame, job
    /// spec and checkpoint encodings stay as they were; rewiring runs on
    /// one thread whatever it holds.
    pub threads: u64,
    /// The RNG seed; the entire output is a function of it.
    pub seed: u64,
    /// Mid-rewire checkpoint cadence (0 = the server default).
    pub checkpoint_every: u64,
    /// Fault-injection hook: abort after this many checkpoints
    /// (0 = never). Applies to the job's *first* run only — adoption
    /// after a restart ignores it, otherwise an adopted job would
    /// re-crash forever.
    pub abort_after: u64,
    /// The hidden graph as edge-list text (the same bytes
    /// `sgr restore --graph` would read).
    pub edges: Vec<u8>,
}

impl SubmitRequest {
    /// Encodes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_str(&self.tenant);
        w.put_u32(self.walk_code);
        w.put_f64(self.fraction);
        w.put_u64(self.snowball_k);
        w.put_f64(self.burn_prob);
        w.put_f64(self.rewiring_coefficient);
        w.put_bool(self.rewire);
        w.put_u64(self.threads);
        w.put_u64(self.seed);
        w.put_u64(self.checkpoint_every);
        w.put_u64(self.abort_after);
        w.put_byte_slice(&self.edges);
        w.into_bytes()
    }

    /// Decodes a request payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = PayloadReader::new(bytes);
        let req = SubmitRequest {
            tenant: r.get_str()?,
            walk_code: r.get_u32()?,
            fraction: r.get_f64()?,
            snowball_k: r.get_u64()?,
            burn_prob: r.get_f64()?,
            rewiring_coefficient: r.get_f64()?,
            rewire: r.get_bool()?,
            threads: r.get_u64()?,
            seed: r.get_u64()?,
            checkpoint_every: r.get_u64()?,
            abort_after: r.get_u64()?,
            edges: r.get_byte_slice()?,
        };
        r.finish()?;
        Ok(req)
    }
}

/// Job lifecycle states as reported over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    #[default]
    Queued,
    /// A worker is running the restoration pipeline.
    Running,
    /// Finished; the result snapshot is fetchable.
    Completed,
    /// The pipeline failed; see the status message.
    Failed,
    /// A fault-injected abort stopped the job mid-run (simulated crash);
    /// a restart with the same state root re-adopts it.
    Interrupted,
}

impl JobState {
    /// Stable wire/persistence code.
    pub fn code(&self) -> u32 {
        match self {
            JobState::Queued => 1,
            JobState::Running => 2,
            JobState::Completed => 3,
            JobState::Failed => 4,
            JobState::Interrupted => 5,
        }
    }

    /// Inverse of [`JobState::code`].
    pub fn from_code(code: u32) -> Option<Self> {
        Some(match code {
            1 => JobState::Queued,
            2 => JobState::Running,
            3 => JobState::Completed,
            4 => JobState::Failed,
            5 => JobState::Interrupted,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Interrupted => "interrupted",
        }
    }
}

/// One job's status as reported by [`RESP_STATUS`] / [`RESP_JOBS`]. The
/// default is a queued job with no progress.
#[derive(Clone, Debug, Default)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// The pipeline stage last entered (`estimate` / `target` /
    /// `construct` / `rewire`; empty before the first stage).
    pub stage: String,
    /// Committed rewiring attempts so far.
    pub attempts_done: u64,
    /// Total rewiring attempts the job will run (0 until known).
    pub attempts_total: u64,
    /// Checkpoints persisted so far.
    pub checkpoints: u64,
    /// Restored graph's node count (0 until completed).
    pub nodes: u64,
    /// Restored graph's edge count (0 until completed).
    pub edges: u64,
    /// Failure / interruption detail (empty otherwise).
    pub message: String,
}

impl JobStatus {
    fn put(&self, w: &mut PayloadWriter) {
        w.put_u64(self.id);
        w.put_str(&self.tenant);
        w.put_u32(self.state.code());
        w.put_str(&self.stage);
        w.put_u64(self.attempts_done);
        w.put_u64(self.attempts_total);
        w.put_u64(self.checkpoints);
        w.put_u64(self.nodes);
        w.put_u64(self.edges);
        w.put_str(&self.message);
    }

    fn get(r: &mut PayloadReader<'_>) -> Result<Self, ProtocolError> {
        let id = r.get_u64()?;
        let tenant = r.get_str()?;
        let code = r.get_u32()?;
        let state = JobState::from_code(code)
            .ok_or_else(|| ProtocolError::Malformed(format!("unknown job state code {code}")))?;
        Ok(JobStatus {
            id,
            tenant,
            state,
            stage: r.get_str()?,
            attempts_done: r.get_u64()?,
            attempts_total: r.get_u64()?,
            checkpoints: r.get_u64()?,
            nodes: r.get_u64()?,
            edges: r.get_u64()?,
            message: r.get_str()?,
        })
    }

    /// Encodes one status (the [`RESP_STATUS`] payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decodes one status.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = PayloadReader::new(bytes);
        let s = Self::get(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    /// Encodes a status list (the [`RESP_JOBS`] payload).
    pub fn encode_list(list: &[JobStatus]) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u64(list.len() as u64);
        for s in list {
            s.put(&mut w);
        }
        w.into_bytes()
    }

    /// Decodes a status list.
    pub fn decode_list(bytes: &[u8]) -> Result<Vec<JobStatus>, ProtocolError> {
        let mut r = PayloadReader::new(bytes);
        let n = r.get_u64()?;
        let n = usize::try_from(n)
            .map_err(|_| ProtocolError::Malformed("job count overflows usize".into()))?;
        if n > bytes.len() {
            // Each entry needs well over one byte; an impossible count is
            // a malformed payload, not an allocation request.
            return Err(ProtocolError::Malformed(format!(
                "job count {n} exceeds payload size"
            )));
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(Self::get(&mut r)?);
        }
        r.finish()?;
        Ok(list)
    }
}

/// Encodes a `{ job_id }` payload ([`REQ_STATUS`] / [`REQ_FETCH`] /
/// [`RESP_SUBMITTED`]).
pub fn encode_job_id(id: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(id);
    w.into_bytes()
}

/// Decodes a `{ job_id }` payload.
pub fn decode_job_id(bytes: &[u8]) -> Result<u64, ProtocolError> {
    let mut r = PayloadReader::new(bytes);
    let id = r.get_u64()?;
    r.finish()?;
    Ok(id)
}

/// Encodes a [`RESP_ERROR`] payload.
pub fn encode_error(code: u32, message: &str) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u32(code);
    w.put_str(message);
    w.into_bytes()
}

/// Decodes a [`RESP_ERROR`] payload.
pub fn decode_error(bytes: &[u8]) -> Result<(u32, String), ProtocolError> {
    let mut r = PayloadReader::new(bytes);
    let code = r.get_u32()?;
    let message = r.get_str()?;
    r.finish()?;
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_STATUS, b"hello").unwrap();
        let mut c = Cursor::new(buf);
        let (t, p) = read_frame(&mut c, 1024).unwrap().unwrap();
        assert_eq!(t, REQ_STATUS);
        assert_eq!(p, b"hello");
        // Clean EOF between frames.
        assert!(read_frame(&mut c, 1024).unwrap().is_none());
    }

    /// Takes 1, 2 or 3 bytes per call, spread across the slices it is
    /// given, and fails once with `Interrupted` before its first byte.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.calls += 1;
            let mut room = 1 + self.calls % 3;
            let mut taken = 0;
            for b in bufs {
                let k = room.min(b.len());
                self.out.extend_from_slice(&b[..k]);
                room -= k;
                taken += k;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Accepts every byte it is given and counts its write calls.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for b in bufs {
                self.out.extend_from_slice(b);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn expected_frame(frame_type: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = FRAME_MAGIC.to_vec();
        bytes.extend_from_slice(&frame_type.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn payloads() -> Vec<Vec<u8>> {
        let big: Vec<u8> = (0..5000u32).map(|i| (i * 7 + 3) as u8).collect();
        vec![Vec::new(), b"x".to_vec(), b"hello world".to_vec(), big]
    }

    #[test]
    fn partial_and_interrupted_writes_deliver_the_whole_frame() {
        for payload in payloads() {
            let mut w = Trickle {
                out: Vec::new(),
                calls: 0,
                interrupted: false,
            };
            write_frame(&mut w, RESP_SNAPSHOT, &payload).unwrap();
            assert!(w.interrupted);
            assert_eq!(w.out, expected_frame(RESP_SNAPSHOT, &payload));
        }
    }

    #[test]
    fn a_writer_that_takes_everything_sees_one_write_per_frame() {
        let mut w = Counting::default();
        let mut expected = Vec::new();
        for (i, payload) in payloads().iter().enumerate() {
            write_frame(&mut w, REQ_SUBMIT, payload).unwrap();
            assert_eq!(w.calls, i + 1);
            expected.extend(expected_frame(REQ_SUBMIT, payload));
        }
        assert_eq!(w.out, expected);
    }

    #[test]
    fn a_writer_that_takes_nothing_is_write_zero() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Full, REQ_LIST, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_STATUS, b"x").unwrap();
        buf[0] = b'X';
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::BadMagic));
    }

    #[test]
    fn oversize_declared_length_never_allocates() {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..8].copy_from_slice(&REQ_STATUS.to_le_bytes());
        header[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(header.to_vec()), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversize { len: u64::MAX, .. }));
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_STATUS, b"hello world").unwrap();
        // Mid-header.
        let err = read_frame(&mut Cursor::new(buf[..7].to_vec()), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated));
        // Mid-payload.
        let err =
            read_frame(&mut Cursor::new(buf[..FRAME_HEADER_LEN + 3].to_vec()), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated));
    }

    #[test]
    fn submit_request_roundtrip() {
        let req = SubmitRequest {
            tenant: "acme".into(),
            walk_code: 1,
            fraction: 0.1,
            snowball_k: 50,
            burn_prob: 0.7,
            rewiring_coefficient: 500.0,
            rewire: true,
            threads: 4,
            seed: 42,
            checkpoint_every: 1000,
            abort_after: 0,
            edges: b"0 1\n1 2\n".to_vec(),
        };
        let back = SubmitRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.seed, 42);
        assert_eq!(back.edges, req.edges);
        // Trailing garbage is malformed, not silently ignored.
        let mut bytes = req.encode();
        bytes.push(0);
        assert!(SubmitRequest::decode(&bytes).is_err());
    }

    #[test]
    fn status_roundtrips_single_and_list() {
        let s = JobStatus {
            id: 7,
            tenant: "t".into(),
            state: JobState::Running,
            stage: "rewire".into(),
            attempts_done: 500,
            attempts_total: 2000,
            checkpoints: 4,
            nodes: 0,
            edges: 0,
            message: String::new(),
        };
        let back = JobStatus::decode(&s.encode()).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.state, JobState::Running);
        let list = JobStatus::decode_list(&JobStatus::encode_list(&[s.clone(), s])).unwrap();
        assert_eq!(list.len(), 2);
        // An absurd count is rejected before any allocation.
        let mut w = PayloadWriter::new();
        w.put_u64(u64::MAX);
        assert!(JobStatus::decode_list(&w.into_bytes()).is_err());
    }

    #[test]
    fn error_and_job_id_roundtrip() {
        assert_eq!(decode_job_id(&encode_job_id(9)).unwrap(), 9);
        let (code, msg) = decode_error(&encode_error(ERR_REJECTED, "too big")).unwrap();
        assert_eq!(code, ERR_REJECTED);
        assert_eq!(msg, "too big");
    }

    #[test]
    fn all_frame_types_are_known_and_distinct() {
        let all = [
            REQ_SUBMIT,
            REQ_STATUS,
            REQ_FETCH,
            REQ_LIST,
            REQ_SHUTDOWN,
            RESP_SUBMITTED,
            RESP_STATUS,
            RESP_SNAPSHOT,
            RESP_ERROR,
            RESP_JOBS,
            RESP_SHUTDOWN_OK,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(is_known_frame_type(*a));
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(!is_known_frame_type(0));
        assert!(!is_known_frame_type(999));
    }
}
