//! Decoder robustness: every decoder the job server applies to bytes
//! from a socket or a state directory must answer `Ok` or a typed error
//! on any input and never panic, and valid encodings must round-trip.
//!
//! Decoders: `SubmitRequest::decode`, `JobStatus::decode`,
//! `JobStatus::decode_list`, `decode_error`, `decode_job_id`,
//! `read_frame` (with a 64-byte frame cap, so oversize declarations are
//! common) and `snapshot::decode_section`. Inputs: random bytes (bare, and
//! behind a valid frame or section magic so the deeper checks run), every
//! truncation of a valid encoding and every single-bit flip of one.
//!
//! A strict prefix of a valid payload must fail to decode, and a
//! single-bit flip anywhere in a snapshot section must be caught (by the
//! header checks, the length cross-check or the checksum).
//!
//! The file path (`snapshot::read_section` under `JobSpec::load`,
//! `TerminalStatus::load` and the restart scan `scan_jobs`) gets every
//! truncation and every single-bit flip of a persisted `spec.sgrjob` and
//! `status.sgrjob`: each load must return `Err` without panicking, and
//! `scan_jobs` must skip the job directory rather than fail. Every
//! truncation and bit flip of the spec's payload, sealed in a valid
//! section, reaches the request decoder and its validation through
//! `JobSpec::load`, which must not panic either.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use sgr_graph::snapshot::{decode_section, encode_section, FORMAT_VERSION, KIND_JOB_SPEC, MAGIC};
use sgr_serve::job::{job_dir, scan_jobs, spec_path, status_path};
use sgr_serve::protocol::{
    decode_error, decode_job_id, encode_error, encode_job_id, read_frame, write_frame,
    ProtocolError, FRAME_MAGIC,
};
use sgr_serve::{JobSpec, JobState, JobStatus, SubmitRequest, TerminalStatus};

/// The frame cap `read_frame` runs under here.
const MAX_FRAME: u64 = 64;

/// Runs `f`, failing with the offending input if it panics.
fn no_panic<T>(what: &str, bytes: &[u8], f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("{what} panicked on {bytes:02x?}"),
    }
}

/// A frame's type and payload.
type Frame = (u32, Vec<u8>);

/// Reads frames from `bytes` until a clean end or the first error;
/// returns the frames read and how the stream ended.
fn read_frames(bytes: &[u8]) -> (Vec<Frame>, Result<(), ProtocolError>) {
    let mut cursor = Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor, MAX_FRAME) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

/// Feeds `bytes` to every decoder.
fn decode_all(bytes: &[u8]) {
    no_panic("SubmitRequest::decode", bytes, || {
        SubmitRequest::decode(bytes).ok();
    });
    no_panic("JobStatus::decode", bytes, || {
        JobStatus::decode(bytes).ok();
    });
    no_panic("JobStatus::decode_list", bytes, || {
        JobStatus::decode_list(bytes).ok();
    });
    no_panic("decode_error", bytes, || {
        decode_error(bytes).ok();
    });
    no_panic("decode_job_id", bytes, || {
        decode_job_id(bytes).ok();
    });
    no_panic("read_frame", bytes, || {
        let _ = read_frames(bytes);
    });
    for kind in 1..=4 {
        no_panic("decode_section", bytes, || {
            decode_section(bytes, kind).ok();
        });
    }
}

/// Runs every strict prefix of `valid` through every decoder and through
/// `prefix_check`, then every single-bit flip of `valid` through every
/// decoder and through `flip_check`.
fn mutate(valid: &[u8], prefix_check: impl Fn(&[u8]), flip_check: impl Fn(&[u8])) {
    for len in 0..valid.len() {
        decode_all(&valid[..len]);
        prefix_check(&valid[..len]);
    }
    let mut flipped = valid.to_vec();
    for bit in 0..valid.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode_all(&flipped);
        flip_check(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..max)
}

/// Strings with one- and two-byte UTF-8 characters.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x800, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Any 64-bit word; floats are drawn as raw bit patterns (NaN payloads
/// and signed zeros included), the way the payload codec stores them.
fn word() -> std::ops::Range<u64> {
    0..u64::MAX
}

fn arb_submit() -> impl Strategy<Value = SubmitRequest> {
    (
        (arb_string(), 0u32..8, word(), word(), word(), word()),
        (0u8..2, word(), word(), word(), word(), arb_bytes(64)),
    )
        .prop_map(
            |(
                (tenant, walk_code, fraction, snowball_k, burn_prob, rc),
                (rewire, threads, seed, checkpoint_every, abort_after, edges),
            )| SubmitRequest {
                tenant,
                walk_code,
                fraction: f64::from_bits(fraction),
                snowball_k,
                burn_prob: f64::from_bits(burn_prob),
                rewiring_coefficient: f64::from_bits(rc),
                rewire: rewire == 1,
                threads,
                seed,
                checkpoint_every,
                abort_after,
                edges,
            },
        )
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    (
        (word(), arb_string(), 1u32..=5, arb_string(), word()),
        (word(), word(), word(), word(), arb_string()),
    )
        .prop_map(
            |(
                (id, tenant, code, stage, attempts_done),
                (attempts_total, checkpoints, nodes, edges, message),
            )| JobStatus {
                id,
                tenant,
                state: JobState::from_code(code).unwrap(),
                stage,
                attempts_done,
                attempts_total,
                checkpoints,
                nodes,
                edges,
                message,
            },
        )
}

fn must_fail<T, E>(what: &str, r: Result<T, E>, bytes: &[u8]) {
    assert!(r.is_err(), "{what} accepted the strict prefix {bytes:02x?}");
}

proptest! {
    #[test]
    fn random_bytes_never_panic(
        bytes in arb_bytes(256),
        prefix in 0u8..3,
        kind in 1u32..=4,
    ) {
        // Bare bytes mostly stop at the first check; behind a valid frame
        // magic or a valid section header prefix they reach the length,
        // cap and checksum checks.
        let mut input = match prefix {
            0 => Vec::new(),
            1 => FRAME_MAGIC.to_vec(),
            _ => {
                let mut h = MAGIC.to_vec();
                h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                h.extend_from_slice(&kind.to_le_bytes());
                h
            }
        };
        input.extend_from_slice(&bytes);
        decode_all(&input);
    }

    #[test]
    fn submit_request_round_trips_and_resists_mutation(req in arb_submit()) {
        let bytes = req.encode();
        let back = SubmitRequest::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes.clone());
        prop_assert_eq!(&back.tenant, &req.tenant);
        prop_assert_eq!(&back.edges, &req.edges);
        mutate(
            &bytes,
            |p| must_fail("SubmitRequest::decode", SubmitRequest::decode(p), p),
            |_| {},
        );
    }

    #[test]
    fn job_status_round_trips_and_resists_mutation(
        status in arb_status(),
        list in proptest::collection::vec(arb_status(), 0..4),
    ) {
        let one = status.encode();
        let back = JobStatus::decode(&one).unwrap();
        prop_assert_eq!(back.encode(), one.clone());
        prop_assert_eq!(back.state, status.state);
        mutate(&one, |p| must_fail("JobStatus::decode", JobStatus::decode(p), p), |_| {});

        let many = JobStatus::encode_list(&list);
        let back = JobStatus::decode_list(&many).unwrap();
        prop_assert_eq!(JobStatus::encode_list(&back), many.clone());
        prop_assert_eq!(back.len(), list.len());
        mutate(
            &many,
            |p| must_fail("JobStatus::decode_list", JobStatus::decode_list(p), p),
            |_| {},
        );
    }

    #[test]
    fn error_and_job_id_round_trip_and_resist_mutation(
        code in 0u32..16,
        message in arb_string(),
        id in word(),
    ) {
        let err = encode_error(code, &message);
        prop_assert_eq!(decode_error(&err).unwrap(), (code, message.clone()));
        mutate(&err, |p| must_fail("decode_error", decode_error(p), p), |_| {});

        let job = encode_job_id(id);
        prop_assert_eq!(decode_job_id(&job).unwrap(), id);
        mutate(&job, |p| must_fail("decode_job_id", decode_job_id(p), p), |_| {});
    }

    #[test]
    fn frames_round_trip_and_resist_mutation(
        frames in proptest::collection::vec((0u32..200, arb_bytes(MAX_FRAME as usize + 1)), 1..4),
    ) {
        let mut stream = Vec::new();
        for (t, payload) in &frames {
            write_frame(&mut stream, *t, payload).unwrap();
        }
        let (read, end) = read_frames(&stream);
        prop_assert!(end.is_ok());
        prop_assert_eq!(&read, &frames);
        // A stream cut anywhere but a frame boundary is a truncation.
        mutate(
            &stream,
            |p| {
                let (_, end) = read_frames(p);
                let mut boundary = 0;
                let at_boundary = p.is_empty()
                    || frames.iter().any(|(_, payload)| {
                        boundary += 16 + payload.len();
                        boundary == p.len()
                    });
                if !at_boundary {
                    assert!(
                        matches!(end, Err(ProtocolError::Truncated)),
                        "cut at {} of {}: {end:?}",
                        p.len(),
                        stream.len()
                    );
                }
            },
            |_| {},
        );
    }

    #[test]
    fn sections_round_trip_and_catch_every_bit_flip(
        kind in 1u32..=4,
        payload in arb_bytes(96),
    ) {
        let section = encode_section(kind, &payload);
        prop_assert_eq!(decode_section(&section, kind).unwrap(), &payload[..]);
        mutate(
            &section,
            |p| must_fail("decode_section", decode_section(p, kind), p),
            |f| {
                assert!(
                    decode_section(f, kind).is_err(),
                    "decode_section accepted a bit flip: {f:02x?}"
                );
            },
        );
    }
}

/// A fresh state root holding one job directory, `job-1`.
fn state_root(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("sgr-fuzz-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = job_dir(&root, 1);
    std::fs::create_dir_all(&dir).unwrap();
    (root, dir)
}

fn valid_spec() -> JobSpec {
    let req = SubmitRequest {
        tenant: "acme".into(),
        walk_code: 1,
        fraction: 0.1,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: 20.0,
        rewire: true,
        threads: 1,
        seed: 42,
        checkpoint_every: 1000,
        abort_after: 0,
        edges: b"0 1\n1 2\n2 0\n".to_vec(),
    };
    JobSpec::from_request(req, 1).unwrap()
}

/// Every strict prefix of `valid`, then every single-bit flip of it.
fn file_mutations(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..valid.len()).map(|len| valid[..len].to_vec());
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    prefixes.chain(flips)
}

/// Scans `root`, which must hold exactly one job directory, `dir`, and
/// asserts that the scan skipped it rather than failing or adopting it.
fn assert_scan_skips(root: &Path, dir: &Path, bytes: &[u8]) {
    let (jobs, skipped) = no_panic("scan_jobs", bytes, || scan_jobs(root))
        .unwrap_or_else(|e| panic!("scan_jobs failed on {bytes:02x?}: {e}"));
    assert!(jobs.is_empty(), "scan_jobs adopted {bytes:02x?}");
    assert_eq!(skipped.len(), 1, "{bytes:02x?}");
    assert_eq!(skipped[0].0, dir);
}

#[test]
fn damaged_spec_files_are_refused_and_skipped() {
    let (root, dir) = state_root("spec");
    valid_spec().persist(&dir).unwrap();
    let valid = std::fs::read(spec_path(&dir)).unwrap();
    for bytes in file_mutations(&valid) {
        std::fs::write(spec_path(&dir), &bytes).unwrap();
        let loaded = no_panic("JobSpec::load", &bytes, || JobSpec::load(&dir));
        assert!(loaded.is_err(), "JobSpec::load accepted {bytes:02x?}");
        assert_scan_skips(&root, &dir, &bytes);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn damaged_status_files_are_refused_and_skipped() {
    let (root, dir) = state_root("status");
    valid_spec().persist(&dir).unwrap();
    TerminalStatus {
        state: JobState::Completed,
        message: "done".into(),
        nodes: 10,
        edges: 20,
        attempts: 300,
        checkpoints: 4,
    }
    .persist(&dir)
    .unwrap();
    let valid = std::fs::read(status_path(&dir)).unwrap();
    for bytes in file_mutations(&valid) {
        std::fs::write(status_path(&dir), &bytes).unwrap();
        let loaded = no_panic("TerminalStatus::load", &bytes, || {
            TerminalStatus::load(&dir)
        });
        assert!(
            loaded.is_err(),
            "TerminalStatus::load accepted {bytes:02x?}"
        );
        assert_scan_skips(&root, &dir, &bytes);
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Damage behind an intact checksum reaches `SubmitRequest::decode` and
/// the spec validation. A truncated payload must be refused; a flipped
/// one may still be a valid spec (a different seed, say), but neither
/// the load nor the scan may panic or fail.
#[test]
fn damaged_spec_payloads_in_valid_sections_never_panic() {
    let (root, dir) = state_root("payload");
    let payload = valid_spec().encode();
    for len in 0..payload.len() {
        let sealed = encode_section(KIND_JOB_SPEC, &payload[..len]);
        std::fs::write(spec_path(&dir), &sealed).unwrap();
        let loaded = no_panic("JobSpec::load", &sealed, || JobSpec::load(&dir));
        assert!(loaded.is_err(), "JobSpec::load accepted {sealed:02x?}");
        assert_scan_skips(&root, &dir, &sealed);
    }
    let mut flipped = payload.clone();
    for bit in 0..payload.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let sealed = encode_section(KIND_JOB_SPEC, &flipped);
        std::fs::write(spec_path(&dir), &sealed).unwrap();
        let loaded = no_panic("JobSpec::load", &sealed, || JobSpec::load(&dir));
        let (jobs, skipped) = no_panic("scan_jobs", &sealed, || scan_jobs(&root))
            .unwrap_or_else(|e| panic!("scan_jobs failed on {sealed:02x?}: {e}"));
        assert_eq!(jobs.len() + skipped.len(), 1, "{sealed:02x?}");
        assert_eq!(loaded.is_ok(), jobs.len() == 1, "{sealed:02x?}");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    std::fs::remove_dir_all(&root).ok();
}
