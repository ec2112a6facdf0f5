//! Byte pins for the job server's on-disk and wire formats.
//!
//! A state root outlives the server binary that wrote it: a restarted
//! server adopts every job directory it finds, so `spec.sgrjob` and
//! `status.sgrjob` must keep their exact bytes across refactors of the
//! code that writes them, as must the submit and status frames a client
//! built from another revision speaks. Each constant here is the full
//! file or frame, hex-encoded, for one fixed input; a mismatch prints the
//! bytes this build produced.

use std::path::PathBuf;

use sgr_serve::job::{spec_path, status_path, JobSpec, TerminalStatus};
use sgr_serve::protocol::{write_frame, REQ_SUBMIT, RESP_STATUS};
use sgr_serve::{JobState, JobStatus, SubmitRequest};

/// `spec.sgrjob` for [`request`] admitted with a default cadence of 777.
const SPEC_FILE: &str = "534752534e41500001000000030000006c000000000000006047bc1fe58c7fa8\
    040000000000000061636d6505000000000000000000d03f0700000000000000\
    000000000000e03f000000000000344001000000000000000300000000000000\
    efcdab8967452301090300000000000002000000000000000c00000000000000\
    3020310a3120320a3220300a";

/// `status.sgrjob` for [`terminal`].
const STATUS_FILE: &str = "534752534e41500001000000040000003a000000000000006bdc4f21e5c9da20\
    040000000e0000000000000065646765206c6973743a206261640b0000000000\
    00001600000000000000050d0000000000000400000000000000";

/// The `REQ_SUBMIT` frame carrying [`request`].
const SUBMIT_FRAME: &str = "53475257010000006c00000000000000040000000000000061636d6505000000\
    000000000000d03f0700000000000000000000000000e03f0000000000003440\
    01000000000000000300000000000000efcdab89674523010000000000000000\
    02000000000000000c000000000000003020310a3120320a3220300a";

/// The `RESP_STATUS` frame carrying [`status`].
const STATUS_FRAME: &str = "5347525766000000560000000000000009000000000000000400000000000000\
    61636d65020000000600000000000000726577697265f401000000000000d007\
    0000000000000300000000000000000000000000000000000000000000000000\
    000000000000";

/// A submission with no field at its default, except `checkpoint_every`,
/// which admission fills with the server default.
fn request() -> SubmitRequest {
    SubmitRequest {
        tenant: "acme".into(),
        walk_code: 5,
        fraction: 0.25,
        snowball_k: 7,
        burn_prob: 0.5,
        rewiring_coefficient: 20.0,
        rewire: true,
        threads: 3,
        seed: 0x0123_4567_89ab_cdef,
        checkpoint_every: 0,
        abort_after: 2,
        edges: b"0 1\n1 2\n2 0\n".to_vec(),
    }
}

fn terminal() -> TerminalStatus {
    TerminalStatus {
        state: JobState::Failed,
        message: "edge list: bad".into(),
        nodes: 11,
        edges: 22,
        attempts: 3333,
        checkpoints: 4,
    }
}

fn status() -> JobStatus {
    JobStatus {
        id: 9,
        tenant: "acme".into(),
        state: JobState::Running,
        stage: "rewire".into(),
        attempts_done: 500,
        attempts_total: 2000,
        checkpoints: 3,
        nodes: 0,
        edges: 0,
        message: String::new(),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_pinned(what: &str, bytes: &[u8], pinned: &str) {
    assert_eq!(hex(bytes), pinned, "{what} bytes changed");
}

fn job_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-format-pin-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn spec_file_bytes_are_pinned() {
    let dir = job_dir("spec");
    JobSpec::from_request(request(), 777)
        .unwrap()
        .persist(&dir)
        .unwrap();
    assert_pinned(
        "spec.sgrjob",
        &std::fs::read(spec_path(&dir)).unwrap(),
        SPEC_FILE,
    );
    let back = JobSpec::load(&dir).unwrap();
    assert_eq!(back.seed, request().seed);
    assert_eq!(back.checkpoint_every, 777);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_file_bytes_are_pinned() {
    let dir = job_dir("status");
    terminal().persist(&dir).unwrap();
    assert_pinned(
        "status.sgrjob",
        &std::fs::read(status_path(&dir)).unwrap(),
        STATUS_FILE,
    );
    let back = TerminalStatus::load(&dir).unwrap().unwrap();
    assert_eq!(back.message, terminal().message);
    assert_eq!(back.attempts, terminal().attempts);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_and_status_frames_are_pinned() {
    let mut frame = Vec::new();
    write_frame(&mut frame, REQ_SUBMIT, &request().encode()).unwrap();
    assert_pinned("REQ_SUBMIT frame", &frame, SUBMIT_FRAME);
    let mut frame = Vec::new();
    write_frame(&mut frame, RESP_STATUS, &status().encode()).unwrap();
    assert_pinned("RESP_STATUS frame", &frame, STATUS_FRAME);
}
