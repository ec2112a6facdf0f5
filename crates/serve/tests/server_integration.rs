//! End-to-end job-server suite, run against an in-process server on an
//! ephemeral port. `SGR_SERVE_TEST_WORKERS` sets the worker-pool size
//! (the CI matrix runs 1 and 4; default 2).
//!
//! The three pillars:
//! 1. **Determinism over the wire** — concurrently submitted jobs fetch
//!    back byte-identical to the same restoration run locally through
//!    the `sgr restore` code path (edge list → seeded RNG → crawl →
//!    restore), at any worker count.
//! 2. **Crash-safe adoption** — a job killed mid-rewire (fault-injected
//!    simulated crash) is re-adopted by a fresh server on the same state
//!    root and finishes bitwise-identical to the never-killed run.
//! 3. **Hostile input** — malformed, truncated, oversize, and
//!    unknown-type frames produce typed errors without taking down the
//!    server or other clients' jobs.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sgr_core::RestoreConfig;
use sgr_graph::io::{read_edge_list, write_edge_list};
use sgr_graph::snapshot::{encode_csr, encode_section, KIND_CSR_GRAPH};
use sgr_sample::{CrawlSpec, WalkKind};
use sgr_serve::protocol::{
    decode_error, read_frame, write_frame, FRAME_HEADER_LEN, FRAME_MAGIC, REQ_STATUS, REQ_SUBMIT,
    RESP_ERROR, RESP_STATUS,
};
use sgr_serve::server::estimate_job_bytes;
use sgr_serve::{Client, ClientError, JobState, ServeConfig, SubmitRequest};
use sgr_util::Xoshiro256pp;

fn workers() -> usize {
    match std::env::var("SGR_SERVE_TEST_WORKERS") {
        Ok(v) => v
            .parse()
            .expect("SGR_SERVE_TEST_WORKERS must be an integer"),
        Err(_) => 2,
    }
}

fn state_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-serve-it-{}-{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_cfg(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers(),
        dir,
        ..ServeConfig::default()
    }
}

/// The hidden graph under test, as the edge-list bytes a client submits.
fn graph_bytes() -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let g = sgr_gen::holme_kim(300, 4, 0.5, &mut rng).unwrap();
    let mut bytes = Vec::new();
    write_edge_list(&g, &mut bytes).unwrap();
    bytes
}

fn submit_req(seed: u64, tenant: &str, abort_after: u64) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.into(),
        walk_code: WalkKind::RandomWalk.code(),
        fraction: 0.1,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: 10.0,
        rewire: true,
        threads: 1,
        seed,
        checkpoint_every: 500,
        abort_after,
        edges: graph_bytes(),
    }
}

/// What `sgr restore` would produce locally from the same submission —
/// the exact CLI code path (edge list → seeded RNG → `run_crawl` →
/// restore), encoded as the snapshot section `sgr fetch` returns.
fn local_restore_bytes(req: &SubmitRequest) -> Vec<u8> {
    let (g, _) = read_edge_list(Cursor::new(&req.edges[..])).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(req.seed);
    let spec = CrawlSpec {
        walk: WalkKind::from_code(req.walk_code).unwrap(),
        fraction: req.fraction,
        snowball_k: req.snowball_k as usize,
        burn_prob: req.burn_prob,
    };
    let outcome = sgr_sample::run_crawl(&g, &spec, &mut rng).unwrap();
    let cfg = RestoreConfig {
        rewiring_coefficient: req.rewiring_coefficient,
        rewire: req.rewire,
        ..RestoreConfig::default()
    };
    let restored = sgr_core::restore(&outcome.crawl, &cfg, &mut rng).unwrap();
    encode_section(KIND_CSR_GRAPH, &encode_csr(&restored.snapshot))
}

/// Polls until the job reaches `want` (panicking on an unexpected
/// terminal state or timeout).
fn wait_for(client: &mut Client, job: u64, want: JobState) -> sgr_serve::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = client.status(job).unwrap();
        if s.state == want {
            return s;
        }
        let terminal = matches!(s.state, JobState::Completed | JobState::Failed);
        assert!(
            !(terminal || Instant::now() > deadline),
            "job {job}: wanted {:?}, got {:?} ({})",
            want,
            s.state,
            s.message
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pillar 1: two tenants submit concurrently; each fetched snapshot is
/// byte-identical to the local `sgr restore`-path run.
#[test]
fn concurrent_jobs_match_local_restore_bytes() {
    let root = state_root("concurrent");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let req_a = submit_req(7, "tenant-a", 0);
    let req_b = submit_req(8, "tenant-b", 0);
    let id_a = client.submit(&req_a).unwrap();
    let id_b = client.submit(&req_b).unwrap();
    assert_ne!(id_a, id_b);

    let done_a = wait_for(&mut client, id_a, JobState::Completed);
    let done_b = wait_for(&mut client, id_b, JobState::Completed);
    assert!(done_a.nodes > 0 && done_a.edges > 0);
    assert!(done_a.attempts_total > 0);
    assert_eq!(done_a.attempts_done, done_a.attempts_total);
    assert!(done_b.checkpoints > 0);

    let fetched_a = client.fetch(id_a).unwrap();
    let fetched_b = client.fetch(id_b).unwrap();
    assert_eq!(fetched_a, local_restore_bytes(&req_a));
    assert_eq!(fetched_b, local_restore_bytes(&req_b));
    assert_ne!(fetched_a, fetched_b, "different seeds must differ");

    // The job list sees both tenants.
    let list = client.list().unwrap();
    assert_eq!(list.len(), 2);

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Pillar 2: a fault-injected abort kills the job mid-rewire; a fresh
/// server on the same root adopts it from the durable checkpoint and the
/// fetched result is bitwise-identical to the never-interrupted run.
#[test]
fn interrupted_job_is_adopted_and_finishes_identically() {
    let root = state_root("adopt");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // 3 stage checkpoints + 2 mid-rewire ones, then the simulated crash:
    // the job dies inside the rewiring loop with durable progress.
    let req = submit_req(7, "tenant-a", 5);
    let id = client.submit(&req).unwrap();
    let s = wait_for(&mut client, id, JobState::Interrupted);
    assert!(s.message.contains("interrupted"), "{}", s.message);
    assert!(s.checkpoints >= 5);
    assert!(
        s.attempts_done > 0 && s.attempts_done < s.attempts_total,
        "crash must land mid-rewire ({}/{})",
        s.attempts_done,
        s.attempts_total
    );
    match client.fetch(id) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_NOT_FINISHED)
        }
        other => panic!("fetch of interrupted job: {other:?}"),
    }
    client.shutdown_server().unwrap();
    handle.join();

    // Restart on the same root: the job is re-adopted (abort_after is
    // not reapplied) and runs to completion.
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let done = wait_for(&mut client, id, JobState::Completed);
    assert_eq!(done.attempts_done, done.attempts_total);
    let fetched = client.fetch(id).unwrap();
    assert_eq!(fetched, local_restore_bytes(&req));

    // Fresh submissions continue the id sequence past adopted jobs.
    let id2 = client.submit(&submit_req(9, "tenant-b", 0)).unwrap();
    assert!(id2 > id);
    wait_for(&mut client, id2, JobState::Completed);

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Pillar 3: hostile frames get typed errors; the server and the jobs it
/// is running survive.
#[test]
fn hostile_frames_get_typed_errors_without_collateral_damage() {
    let root = state_root("hostile");
    let cfg = ServeConfig {
        max_frame_bytes: 1 << 20,
        ..serve_cfg(root.clone())
    };
    let max = cfg.max_frame_bytes;
    let handle = sgr_serve::start(cfg).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // A real job rides along; it must be unaffected by everything below.
    let req = submit_req(7, "bystander", 0);
    let id = client.submit(&req).unwrap();

    // Bad magic: typed error, then the connection closes.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xde; FRAME_HEADER_LEN]).unwrap();
        raw.flush().unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("magic"), "{msg}");
        assert!(read_frame(&mut raw, max).unwrap().is_none(), "must close");
    }

    // Oversize declared length: typed error naming the cap, connection
    // closes, and the server never allocates the declared amount.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..8].copy_from_slice(&REQ_STATUS.to_le_bytes());
        header[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        raw.write_all(&header).unwrap();
        raw.flush().unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("exceeds the cap"), "{msg}");
        assert!(read_frame(&mut raw, max).unwrap().is_none(), "must close");
    }

    // Truncated frame (header promises more than the peer sends): the
    // server drops the connection without panicking.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_STATUS, &[0u8; 64]).unwrap();
        raw.write_all(&buf[..FRAME_HEADER_LEN + 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
    }

    // Unknown frame type: typed error, but framing is intact so the
    // *same connection* keeps working.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, 999, b"").unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_PROTOCOL);
        assert!(msg.contains("unknown frame type 999"), "{msg}");
        // Still alive: a valid status request on the same stream.
        write_frame(
            &mut raw,
            REQ_STATUS,
            &sgr_serve::protocol::encode_job_id(id),
        )
        .unwrap();
        let (t, _) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_STATUS);
    }

    // Garbage submit payload: ERR_MALFORMED, connection stays open.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, REQ_SUBMIT, b"not a submit payload").unwrap();
        let (t, p) = read_frame(&mut raw, max).unwrap().unwrap();
        assert_eq!(t, RESP_ERROR);
        let (code, _) = decode_error(&p).unwrap();
        assert_eq!(code, sgr_serve::protocol::ERR_MALFORMED);
        write_frame(
            &mut raw,
            REQ_STATUS,
            &sgr_serve::protocol::encode_job_id(id),
        )
        .unwrap();
        assert_eq!(read_frame(&mut raw, max).unwrap().unwrap().0, RESP_STATUS);
    }

    // Typed application errors: unknown job, fetch before completion.
    match client.status(424242) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
        }
        other => panic!("status of unknown job: {other:?}"),
    }
    match client.fetch(424242) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
        }
        other => panic!("fetch of unknown job: {other:?}"),
    }

    // The bystander job is untouched by all of the above.
    wait_for(&mut client, id, JobState::Completed);
    assert_eq!(client.fetch(id).unwrap(), local_restore_bytes(&req));

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Admission control: a job whose memory estimate exceeds the budget is
/// rejected with a typed error at submit time, and the server keeps
/// serving.
#[test]
fn admission_rejects_jobs_past_the_memory_budget() {
    let root = state_root("admission");
    let cfg = ServeConfig {
        memory_budget: 10_000,
        ..serve_cfg(root.clone())
    };
    let handle = sgr_serve::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    match client.submit(&submit_req(7, "t", 0)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_REJECTED);
            assert!(message.contains("memory budget"), "{message}");
        }
        other => panic!("over-budget submit: {other:?}"),
    }
    // Rejected submissions leave no job behind.
    assert!(client.list().unwrap().is_empty());

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// `SubmitRequest::threads` is ignored: rewiring runs on one thread. A
/// `u64::MAX` request is admitted under a budget that fits exactly one
/// `threads = 1` job, is quoted the same estimate when the budget is one
/// byte short, and fetches back the `threads = 1` job's bytes.
#[test]
fn admission_ignores_the_thread_count() {
    let narrow = submit_req(7, "t", 0);
    let wide = SubmitRequest {
        threads: u64::MAX,
        ..narrow.clone()
    };
    let (g, _) = read_edge_list(Cursor::new(&narrow.edges[..])).unwrap();
    let estimate = estimate_job_bytes(narrow.edges.len(), g.num_nodes(), g.num_edges());

    let root = state_root("threads-short");
    let handle = sgr_serve::start(ServeConfig {
        memory_budget: estimate - 1,
        ..serve_cfg(root.clone())
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for req in [&wide, &narrow] {
        match client.submit(req) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, sgr_serve::protocol::ERR_REJECTED);
                let quoted = format!("estimated {estimate} bytes ");
                assert!(message.starts_with(&quoted), "{message}");
            }
            other => panic!("submit with threads = {}: {other:?}", req.threads),
        }
    }
    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();

    let root = state_root("threads-exact");
    let handle = sgr_serve::start(ServeConfig {
        memory_budget: estimate,
        ..serve_cfg(root.clone())
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let id_wide = client.submit(&wide).unwrap();
    wait_for(&mut client, id_wide, JobState::Completed);
    let id_narrow = client.submit(&narrow).unwrap();
    wait_for(&mut client, id_narrow, JobState::Completed);
    let fetched = client.fetch(id_wide).unwrap();
    assert_eq!(fetched, client.fetch(id_narrow).unwrap());
    assert_eq!(fetched, local_restore_bytes(&narrow));

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// A job whose edge list does not parse ends `Failed` with a message
/// naming the edge list, not a checkpoint. Admission rejects such bytes
/// at submit time, so the job reaches a worker through adoption: its
/// spec sits in the state root when the server starts.
#[test]
fn unparsable_edge_list_fails_the_job_with_an_edge_list_error() {
    let root = state_root("bad-edges");
    let req = SubmitRequest {
        edges: b"0 1\n1 two\n".to_vec(),
        ..submit_req(7, "tenant-a", 0)
    };
    let spec = sgr_serve::job::JobSpec::from_request(req.clone(), 500).unwrap();
    let dir = sgr_serve::job::job_dir(&root, 1);
    std::fs::create_dir_all(&dir).unwrap();
    spec.persist(&dir).unwrap();

    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let s = wait_for(&mut client, 1, JobState::Failed);
    assert!(s.message.starts_with("edge list"), "{}", s.message);
    assert!(!s.message.contains("checkpoint"), "{}", s.message);
    match client.submit(&req) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, sgr_serve::protocol::ERR_MALFORMED)
        }
        other => panic!("submit of an unparsable edge list: {other:?}"),
    }

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}
