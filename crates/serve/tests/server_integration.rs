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
//!
//! Round trips are also timed: one write per frame and `TCP_NODELAY` on
//! both ends keep a request/response pair from waiting on a delayed ACK.

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

/// The checkpoint files a finished job left under its state directory,
/// by stage name.
fn checkpoint_stages(root: &std::path::Path, id: u64) -> Vec<String> {
    let dir = sgr_serve::job::ckpt_dir(&sgr_serve::job::job_dir(root, id));
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
        .iter()
        .map(|n| n.trim_end_matches(".sgrsnap")[10..].to_string())
        .collect()
}

/// A job that sets no checkpoint cadence on a server that sets none gets
/// 64 attempts per edge of its graph, persisted in its spec: at a small
/// R_C that is more than the whole rewiring, so it writes only the three
/// stage-boundary checkpoints. A cadence in the request wins, and so
/// does a positive server default; both checkpoint mid-rewire.
#[test]
fn unset_checkpoint_cadence_is_sized_by_the_graph() {
    let bytes = graph_bytes();
    let (g, _) = read_edge_list(Cursor::new(&bytes[..])).unwrap();
    let sized = 64 * g.num_edges() as u64;
    let unset = SubmitRequest {
        checkpoint_every: 0,
        ..submit_req(7, "tenant-a", 0)
    };
    let stage_only = ["estimated", "targeted", "constructed"];

    let root = state_root("sized-cadence");
    let cfg = serve_cfg(root.clone());
    assert_eq!(cfg.default_checkpoint_every, 0, "sizing is not the default");
    let handle = sgr_serve::start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = client.submit(&unset).unwrap();
    let done = wait_for(&mut client, id, JobState::Completed);
    assert!(
        done.attempts_total < sized,
        "the rewiring outlasts one cadence"
    );
    let spec = sgr_serve::JobSpec::load(&sgr_serve::job::job_dir(&root, id)).unwrap();
    assert_eq!(spec.checkpoint_every, sized);
    assert_eq!(done.checkpoints, 3);
    assert_eq!(checkpoint_stages(&root, id), stage_only);
    assert_eq!(client.fetch(id).unwrap(), local_restore_bytes(&unset));

    // A cadence in the request wins over the sized one.
    let id = client.submit(&submit_req(7, "tenant-a", 0)).unwrap();
    let done = wait_for(&mut client, id, JobState::Completed);
    let spec = sgr_serve::JobSpec::load(&sgr_serve::job::job_dir(&root, id)).unwrap();
    assert_eq!(spec.checkpoint_every, 500);
    assert!(done.checkpoints > 3);
    assert!(checkpoint_stages(&root, id).contains(&"rewiring".to_string()));
    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();

    // So does a positive server default.
    let root = state_root("fixed-cadence");
    let handle = sgr_serve::start(ServeConfig {
        default_checkpoint_every: 700,
        ..serve_cfg(root.clone())
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let id = client.submit(&unset).unwrap();
    let done = wait_for(&mut client, id, JobState::Completed);
    let spec = sgr_serve::JobSpec::load(&sgr_serve::job::job_dir(&root, id)).unwrap();
    assert_eq!(spec.checkpoint_every, 700);
    assert!(done.checkpoints > 3);
    assert!(checkpoint_stages(&root, id).contains(&"rewiring".to_string()));
    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Restoration weighs a crawl by degree, which is valid only for walks
/// whose stationary distribution is proportional to degree. Admission
/// refuses every other design with `ERR_REJECTED` before any crawl, and
/// names the design; `nbrw` is admitted and matches the local run.
#[test]
fn admission_refuses_designs_the_estimators_cannot_weigh() {
    let root = state_root("designs");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for walk in [
        WalkKind::MetropolisHastings,
        WalkKind::Bfs,
        WalkKind::Snowball,
        WalkKind::ForestFire,
    ] {
        let req = SubmitRequest {
            walk_code: walk.code(),
            ..submit_req(7, "t", 0)
        };
        match client.submit(&req) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, sgr_serve::protocol::ERR_REJECTED, "{message}");
                let named = format!("walk design {} ", walk.name());
                assert!(message.starts_with(&named), "{message}");
            }
            other => panic!("submit with --walk {}: {other:?}", walk.name()),
        }
    }
    // Refused submissions leave no job behind.
    assert!(client.list().unwrap().is_empty());

    let nbrw = SubmitRequest {
        walk_code: WalkKind::NonBacktracking.code(),
        ..submit_req(7, "t", 0)
    };
    let id = client.submit(&nbrw).unwrap();
    wait_for(&mut client, id, JobState::Completed);
    assert_eq!(client.fetch(id).unwrap(), local_restore_bytes(&nbrw));

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// A state root written before admission refused non-walk designs: an
/// unfinished `mhrw` or `bfs` job (fresh or with a checkpoint) never runs
/// and ends `Failed` with the reason, persisted so the next restart reads
/// it; a completed `bfs` job keeps its status and its fetchable result.
#[test]
fn adoption_fails_unfinished_refused_designs_and_keeps_finished_ones() {
    use sgr_serve::job::{ckpt_dir, job_dir, result_path};
    let root = state_root("design-adopt");
    let with_walk = |walk: WalkKind| SubmitRequest {
        walk_code: walk.code(),
        ..submit_req(7, "t", 0)
    };
    let plant = |id: u64, req: &SubmitRequest| {
        let dir = job_dir(&root, id);
        std::fs::create_dir_all(ckpt_dir(&dir)).unwrap();
        let spec = sgr_serve::JobSpec::from_request(req.clone(), 500).unwrap();
        spec.persist(&dir).unwrap();
        dir
    };
    // Job 1: queued, never checkpointed.
    plant(1, &with_walk(WalkKind::MetropolisHastings));
    // Job 2: interrupted with a checkpoint; it must not be read.
    let dir2 = plant(2, &with_walk(WalkKind::Bfs));
    std::fs::write(ckpt_dir(&dir2).join("ckpt-0001-estimated.sgrsnap"), b"x").unwrap();
    // Job 3: completed by an earlier build.
    let bfs = with_walk(WalkKind::Bfs);
    let dir3 = plant(3, &bfs);
    let result = local_restore_bytes(&bfs);
    std::fs::write(result_path(&dir3), &result).unwrap();
    sgr_serve::TerminalStatus {
        state: JobState::Completed,
        message: String::new(),
        nodes: 1,
        edges: 2,
        attempts: 3,
        checkpoints: 4,
    }
    .persist(&dir3)
    .unwrap();

    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for (id, walk) in [(1, "mhrw"), (2, "bfs")] {
        let s = client.status(id).unwrap();
        assert_eq!(s.state, JobState::Failed, "job {id}: {}", s.message);
        let named = format!("not run: walk design {walk} ");
        assert!(s.message.starts_with(&named), "{}", s.message);
        let dir = job_dir(&root, id);
        let persisted = sgr_serve::TerminalStatus::load(&dir).unwrap().unwrap();
        assert_eq!(persisted.state, JobState::Failed);
        assert_eq!(persisted.message, s.message);
        assert!(!result_path(&dir).exists(), "job {id} ran");
        match client.fetch(id) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, sgr_serve::protocol::ERR_NOT_FINISHED)
            }
            other => panic!("fetch of refused job {id}: {other:?}"),
        }
    }
    let done = client.status(3).unwrap();
    assert_eq!(done.state, JobState::Completed);
    assert_eq!((done.nodes, done.edges), (1, 2));
    assert_eq!(client.fetch(3).unwrap(), result);
    assert_eq!(client.list().unwrap().len(), 3);

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// The transport rule (one write per frame, `TCP_NODELAY` on both ends)
/// holds: 100 small round trips on one connection take well under a
/// second. A frame whose payload trails its header in a second segment
/// waits ~40 ms for the peer's delayed ACK, which puts these 100 round
/// trips at several seconds.
#[test]
fn small_round_trips_do_not_wait_for_delayed_acks() {
    let root = state_root("round-trips");
    let handle = sgr_serve::start(serve_cfg(root.clone())).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let t = Instant::now();
    for _ in 0..50 {
        assert!(client.list().unwrap().is_empty());
    }
    let lists = t.elapsed();
    let t = Instant::now();
    for _ in 0..50 {
        match client.status(u64::MAX) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, sgr_serve::protocol::ERR_UNKNOWN_JOB)
            }
            other => panic!("status of an unknown job: {other:?}"),
        }
    }
    let statuses = t.elapsed();
    assert!(
        lists + statuses < Duration::from_secs(1),
        "50 list round trips took {lists:?}, 50 status round trips {statuses:?}"
    );

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}
