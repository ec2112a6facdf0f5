//! Admission honesty: the memory estimate the server reserves for a job
//! must bound what the job actually allocates.
//!
//! Runs real jobs through an in-process server with one worker and the
//! tracking allocator installed, from the submit frame to the durable
//! result: the edge-list blob held in the frame and the spec, the
//! admission parse, the job's own parse and crawl, the staged
//! restoration with mid-rewire checkpoints (multiplicity index and
//! triangle pass included) and the result write. The peak of modeled
//! heap bytes over that span, above the level before the submit, must
//! stay under `estimate_job_bytes` for the job at every size.

use std::io::Cursor;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sgr_graph::io::{read_edge_list, write_edge_list};
use sgr_sample::WalkKind;
use sgr_serve::protocol::{decode_job_id, read_frame, write_frame, REQ_SUBMIT, RESP_SUBMITTED};
use sgr_serve::server::estimate_job_bytes;
use sgr_serve::{Client, JobState, ServeConfig, SubmitRequest};
use sgr_util::alloc::{live_model_bytes, peak_model_bytes, reset_peak, TrackingAlloc};
use sgr_util::Xoshiro256pp;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn edge_list_bytes(nodes: usize) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(nodes as u64);
    let g = sgr_gen::holme_kim(nodes, 4, 0.5, &mut rng).unwrap();
    let mut bytes = Vec::new();
    write_edge_list(&g, &mut bytes).unwrap();
    bytes
}

/// Submits one job over a raw frame (the payload is encoded before the
/// measured span starts, so the client's copy is not counted), waits for
/// it to complete, and returns (estimate, measured peak bytes).
fn measure_job(client: &mut Client, addr: std::net::SocketAddr, edges: Vec<u8>) -> (u64, u64) {
    let (g, _) = read_edge_list(Cursor::new(&edges[..])).unwrap();
    let estimate = estimate_job_bytes(edges.len(), g.num_nodes(), g.num_edges());
    // Two or three mid-rewire checkpoints per job.
    let checkpoint_every = g.num_edges() as u64 / 2;
    drop(g);
    let payload = SubmitRequest {
        tenant: "t".into(),
        walk_code: WalkKind::RandomWalk.code(),
        fraction: 0.1,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: 1.0,
        rewire: true,
        threads: 1,
        seed: 5,
        checkpoint_every,
        abort_after: 0,
        edges,
    }
    .encode();
    let mut stream = TcpStream::connect(addr).unwrap();

    let base = live_model_bytes();
    reset_peak();
    write_frame(&mut stream, REQ_SUBMIT, &payload).unwrap();
    let (ty, reply) = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert_eq!(ty, RESP_SUBMITTED, "submit rejected");
    let id = decode_job_id(&reply).unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let s = client.status(id).unwrap();
        match s.state {
            JobState::Completed => break,
            JobState::Queued | JobState::Running => {}
            other => panic!("job {id} ended {other:?}: {}", s.message),
        }
        assert!(Instant::now() < deadline, "job {id} timed out");
        std::thread::sleep(Duration::from_millis(20));
    }
    (estimate, peak_model_bytes().saturating_sub(base))
}

#[test]
fn admission_estimate_bounds_the_measured_job_peak() {
    let root = std::env::temp_dir().join(format!("sgr-serve-admission-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let handle = sgr_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        dir: root.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for (id, nodes) in (1..).zip([2_000, 8_000, 30_000]) {
        let (estimate, peak) = measure_job(&mut client, handle.addr(), edge_list_bytes(nodes));
        eprintln!(
            "{nodes} nodes: estimate {estimate} B, measured peak {peak} B ({:.3})",
            peak as f64 / estimate as f64
        );
        std::fs::remove_dir_all(sgr_serve::job::job_dir(&root, id)).ok();
        assert!(
            estimate >= peak,
            "{nodes}-node job: estimate {estimate} B < measured peak {peak} B"
        );
    }

    client.shutdown_server().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}
