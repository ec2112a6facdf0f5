//! The job server: listener, connection handlers, admission control,
//! the fair FIFO scheduler, and the bounded worker pool.
//!
//! ## Concurrency shape
//!
//! One acceptor thread turns connections into detached handler threads
//! (the protocol is request/response over a blocking socket, so a
//! handler is just a loop around [`read_frame`]). `workers` pipeline
//! threads share a [`Mutex`]-guarded job table plus a [`Condvar`]; all
//! pipeline work runs outside the lock — handlers and the scheduler only
//! touch the table for microseconds, so status polls never stall behind
//! a restoration.
//!
//! ## Scheduling
//!
//! FIFO with tenant fairness: a worker picks the queued job whose tenant
//! has the fewest jobs currently running, breaking ties by submission
//! order. A tenant that floods the queue therefore cannot starve
//! others, but when only one tenant has work the pool drains it in pure
//! FIFO order.
//!
//! ## Admission control
//!
//! A submission is parsed and validated before it is admitted; its
//! memory footprint is estimated from the edge-list size and the parsed
//! node/edge counts ([`estimate_job_bytes`], a ceiling calibrated against
//! measured job peaks).
//! If the estimate — alone or on top of the estimates of every job
//! already queued or running — exceeds the configured budget, the job
//! is rejected with [`ERR_REJECTED`] at submit time, when the client
//! can still react, rather than OOM-killing the server later.
//!
//! A submission whose crawl design the restoration cannot weigh
//! ([`JobSpec::check_design`]: anything but `rw` and `nbrw`) is rejected
//! with [`ERR_REJECTED`] too, before any crawl. A restart applies the
//! same rule to the jobs it adopts: an unfinished job naming such a
//! design never runs and ends `Failed` with the reason, persisted like
//! any other failure; a finished one keeps its status, and a completed
//! one its fetchable result.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sgr_core::{CheckpointPolicy, PipelineObserver, RestoreError, RestoreStats, Restored};
use sgr_graph::io::read_edge_list;
use sgr_graph::snapshot::write_csr;
use sgr_graph::{Graph, SnapshotError};
use sgr_util::Xoshiro256pp;

use crate::job::{ckpt_dir, job_dir, result_path, scan_jobs, Adoption, JobSpec, TerminalStatus};
use crate::protocol::{
    decode_job_id, encode_error, encode_job_id, is_known_frame_type, read_frame, write_frame,
    JobState, JobStatus, ProtocolError, SubmitRequest, DEFAULT_MAX_FRAME_BYTES, ERR_INTERNAL,
    ERR_MALFORMED, ERR_NOT_FINISHED, ERR_PROTOCOL, ERR_REJECTED, ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_JOB, REQ_FETCH, REQ_LIST, REQ_SHUTDOWN, REQ_STATUS, REQ_SUBMIT, RESP_ERROR,
    RESP_JOBS, RESP_SHUTDOWN_OK, RESP_SNAPSHOT, RESP_STATUS, RESP_SUBMITTED,
};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port — the bound
    /// address is on the [`ServerHandle`]).
    pub addr: String,
    /// Worker-pool size (restorations running concurrently).
    pub workers: usize,
    /// State root: job directories live here, and a restart on the same
    /// root re-adopts every non-terminal job it finds.
    pub dir: PathBuf,
    /// Per-frame payload cap.
    pub max_frame_bytes: u64,
    /// Aggregate memory-estimate budget for queued + running jobs.
    pub memory_budget: u64,
    /// `checkpoint_every` for jobs that don't set their own. `0` (the
    /// default) sizes it per job:
    /// [`sized_checkpoint_every`](crate::job::sized_checkpoint_every) of
    /// the submitted graph's edge count. A positive value is a fixed
    /// cadence for every job.
    pub default_checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".into(),
            workers: 2,
            dir: PathBuf::from("sgr-serve-state"),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            memory_budget: 2 << 30,
            default_checkpoint_every: 0,
        }
    }
}

/// Admission-time ceiling on a job's heap footprint, from the edge-list
/// size and the parsed hidden graph's node and edge counts.
///
/// It covers the whole job: the blob (the request frame, the decoded
/// spec and its persisted encoding during admission; the spec while the
/// job runs), the parsed hidden graph and crawl, and the restoration of a
/// graph about the hidden one's size — adjacency arena, multiplicity
/// index, the triangle pass's oriented arena, candidate slots and degree
/// buckets, checkpoint encodings, the frozen snapshot and the encoded
/// result. The per-node and per-edge coefficients are calibrated against
/// the tracking allocator's measured peak on Holme–Kim jobs (the
/// `admission_estimate` test pins estimate ≥ peak): the peak is 0.84 of
/// the estimate at 10k nodes, 0.85 at 100k and 0.75 at 1M, where a
/// 52 MB edge list (4M edges) estimates to 1.07 GB.
pub fn estimate_job_bytes(blob_len: usize, nodes: usize, edges: usize) -> u64 {
    4 * blob_len as u64 + 96 * nodes as u64 + 192 * edges as u64
}

/// Parses `spec`'s edge list, returning the graph with the job's
/// admission estimate, or why the edge list does not parse.
fn parse_hidden(spec: &JobSpec) -> Result<(Graph, u64), String> {
    let (g, _) = read_edge_list(Cursor::new(&spec.edges[..])).map_err(|e| e.to_string())?;
    let estimate = estimate_job_bytes(spec.edges.len(), g.num_nodes(), g.num_edges());
    Ok((g, estimate))
}

/// One job's in-memory record: the status the wire reports, plus what
/// only the server needs. The spec (with its edge blob) is present only
/// while the job is queued; a worker takes it when the job starts and it
/// is dropped when the job leaves the active set. A submitted job also
/// keeps the graph admission parsed, so the worker crawls it without
/// parsing the blob again; an adopted job has none.
struct JobRecord {
    status: JobStatus,
    spec: Option<JobSpec>,
    hidden: Option<Graph>,
    resume_from: Option<PathBuf>,
    /// Submission order, for FIFO tie-breaks.
    seq: u64,
    /// This job's admission estimate (released at terminal states).
    estimate: u64,
}

impl JobRecord {
    /// A job in a terminal state: nothing left to run or reserve.
    fn finished(status: JobStatus, seq: u64) -> Self {
        JobRecord {
            status,
            spec: None,
            hidden: None,
            resume_from: None,
            seq,
            estimate: 0,
        }
    }

    /// A job waiting for a worker.
    fn queued(
        id: u64,
        spec: JobSpec,
        hidden: Option<Graph>,
        resume_from: Option<PathBuf>,
        seq: u64,
        estimate: u64,
    ) -> Self {
        JobRecord {
            status: JobStatus {
                id,
                tenant: spec.tenant.clone(),
                ..JobStatus::default()
            },
            spec: Some(spec),
            hidden,
            resume_from,
            seq,
            estimate,
        }
    }
}

struct State {
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    next_seq: u64,
    committed: u64,
    shutdown: bool,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    state: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    /// Locks the job table, recovering it if a thread panicked while
    /// holding the lock. Every critical section is a few field
    /// assignments, each of which leaves the table valid; the only panic
    /// possible inside one is a broken internal condition (a queued job
    /// without its spec), which leaves that one job record stale.
    /// Treating the poisoned lock as fatal would instead take every later
    /// handler and worker down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases a finishing job's admission estimate.
    fn release(&self, st: &mut State, id: u64) {
        if let Some(rec) = st.jobs.get_mut(&id) {
            st.committed = st.committed.saturating_sub(rec.estimate);
            rec.estimate = 0;
            rec.spec = None;
            rec.hidden = None;
        }
    }
}

/// A running server: the bound address plus the join handles of its
/// acceptor and workers.
pub struct ServerHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` bindings).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down (a [`REQ_SHUTDOWN`] frame) and
    /// every worker has drained.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds, adopts any jobs found under the state root, and spawns the
/// acceptor and worker threads.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    launch(cfg).map(|(handle, _)| handle)
}

/// [`start`], also handing back the shared job table.
fn launch(cfg: ServeConfig) -> io::Result<(ServerHandle, Arc<Shared>)> {
    std::fs::create_dir_all(&cfg.dir)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let (scanned, skipped) = scan_jobs(&cfg.dir)?;
    for (dir, why) in &skipped {
        eprintln!(
            "sgr serve: skipping unreadable job dir {}: {why}",
            dir.display()
        );
    }
    let mut jobs = BTreeMap::new();
    let mut next_id = 1;
    let mut next_seq = 0;
    let mut committed = 0u64;
    for job in scanned {
        next_id = next_id.max(job.id + 1);
        let rec = match (job.adoption, job.spec.check_design()) {
            (Adoption::Terminal(t), _) => {
                JobRecord::finished(t.into_status(job.id, job.spec.tenant.clone()), next_seq)
            }
            // Admitted before its design was refused: fail it, durably,
            // instead of running it.
            (_, Err(why)) => {
                let mut status = JobStatus {
                    id: job.id,
                    tenant: job.spec.tenant.clone(),
                    ..JobStatus::default()
                };
                fail(
                    &mut status,
                    JobError::Refused(why),
                    &job_dir(&cfg.dir, job.id),
                );
                JobRecord::finished(status, next_seq)
            }
            (adoption, Ok(())) => {
                let resume_from = match adoption {
                    Adoption::Resume(p) => Some(p),
                    _ => None,
                };
                // Re-admit under the budget; adopted jobs are never
                // rejected (they were admitted once already), so the
                // committed total may transiently exceed the budget
                // after a restart — new submissions then wait it out.
                // An edge list that no longer parses fails its job when
                // a worker runs it, not the whole restart.
                let estimate = parse_hidden(&job.spec).map_or(0, |(_, e)| e);
                committed += estimate;
                JobRecord::queued(job.id, job.spec, None, resume_from, next_seq, estimate)
            }
        };
        jobs.insert(job.id, rec);
        next_seq += 1;
    }

    let shared = Arc::new(Shared {
        cfg: cfg.clone(),
        addr,
        state: Mutex::new(State {
            jobs,
            next_id,
            next_seq,
            committed,
            shutdown: false,
        }),
        cv: Condvar::new(),
    });

    let mut threads = Vec::new();
    for worker in 0..cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sgr-serve-worker-{worker}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("sgr-serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))?,
        );
    }
    Ok((ServerHandle { addr, threads }, shared))
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if shared.lock().shutdown {
            // The self-connect from the shutdown handler (or any
            // straggler) lands here; stop accepting.
            return;
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("sgr-serve-conn".into())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// Serves one connection until the peer closes it or framing breaks.
///
/// Error policy: a decodable-but-invalid request (unknown frame type,
/// malformed payload, unknown job id, …) gets a typed [`RESP_ERROR`] and
/// the connection keeps serving — one bad request never kills a client's
/// session, let alone other clients' jobs. A broken *frame layer* (bad
/// magic, oversize declaration, truncation) also gets a best-effort
/// [`RESP_ERROR`], but then the connection closes: byte alignment is
/// lost, so nothing after it can be trusted.
///
/// Transport rule: one write per frame ([`write_frame`]) and
/// `TCP_NODELAY` on both ends, so a response never waits on Nagle's
/// algorithm for the client's delayed ACK (~40 ms, which made every
/// round trip cost ~43 ms or more on localhost). A stream that refuses
/// the option is still served, only slower.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    loop {
        match read_frame(&mut stream, shared.cfg.max_frame_bytes) {
            Ok(None) => return,
            Ok(Some((frame_type, payload))) => {
                if !is_known_frame_type(frame_type) {
                    let err = ProtocolError::UnknownFrameType(frame_type);
                    let _ = write_frame(
                        &mut stream,
                        RESP_ERROR,
                        &encode_error(ERR_PROTOCOL, &err.to_string()),
                    );
                    continue;
                }
                if handle_request(&mut stream, shared, frame_type, &payload).is_err() {
                    return;
                }
                if frame_type == REQ_SHUTDOWN {
                    return;
                }
            }
            Err(err) => {
                let _ = write_frame(
                    &mut stream,
                    RESP_ERROR,
                    &encode_error(ERR_PROTOCOL, &err.to_string()),
                );
                return;
            }
        }
    }
}

/// Dispatches one well-framed request. `Err` means the response could
/// not be written (dead peer) and the connection should close.
fn handle_request(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    frame_type: u32,
    payload: &[u8],
) -> io::Result<()> {
    match frame_type {
        REQ_SUBMIT => match admit(shared, payload) {
            Ok(id) => write_frame(stream, RESP_SUBMITTED, &encode_job_id(id)),
            Err((code, msg)) => write_frame(stream, RESP_ERROR, &encode_error(code, &msg)),
        },
        REQ_STATUS => match decode_job_id(payload) {
            Ok(id) => {
                let st = shared.lock();
                match st.jobs.get(&id) {
                    Some(rec) => {
                        let status = rec.status.clone();
                        drop(st);
                        write_frame(stream, RESP_STATUS, &status.encode())
                    }
                    None => write_frame(
                        stream,
                        RESP_ERROR,
                        &encode_error(ERR_UNKNOWN_JOB, &format!("no job {id}")),
                    ),
                }
            }
            Err(e) => write_frame(
                stream,
                RESP_ERROR,
                &encode_error(ERR_MALFORMED, &e.to_string()),
            ),
        },
        REQ_LIST => {
            let st = shared.lock();
            let list: Vec<JobStatus> = st.jobs.values().map(|r| r.status.clone()).collect();
            drop(st);
            write_frame(stream, RESP_JOBS, &JobStatus::encode_list(&list))
        }
        REQ_FETCH => match decode_job_id(payload) {
            Ok(id) => {
                let state = {
                    let st = shared.lock();
                    st.jobs.get(&id).map(|r| r.status.state)
                };
                match state {
                    None => write_frame(
                        stream,
                        RESP_ERROR,
                        &encode_error(ERR_UNKNOWN_JOB, &format!("no job {id}")),
                    ),
                    Some(JobState::Completed) => {
                        let path = result_path(&job_dir(&shared.cfg.dir, id));
                        match std::fs::read(&path) {
                            Ok(bytes) => write_frame(stream, RESP_SNAPSHOT, &bytes),
                            Err(e) => write_frame(
                                stream,
                                RESP_ERROR,
                                &encode_error(ERR_INTERNAL, &format!("result unreadable: {e}")),
                            ),
                        }
                    }
                    Some(other) => write_frame(
                        stream,
                        RESP_ERROR,
                        &encode_error(
                            ERR_NOT_FINISHED,
                            &format!("job {id} is {} — no result to fetch", other.name()),
                        ),
                    ),
                }
            }
            Err(e) => write_frame(
                stream,
                RESP_ERROR,
                &encode_error(ERR_MALFORMED, &e.to_string()),
            ),
        },
        REQ_SHUTDOWN => {
            {
                let mut st = shared.lock();
                st.shutdown = true;
            }
            shared.cv.notify_all();
            // Reply before waking the acceptor: once it returns, the
            // hosting process may exit and cut this connection.
            let reply = write_frame(stream, RESP_SHUTDOWN_OK, &[]);
            // Wake the blocking acceptor so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            reply
        }
        _ => unreachable!("filtered by is_known_frame_type"),
    }
}

/// Validates and admits a submission; on success the spec is durable on
/// disk and the job is queued with the graph its edge list parses to. A
/// cadence neither the request nor the server sets is sized from that
/// graph ([`JobSpec::sized_for`]) and persisted in the spec. The id is
/// allocated (and `next_id` advanced) only after validation passes, so
/// rejected submissions leave no trace.
fn admit(shared: &Arc<Shared>, payload: &[u8]) -> Result<u64, (u32, String)> {
    let req = SubmitRequest::decode(payload).map_err(|e| (ERR_MALFORMED, e.to_string()))?;
    let spec = JobSpec::from_request(req, shared.cfg.default_checkpoint_every)
        .map_err(|e| (ERR_MALFORMED, e))?;
    spec.check_design().map_err(|e| (ERR_REJECTED, e))?;
    let (hidden, estimate) =
        parse_hidden(&spec).map_err(|e| (ERR_MALFORMED, format!("edge list: {e}")))?;
    let spec = spec.sized_for(hidden.num_edges());

    let id = {
        let mut st = shared.lock();
        if st.shutdown {
            return Err((ERR_SHUTTING_DOWN, "server is shutting down".into()));
        }
        if estimate > shared.cfg.memory_budget || st.committed + estimate > shared.cfg.memory_budget
        {
            return Err((
                ERR_REJECTED,
                format!(
                    "estimated {estimate} bytes would exceed the memory budget \
                     ({} committed of {})",
                    st.committed, shared.cfg.memory_budget
                ),
            ));
        }
        let id = st.next_id;
        st.next_id += 1;
        // Reserve under the lock; the spec write happens outside it.
        st.committed += estimate;
        id
    };

    // Durability barrier: spec (and checkpoint dir) on disk before the
    // client learns the id — an acknowledged job survives any crash.
    let dir = job_dir(&shared.cfg.dir, id);
    let persisted = std::fs::create_dir_all(ckpt_dir(&dir))
        .map_err(|e| e.to_string())
        .and_then(|()| spec.persist(&dir).map_err(|e| e.to_string()));
    let mut st = shared.lock();
    if let Err(e) = persisted {
        st.committed = st.committed.saturating_sub(estimate);
        return Err((ERR_INTERNAL, format!("persisting job spec: {e}")));
    }
    let seq = st.next_seq;
    st.next_seq += 1;
    st.jobs.insert(
        id,
        JobRecord::queued(id, spec, Some(hidden), None, seq, estimate),
    );
    drop(st);
    shared.cv.notify_one();
    Ok(id)
}

/// Picks the next job under the fairness rule; see the module docs.
fn pick_job(st: &State) -> Option<u64> {
    let mut running: BTreeMap<&str, usize> = BTreeMap::new();
    for rec in st.jobs.values() {
        if rec.status.state == JobState::Running {
            *running.entry(rec.status.tenant.as_str()).or_default() += 1;
        }
    }
    st.jobs
        .iter()
        .filter(|(_, r)| r.status.state == JobState::Queued)
        .min_by_key(|(_, r)| {
            let tenant = r.status.tenant.as_str();
            (running.get(tenant).copied().unwrap_or(0), r.seq)
        })
        .map(|(id, _)| *id)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, spec, hidden, resume_from) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = pick_job(&st) {
                    let rec = st.jobs.get_mut(&id).unwrap();
                    rec.status.state = JobState::Running;
                    let spec = rec.spec.take().expect("queued job has a spec");
                    let hidden = rec.hidden.take();
                    let resume_from = rec.resume_from.take();
                    break (id, spec, hidden, resume_from);
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, id, spec, hidden, resume_from);
    }
}

/// Streams live pipeline progress into the shared job table.
struct StatusObserver<'a> {
    shared: &'a Shared,
    id: u64,
}

impl StatusObserver<'_> {
    fn update(&mut self, f: impl FnOnce(&mut JobStatus)) {
        let mut st = self.shared.lock();
        if let Some(rec) = st.jobs.get_mut(&self.id) {
            f(&mut rec.status);
        }
    }
}

impl PipelineObserver for StatusObserver<'_> {
    fn stage_started(&mut self, stage: &'static str) {
        self.update(|s| s.stage = stage.to_string());
    }

    fn rewire_progress(&mut self, done: u64, total: u64, _stats: &RestoreStats) {
        self.update(|s| {
            s.attempts_done = done;
            s.attempts_total = total;
        });
    }

    fn checkpoint_written(&mut self, _path: &Path, stats: &RestoreStats) {
        let checkpoints = stats.checkpoints_written;
        let attempts = stats.rewire_stats.attempts;
        self.update(|s| {
            s.checkpoints = checkpoints;
            s.attempts_done = attempts;
        });
    }
}

/// Runs one job to a terminal (or interrupted) state and records the
/// outcome, in memory and — for terminal states — on disk. A panic in
/// the pipeline ends the job, not the worker: it is recorded as
/// `Failed` like any other error, so the reservation is released and
/// the worker goes back to the queue.
fn run_job(
    shared: &Arc<Shared>,
    id: u64,
    spec: JobSpec,
    hidden: Option<Graph>,
    resume_from: Option<PathBuf>,
) {
    let dir = job_dir(&shared.cfg.dir, id);
    let result = guarded(|| execute(shared, id, &spec, hidden, resume_from, &dir));
    record_outcome(shared, id, &dir, result);
}

/// Runs `job`, turning a panic into [`JobError::Panicked`] with the
/// panic's message.
fn guarded(job: impl FnOnce() -> Result<Restored, JobError>) -> Result<Restored, JobError> {
    panic::catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(JobError::Panicked(message))
    })
}

/// Records a finished job's outcome. A terminal outcome is persisted
/// first (after the result snapshot `execute` wrote, so a durable
/// `Completed` always implies a fetchable result; a result whose status
/// cannot be made durable fails the job); then the job's admission
/// estimate is released and its record updated.
fn record_outcome(shared: &Shared, id: u64, dir: &Path, result: Result<Restored, JobError>) {
    let Some(mut status) = shared.lock().jobs.get(&id).map(|r| r.status.clone()) else {
        return;
    };
    match result {
        Ok(restored) => {
            let stats = &restored.stats;
            let done = JobStatus {
                state: JobState::Completed,
                nodes: stats.nodes as u64,
                edges: stats.edges as u64,
                attempts_done: stats.rewire_stats.attempts,
                attempts_total: stats.rewire_stats.attempts,
                checkpoints: stats.checkpoints_written,
                message: String::new(),
                ..status.clone()
            };
            match TerminalStatus::of(&done).persist(dir) {
                Ok(()) => status = done,
                Err(e) => fail(&mut status, JobError::Persist(e), dir),
            }
        }
        Err(JobError::Restore(RestoreError::Interrupted { checkpoint })) => {
            // The fault-injection hook fired: a simulated crash. Nothing
            // terminal is persisted — exactly like a real kill, the job
            // stays adoptable from its durable checkpoint.
            status.state = JobState::Interrupted;
            status.message = format!("interrupted at {}", checkpoint.display());
        }
        Err(e) => fail(&mut status, e, dir),
    }
    let mut st = shared.lock();
    shared.release(&mut st, id);
    if let Some(rec) = st.jobs.get_mut(&id) {
        rec.status = status;
    }
}

/// Marks `status` failed by `e` and persists it as the job's terminal
/// outcome.
fn fail(status: &mut JobStatus, e: JobError, dir: &Path) {
    status.state = JobState::Failed;
    status.message = e.to_string();
    if let Err(e) = TerminalStatus::of(status).persist(dir) {
        eprintln!(
            "sgr serve: persisting failure status for job {}: {e}",
            status.id
        );
    }
}

/// Why a job stopped short of `Completed`; its `Display` form becomes the
/// job's status message.
#[derive(Debug)]
enum JobError {
    /// The submitted edge-list bytes do not parse.
    EdgeList(String),
    /// The crawl could not run on the parsed graph.
    Crawl(String),
    /// The restoration pipeline failed, or the fault injector stopped it.
    Restore(RestoreError),
    /// The result snapshot or the terminal status could not be written.
    Persist(SnapshotError),
    /// The pipeline panicked; carries the panic message.
    Panicked(String),
    /// An adopted job names a crawl design admission now refuses.
    Refused(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::EdgeList(e) => write!(f, "edge list: {e}"),
            JobError::Crawl(e) => write!(f, "crawl failed: {e}"),
            JobError::Restore(e) => e.fmt(f),
            JobError::Persist(e) => write!(f, "persisting the job result failed: {e}"),
            JobError::Panicked(e) => write!(f, "job panicked: {e}"),
            JobError::Refused(e) => write!(f, "not run: {e}"),
        }
    }
}

impl From<RestoreError> for JobError {
    fn from(e: RestoreError) -> Self {
        JobError::Restore(e)
    }
}

impl From<SnapshotError> for JobError {
    fn from(e: SnapshotError) -> Self {
        JobError::Persist(e)
    }
}

/// The pipeline proper: replays exactly the `sgr restore` code path
/// (edge list → seeded RNG → crawl → staged restoration), then persists
/// the result snapshot. `hidden` is the edge list already parsed at
/// admission; without it (an adopted job) the spec's bytes are parsed
/// here.
fn execute(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    hidden: Option<Graph>,
    resume_from: Option<PathBuf>,
    dir: &Path,
) -> Result<Restored, JobError> {
    let mut observer = StatusObserver { shared, id };
    let restored = match resume_from {
        Some(ckpt) => {
            // Adoption: continue from durable state. `abort_after` is
            // deliberately not reapplied — it models the first crash.
            let policy = CheckpointPolicy {
                dir: ckpt_dir(dir),
                every: spec.checkpoint_every,
                abort_after: None,
            };
            sgr_core::resume(&ckpt, Some(&policy), &mut observer)?
        }
        None => {
            let g = match hidden {
                Some(g) => g,
                None => parse_hidden(spec).map_err(JobError::EdgeList)?.0,
            };
            let mut rng = Xoshiro256pp::seed_from_u64(spec.seed);
            let outcome =
                sgr_sample::run_crawl(&g, &spec.crawl_spec(), &mut rng).map_err(JobError::Crawl)?;
            drop(g);
            let policy = CheckpointPolicy {
                dir: ckpt_dir(dir),
                every: spec.checkpoint_every,
                abort_after: (spec.abort_after > 0).then_some(spec.abort_after),
            };
            sgr_core::run(
                &outcome.crawl,
                &spec.restore_config(),
                &mut rng,
                Some(&policy),
                &mut observer,
            )?
        }
    };
    write_csr(&restored.snapshot, result_path(dir))?;
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job table holding one running job with an admission estimate
    /// committed, under a fresh state root.
    fn one_running_job(tag: &str, estimate: u64) -> Shared {
        let dir = std::env::temp_dir().join(format!("sgr-serve-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(job_dir(&dir, 1)).unwrap();
        let rec = JobRecord {
            status: JobStatus {
                id: 1,
                tenant: "t".into(),
                state: JobState::Running,
                ..JobStatus::default()
            },
            spec: None,
            hidden: None,
            resume_from: None,
            seq: 0,
            estimate,
        };
        Shared {
            cfg: ServeConfig {
                dir,
                ..ServeConfig::default()
            },
            addr: "127.0.0.1:0".parse().unwrap(),
            state: Mutex::new(State {
                jobs: BTreeMap::from([(1, rec)]),
                next_id: 2,
                next_seq: 1,
                committed: estimate,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    #[test]
    fn a_panicking_job_fails_and_releases_its_reservation() {
        let shared = one_running_job("panic", 4096);
        let dir = job_dir(&shared.cfg.dir, 1);
        let result = guarded(|| panic!("injected fault {}", 7));
        record_outcome(&shared, 1, &dir, result);

        let st = shared.lock();
        let rec = &st.jobs[&1];
        assert_eq!(rec.status.state, JobState::Failed);
        assert_eq!(rec.status.message, "job panicked: injected fault 7");
        assert_eq!(rec.estimate, 0);
        assert_eq!(st.committed, 0, "the reservation leaked");
        let persisted = TerminalStatus::load(&dir)
            .unwrap()
            .expect("no terminal status");
        assert_eq!(persisted.state, JobState::Failed);
        assert_eq!(persisted.message, rec.status.message);
        drop(st);
        std::fs::remove_dir_all(&shared.cfg.dir).unwrap();
    }

    #[test]
    fn a_poisoned_job_table_still_serves_status_and_submit() {
        let dir =
            std::env::temp_dir().join(format!("sgr-serve-unit-{}-poison", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (handle, shared) = launch(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            dir: dir.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let poisoner = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let _table = poisoner.lock();
            panic!("injected panic while holding the job-table lock");
        })
        .join();
        assert!(panicked.is_err() && shared.state.is_poisoned());

        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut edges = Vec::new();
        sgr_graph::io::write_edge_list(
            &sgr_gen::holme_kim(200, 3, 0.5, &mut rng).unwrap(),
            &mut edges,
        )
        .unwrap();
        let req = SubmitRequest {
            tenant: "t".into(),
            walk_code: sgr_sample::WalkKind::RandomWalk.code(),
            fraction: 0.2,
            snowball_k: 50,
            burn_prob: 0.7,
            rewiring_coefficient: 1.0,
            rewire: true,
            threads: 1,
            seed: 9,
            checkpoint_every: 0,
            abort_after: 0,
            edges,
        };
        let mut client = crate::Client::connect(handle.addr()).unwrap();
        let id = client.submit(&req).unwrap();
        assert_eq!(client.status(id).unwrap().id, id);
        // The worker, too, gets past the poisoned lock and finishes the job.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while client.status(id).unwrap().state != JobState::Completed {
            assert!(
                std::time::Instant::now() < deadline,
                "job {id} never completed"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(!client.fetch(id).unwrap().is_empty());
        client.shutdown_server().unwrap();
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_static_str_panic_keeps_its_message() {
        let Err(JobError::Panicked(msg)) = guarded(|| panic!("plain")) else {
            panic!("the panic was not caught as a job error");
        };
        assert_eq!(msg, "plain");
    }
}
