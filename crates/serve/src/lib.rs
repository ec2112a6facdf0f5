//! # sgr-serve
//!
//! Restoration as a service: a long-running TCP job server (`sgr serve`)
//! that accepts crawl-and-restore jobs over a framed protocol, runs them
//! through the staged [`sgr_core`] pipeline on a bounded worker pool,
//! and serves back live status and the finished graphs. `sgr submit`,
//! `sgr status`, and `sgr fetch` are thin [`Client`] wrappers.
//!
//! Determinism is the contract the whole crate is built around: a job's
//! output is a function of its spec alone (seed, crawl parameters,
//! restoration parameters, input bytes). The server replays exactly the
//! `sgr restore` code path — edge list, seeded [`sgr_util::Xoshiro256pp`],
//! [`sgr_sample::run_crawl`], staged restoration — so a wire-submitted
//! job is byte-identical to a local run, regardless of worker-pool size,
//! scheduling order, or how many times the server crashed and resumed in
//! between (pinned by the `server_integration` suite).
//!
//! ## Protocol
//!
//! Every message is one frame: a 16-byte header (`b"SGRW"` magic, `u32`
//! frame type, `u64` payload length, all little-endian) followed by the
//! payload. Payload fields use the [`sgr_graph::snapshot`] encoding
//! ([`sgr_graph::snapshot::PayloadWriter`]), and a fetched result *is* a
//! snapshot section — the checksummed container doubles as the wire
//! format, so fetched bytes round-trip to disk and back untouched.
//!
//! Requests are [`protocol::REQ_SUBMIT`] (spec + edge-list blob →
//! job id), [`protocol::REQ_STATUS`] / [`protocol::REQ_LIST`] (live
//! stage, committed rewiring attempts, checkpoint count),
//! [`protocol::REQ_FETCH`] (the result snapshot), and
//! [`protocol::REQ_SHUTDOWN`]. Failures come back as
//! [`protocol::RESP_ERROR`] with a stable `ERR_*` code. The server
//! bounds every read by the declared-and-capped payload length — a
//! malformed, truncated, or absurdly-sized frame yields a typed error
//! and at worst closes that one connection; it never takes down the
//! server or other clients' jobs.
//!
//! ## Durability model
//!
//! The state root holds one directory per job (see [`job`]). Every file
//! in it is written through [`sgr_graph::snapshot::write_section`]:
//! checksummed payload, temp-file + atomic rename, fsync of file *and*
//! parent directory — so after any crash each file is either absent or
//! complete. Ordering gives the files their meaning:
//!
//! 1. `spec.sgrjob` is durable *before* the client receives the job id:
//!    an acknowledged submission survives any subsequent crash.
//! 2. Checkpoints accumulate under `ckpt/` as the pipeline runs (stage
//!    boundaries + every `checkpoint_every` rewiring attempts).
//! 3. `result.sgrsnap` is written before `status.sgrjob`: a durable
//!    `Completed` always implies a fetchable result.
//! 4. `status.sgrjob` records *terminal* outcomes only. Its absence
//!    means "in flight" — on restart (`sgr serve --resume-dir`), such a
//!    job is re-adopted: resumed from its newest checkpoint if one
//!    exists, rerun from the spec otherwise. Either way the output is
//!    bitwise-identical to the uninterrupted run ([`sgr_core`]'s resume
//!    guarantee).

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use job::{Adoption, JobSpec, ScannedJob, TerminalStatus};
pub use protocol::{JobState, JobStatus, ProtocolError, SubmitRequest};
pub use server::{start, ServeConfig, ServerHandle};
