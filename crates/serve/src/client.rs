//! Blocking client for the job server — used by the `sgr submit` /
//! `sgr status` / `sgr fetch` CLI verbs and by the integration tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_error, decode_job_id, read_frame, write_frame, JobStatus, ProtocolError, SubmitRequest,
    DEFAULT_MAX_FRAME_BYTES, REQ_FETCH, REQ_LIST, REQ_SHUTDOWN, REQ_STATUS, REQ_SUBMIT, RESP_ERROR,
    RESP_JOBS, RESP_SHUTDOWN_OK, RESP_SNAPSHOT, RESP_STATUS, RESP_SUBMITTED,
};

/// What a request can fail with on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport / framing / decode failure.
    Protocol(ProtocolError),
    /// The server answered with a typed [`RESP_ERROR`].
    Server {
        /// One of the `ERR_*` codes.
        code: u32,
        /// The server's diagnostic.
        message: String,
    },
    /// The server answered with a frame type this request doesn't
    /// expect.
    Unexpected(u32),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected(t) => write!(f, "unexpected response frame type {t}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// A connected client. One request/response at a time over a single
/// blocking TCP stream; reuse the connection for any number of
/// requests.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects. Responses are read under [`DEFAULT_MAX_FRAME_BYTES`],
    /// the server's default frame cap.
    ///
    /// The stream gets `TCP_NODELAY`: the transport rule is one write per
    /// frame and no Nagle delay on either end (see [`write_frame`]).
    /// Without it, a request whose header the server has not yet ACKed
    /// waits for the server's delayed ACK, ~40 ms per round trip.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn request(&mut self, frame_type: u32, payload: &[u8]) -> Result<(u32, Vec<u8>), ClientError> {
        write_frame(&mut self.stream, frame_type, payload)?;
        let (resp_type, resp) = read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES)?
            .ok_or(ClientError::Protocol(ProtocolError::Truncated))?;
        if resp_type == RESP_ERROR {
            let (code, message) = decode_error(&resp)?;
            return Err(ClientError::Server { code, message });
        }
        Ok((resp_type, resp))
    }

    /// Submits a job; returns its id. When this returns, the spec is
    /// durable on the server (see the crate's durability model).
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<u64, ClientError> {
        match self.request(REQ_SUBMIT, &req.encode())? {
            (RESP_SUBMITTED, p) => Ok(decode_job_id(&p)?),
            (t, _) => Err(ClientError::Unexpected(t)),
        }
    }

    /// Polls one job's status.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        match self.request(REQ_STATUS, &crate::protocol::encode_job_id(job))? {
            (RESP_STATUS, p) => Ok(JobStatus::decode(&p)?),
            (t, _) => Err(ClientError::Unexpected(t)),
        }
    }

    /// Lists every job the server knows about.
    pub fn list(&mut self) -> Result<Vec<JobStatus>, ClientError> {
        match self.request(REQ_LIST, &[])? {
            (RESP_JOBS, p) => Ok(JobStatus::decode_list(&p)?),
            (t, _) => Err(ClientError::Unexpected(t)),
        }
    }

    /// Fetches a completed job's restored graph. The returned bytes are
    /// a complete [`sgr_graph::snapshot`] section (`KIND_CSR_GRAPH`):
    /// write them to a file verbatim and `read_csr` it, or decode them
    /// in memory with `decode_section`.
    pub fn fetch(&mut self, job: u64) -> Result<Vec<u8>, ClientError> {
        match self.request(REQ_FETCH, &crate::protocol::encode_job_id(job))? {
            (RESP_SNAPSHOT, p) => Ok(p),
            (t, _) => Err(ClientError::Unexpected(t)),
        }
    }

    /// Asks the server to shut down gracefully (running jobs finish;
    /// queued jobs stay durable for the next start).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(REQ_SHUTDOWN, &[])? {
            (RESP_SHUTDOWN_OK, _) => Ok(()),
            (t, _) => Err(ClientError::Unexpected(t)),
        }
    }
}
