//! [`ServeClient`]: the serving tier seen from a client — submit, poll
//! and cancel training jobs, score key batches — over one connection.

use std::net::ToSocketAddrs;
use std::time::Duration;

use joinboost_engine::EngineError;

use super::client::RemoteConnection;
use super::wire::{JobSpec, Request, Response};

/// A client-visible job state, decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Registered, not yet picked up by a worker.
    Queued,
    /// Training; `iterations` boosting rounds finished so far.
    Running {
        /// Boosting iterations completed.
        iterations: u64,
    },
    /// Trained successfully; ready for `PredictBatch`.
    Done {
        /// Boosting iterations completed.
        iterations: u64,
    },
    /// Training raised an error (the server's message).
    Failed(String),
    /// Cancelled — explicitly or because its submitter disconnected.
    Cancelled,
}

impl JobStatus {
    /// Terminal states never change again; polling can stop.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done { .. } | JobStatus::Failed(_) | JobStatus::Cancelled
        )
    }
}

/// What a serving call can fail with. `Busy` is backpressure on a
/// healthy connection — retry later; `Engine` carries everything else
/// (transport failures, server-side errors).
#[derive(Debug)]
pub enum ServeError {
    /// The server declined admission (job limit or session budget). The
    /// connection is still usable.
    Busy(String),
    /// A transport or engine error.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy(m) => write!(f, "server busy: {m}"),
            ServeError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// The serving-tier client: submit training jobs, poll and cancel them,
/// and score key batches against the message tables a finished job
/// compiled — all over one wire connection.
///
/// ```no_run
/// # use joinboost::backend::{JobSpec, ServeClient};
/// let client = ServeClient::connect("127.0.0.1:7654").unwrap();
/// let spec = JobSpec {
///     relations: vec![("sales".into(), vec![])],
///     edges: vec![],
///     target_relation: "sales".into(),
///     target_column: "net_profit".into(),
///     key_column: Some("sale_id".into()),
///     ..JobSpec::default()
/// };
/// let id = client.submit(&spec).unwrap();
/// let status = client.wait(id).unwrap();
/// let scores = client.predict(id, &[1, 2, 3]).unwrap();
/// ```
pub struct ServeClient {
    conn: RemoteConnection,
}

impl ServeClient {
    /// Connect to a wire server with default timeouts.
    pub fn connect(
        addr: impl ToSocketAddrs + std::fmt::Display,
    ) -> Result<ServeClient, ServeError> {
        Ok(ServeClient::from_connection(
            RemoteConnection::builder(addr).connect()?,
        ))
    }

    /// Wrap an existing connection (e.g. one built with custom timeouts).
    pub fn from_connection(conn: RemoteConnection) -> ServeClient {
        ServeClient { conn }
    }

    /// The underlying connection (byte counters, diagnostics).
    pub fn connection(&self) -> &RemoteConnection {
        &self.conn
    }

    /// Exchange, splitting `Busy` out of the error stream so callers can
    /// treat backpressure differently from failure.
    fn serve_call(&self, req: &Request) -> Result<Response, ServeError> {
        match self.conn.request(req)? {
            Response::Err(e) => Err(ServeError::Engine(e)),
            Response::Busy(m) => Err(ServeError::Busy(m)),
            ok => Ok(ok),
        }
    }

    fn status(&self, resp: Response) -> Result<JobStatus, ServeError> {
        match resp {
            Response::JobState {
                state,
                iterations,
                message,
            } => Ok(match state {
                0 => JobStatus::Queued,
                1 => JobStatus::Running { iterations },
                2 => JobStatus::Done { iterations },
                3 => JobStatus::Failed(message),
                _ => JobStatus::Cancelled,
            }),
            other => Err(ServeError::Engine(self.conn.unexpected("PollJob", &other))),
        }
    }

    /// Submit a training job; returns its id, or [`ServeError::Busy`]
    /// when the server's job limit is reached.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, ServeError> {
        match self.serve_call(&Request::SubmitJob {
            spec: Box::new(spec.clone()),
        })? {
            Response::JobSubmitted(id) => Ok(id),
            other => Err(ServeError::Engine(
                self.conn.unexpected("SubmitJob", &other),
            )),
        }
    }

    /// The job's current state. Unknown ids are an error naming the id.
    pub fn poll(&self, id: u64) -> Result<JobStatus, ServeError> {
        let resp = self.serve_call(&Request::PollJob { id })?;
        self.status(resp)
    }

    /// Request cancellation (idempotent) and report the state after it.
    /// A queued job dies immediately; a running one stops at its next
    /// iteration boundary.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, ServeError> {
        let resp = self.serve_call(&Request::CancelJob { id })?;
        self.status(resp)
    }

    /// Poll every 10ms until the job reaches a terminal state.
    pub fn wait(&self, id: u64) -> Result<JobStatus, ServeError> {
        loop {
            let status = self.poll(id)?;
            if status.is_terminal() {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Score `keys` against the message tables job `id` compiled.
    /// `None` marks keys absent from the (implicit) join — exactly the
    /// rows a materialized inner join would not contain.
    pub fn predict(&self, id: u64, keys: &[i64]) -> Result<Vec<Option<f64>>, ServeError> {
        let rs = self
            .conn
            .predict_wire(Some(id), None, keys, false)
            .map_err(ServeError::Engine)?;
        Ok(rs.into_iter().map(|(f, s)| f.then_some(s)).collect())
    }
}
