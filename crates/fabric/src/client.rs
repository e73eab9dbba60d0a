//! A blocking client for one fabric node.
//!
//! [`NodeClient`] owns one TCP connection and speaks the
//! [`crate::wire`] protocol over it, one request/response pair at a
//! time. Deadlines are plumbed straight into the socket: every typed
//! call takes an explicit timeout that bounds connect, write, and read —
//! a dead or wedged node surfaces as a typed timeout, never a hang.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tkspmv::backend::{Query, QueryTier};

use tkspmv_obs::SpanRecord;

use crate::delta::check_query;
use crate::error::RpcError;
use crate::wire::{read_response, write_request, NodeInfo, Request, Response, WireError};
use crate::SparseRow;

/// A blocking connection to one fabric node.
pub struct NodeClient {
    stream: TcpStream,
}

/// A traced ranking: the entries plus the node's span record, filed
/// under the query's trace id, when that id was non-zero.
type TracedRanking = (Vec<(u32, f64)>, Option<SpanRecord>);

/// What a typed call can report: a transport/protocol failure or a
/// node-side [`RpcError`].
#[derive(Debug)]
pub enum CallError {
    /// The wire failed (connect, timeout, corruption, version skew, a
    /// request too large to frame).
    Wire(WireError),
    /// The node answered with a typed error.
    Rpc(RpcError),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Wire(e) => write!(f, "{e}"),
            CallError::Rpc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<WireError> for CallError {
    fn from(e: WireError) -> Self {
        CallError::Wire(e)
    }
}

fn unexpected(got: &Response, expected: &'static str) -> CallError {
    CallError::Wire(WireError::Malformed {
        detail: format!("awaiting {expected}, node answered {got:?}"),
    })
}

impl NodeClient {
    /// Connects to `addr` within `timeout`.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, WireError> {
        let mut last: Option<std::io::Error> = None;
        for peer in addr.to_socket_addrs().map_err(WireError::Io)? {
            match TcpStream::connect_timeout(&peer, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).map_err(WireError::Io)?;
                    return Ok(Self { stream });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(WireError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved empty",
            )
        })))
    }

    /// Sends one request and reads one response, both bounded by what
    /// remains of `deadline`.
    fn call(&mut self, req: &Request, deadline: Duration) -> Result<Response, WireError> {
        let start = Instant::now();
        let remaining = |start: Instant| -> Duration {
            deadline
                .checked_sub(start.elapsed())
                .filter(|d| !d.is_zero())
                // A zero socket timeout means "block forever"; clamp an
                // exhausted budget to the smallest real timeout instead.
                .unwrap_or(Duration::from_micros(1))
        };
        self.stream
            .set_write_timeout(Some(remaining(start)))
            .map_err(WireError::Io)?;
        write_request(&mut self.stream, req)?;
        self.stream
            .set_read_timeout(Some(remaining(start)))
            .map_err(WireError::Io)?;
        read_response(&mut self.stream)
    }

    /// Liveness probe.
    pub fn ping(&mut self, deadline: Duration) -> Result<(), CallError> {
        match self.call(&Request::Ping, deadline)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "Pong")),
        }
    }

    /// Fetches the node's self-description.
    pub fn info(&mut self, deadline: Duration) -> Result<NodeInfo, CallError> {
        match self.call(&Request::Info, deadline)? {
            Response::Info(info) => Ok(info),
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "Info")),
        }
    }

    /// Ranks the top `k` rows for `x` at `tier`, untraced. Entries
    /// carry global row ids and bit-exact scores.
    pub fn query(
        &mut self,
        x: &[f32],
        k: usize,
        tier: QueryTier,
        deadline: Duration,
    ) -> Result<Vec<(u32, f64)>, CallError> {
        let query = Query {
            tier,
            ..Query::new(k)
        };
        self.query_traced(x, &query, deadline)
            .map(|(entries, _)| entries)
    }

    /// Ranks the top `query.k` rows for `x` at `query.tier`. A non-zero
    /// `query.trace` asks the node to report its span record alongside
    /// the ranking; the record comes back under that id. `None` comes
    /// back for untraced queries.
    ///
    /// A query no node could answer — `k = 0`, a zero shortlist factor,
    /// a `k` past the wire's 32-bit count — is refused here, before any
    /// byte is sent, as [`RpcError::BadRequest`] in the router's words.
    /// The dimension is the node's to judge.
    pub fn query_traced(
        &mut self,
        x: &[f32],
        query: &Query,
        deadline: Duration,
    ) -> Result<TracedRanking, CallError> {
        if let Err(e) = check_query(x.len(), x.len(), query) {
            let detail = e.to_string();
            return Err(CallError::Rpc(RpcError::BadRequest { detail }));
        }
        let &Query { k, tier, trace } = query;
        let req = Request::Query {
            x: x.to_vec(),
            k: k as u32,
            tier,
            trace,
        };
        match self.call(&req, deadline)? {
            Response::TopK {
                entries,
                trace: mut rec,
            } => {
                if let Some(rec) = &mut rec {
                    rec.trace_id = trace;
                }
                Ok((entries, rec))
            }
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "TopK")),
        }
    }

    /// Appends rows to the node's delta shard; returns assigned global
    /// row ids. A row whose column and value counts differ cannot be
    /// framed (the wire carries one count per row), so it is refused
    /// here, before any byte is sent, in the node's own words.
    pub fn append(
        &mut self,
        rows: &[SparseRow],
        deadline: Duration,
    ) -> Result<Vec<u32>, CallError> {
        if let Some(i) = rows.iter().position(|(c, v)| c.len() != v.len()) {
            let (cols, vals) = (rows[i].0.len(), rows[i].1.len());
            let detail = format!("append row {i}: {cols} columns but {vals} values");
            return Err(CallError::Rpc(RpcError::BadRequest { detail }));
        }
        let req = Request::Append {
            rows: rows.to_vec(),
        };
        match self.call(&req, deadline)? {
            Response::AppendOk { ids } => Ok(ids),
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "AppendOk")),
        }
    }

    /// Asks the node to fold its delta shard now; returns
    /// `(epoch, folded)`.
    pub fn compact(&mut self, deadline: Duration) -> Result<(u64, u64), CallError> {
        match self.call(&Request::Compact, deadline)? {
            Response::CompactOk { epoch, folded } => Ok((epoch, folded)),
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "CompactOk")),
        }
    }

    /// Asks the node process to stop serving and exit.
    pub fn shutdown(&mut self, deadline: Duration) -> Result<(), CallError> {
        match self.call(&Request::Shutdown, deadline)? {
            Response::ShutdownOk => Ok(()),
            Response::Error(e) => Err(CallError::Rpc(e)),
            other => Err(unexpected(&other, "ShutdownOk")),
        }
    }
}
