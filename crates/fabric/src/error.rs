//! The typed failure surface of the fabric, at both ends of the wire.
//!
//! [`RpcError`] is what a *node* reports to its caller — it crosses the
//! wire inside an error response frame, so every variant has a stable
//! tag in the codec ([`crate::wire`]). [`FabricError`] is what the
//! *router* reports to the application: it wraps node-side `RpcError`s
//! and adds the failure modes only a distributed caller can observe
//! (unreachable replicas, deadlines, partial coverage).

use core::fmt;

use crate::client::CallError;
use crate::router::CoverageReport;
use crate::wire::WireError;

/// Why a node rejected or failed a request. Crosses the wire typed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RpcError {
    /// The node's submission queue shed the request (backpressure).
    /// Retry after a backoff or against another replica.
    Overloaded,
    /// The node is shutting down and no longer admits work.
    ShuttingDown,
    /// The request itself is malformed for this node (wrong vector
    /// dimension, `k = 0`, an append row that fails validation).
    BadRequest {
        /// The node's explanation.
        detail: String,
    },
    /// The node's engine reported a typed error while executing.
    Engine {
        /// The engine error, stringified for transport.
        detail: String,
    },
    /// The node's internal serving machinery failed (a backend panic it
    /// recovered from, a compaction that could not complete).
    Internal {
        /// The node's explanation.
        detail: String,
    },
}

impl RpcError {
    /// Whether a verbatim retry — on this replica or another — has a
    /// chance of succeeding.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RpcError::Overloaded | RpcError::ShuttingDown | RpcError::Internal { .. }
        )
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Overloaded => write!(f, "node overloaded; request shed"),
            RpcError::ShuttingDown => write!(f, "node is shutting down"),
            RpcError::BadRequest { detail } => write!(f, "node rejected the request: {detail}"),
            RpcError::Engine { detail } => write!(f, "node engine failed: {detail}"),
            RpcError::Internal { detail } => write!(f, "node internal failure: {detail}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Why one shard of a fan-out failed — recorded per shard in the
/// [`CoverageReport`] so partial answers say exactly what is missing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShardFailure {
    /// No replica of the shard could be reached (connect/IO failures,
    /// stringified per replica in attempt order).
    Unreachable {
        /// One entry per failed attempt.
        attempts: Vec<String>,
    },
    /// The shard did not answer within the router's deadline.
    DeadlineExceeded,
    /// Every reachable replica answered with a node-side error; the last
    /// one is kept.
    Rpc(RpcError),
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFailure::Unreachable { attempts } => {
                write!(f, "no replica reachable ({})", attempts.join("; "))
            }
            ShardFailure::DeadlineExceeded => write!(f, "deadline exceeded"),
            ShardFailure::Rpc(e) => write!(f, "replica error: {e}"),
        }
    }
}

/// Why the router could not produce (or completed only part of) an
/// answer.
#[derive(Debug)]
#[non_exhaustive]
pub enum FabricError {
    /// A wire-protocol failure talking to a node outside a fan-out
    /// (e.g. fetching build-time node info).
    Wire(WireError),
    /// A node answered a control call with a typed error.
    Rpc(RpcError),
    /// The router was configured unusably (no shards, a deadline that
    /// cannot clear the node batcher's `max_wait`, …).
    InvalidConfig {
        /// Explanation of the defect.
        detail: String,
    },
    /// One or more shards failed and the router's partial-results policy
    /// is [`crate::router::PartialPolicy::Fail`]. The coverage report
    /// says which shards answered and why the rest did not.
    Partial {
        /// Per-shard coverage of the failed fan-out.
        coverage: CoverageReport,
    },
    /// Every shard failed — there is no answer to return under any
    /// policy.
    NoCoverage {
        /// Per-shard coverage of the failed fan-out.
        coverage: CoverageReport,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Wire(e) => write!(f, "wire protocol failure: {e}"),
            FabricError::Rpc(e) => write!(f, "node call failed: {e}"),
            FabricError::InvalidConfig { detail } => {
                write!(f, "invalid router configuration: {detail}")
            }
            FabricError::Partial { coverage } => write!(
                f,
                "partial coverage: {}/{} shards answered",
                coverage.answered(),
                coverage.shards()
            ),
            FabricError::NoCoverage { coverage } => {
                write!(f, "no coverage: all {} shards failed", coverage.shards())
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Wire(e) => Some(e),
            FabricError::Rpc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> Self {
        FabricError::Wire(e)
    }
}

impl From<CallError> for FabricError {
    fn from(e: CallError) -> Self {
        match e {
            CallError::Wire(w) => FabricError::Wire(w),
            CallError::Rpc(r) => FabricError::Rpc(r),
        }
    }
}

impl From<RpcError> for FabricError {
    fn from(e: RpcError) -> Self {
        FabricError::Rpc(e)
    }
}

impl FabricError {
    pub(crate) fn invalid_config(detail: impl Into<String>) -> Self {
        FabricError::InvalidConfig {
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_retryability() {
        assert!(RpcError::Overloaded.is_retryable());
        assert!(RpcError::ShuttingDown.is_retryable());
        assert!(RpcError::Internal { detail: "x".into() }.is_retryable());
        assert!(!RpcError::BadRequest { detail: "x".into() }.is_retryable());
        assert!(!RpcError::Engine { detail: "x".into() }.is_retryable());
    }

    #[test]
    fn displays_name_the_failure() {
        assert!(RpcError::Overloaded.to_string().contains("shed"));
        assert!(ShardFailure::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let f = ShardFailure::Unreachable {
            attempts: vec!["refused".into(), "reset".into()],
        };
        assert!(f.to_string().contains("refused; reset"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<RpcError>();
        check::<FabricError>();
        check::<ShardFailure>();
    }
}
