//! The typed rejection and failure surface of the serving layer.
//!
//! Every way a request can fail to produce a ranking is a distinct
//! [`ServeError`] variant, so callers can tell load shedding (retry
//! later, elsewhere) from bad requests (fix the call) from engine
//! failures (page someone).

use core::fmt;

use tkspmv::EngineError;

/// Why the serving layer rejected or failed a request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded submission queue is at capacity; the request was shed
    /// without being enqueued (backpressure). Retry after a backoff or
    /// against another replica.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service no longer accepts new work: shutdown has begun.
    /// Requests admitted before shutdown still drain to completion.
    ShuttingDown,
    /// The service was built with an unusable configuration (zero
    /// shards, zero-sized batches, zero queue capacity, …).
    InvalidConfig {
        /// Explanation of the defect.
        detail: String,
    },
    /// The request was rejected at submission time (wrong vector
    /// dimension, `k = 0`) — it never entered the queue.
    BadRequest(EngineError),
    /// The backend reported a typed error while executing the request's
    /// batch on at least one shard.
    Engine(EngineError),
    /// The backend panicked while running a batch on one shard. That
    /// shard's task caught the panic and the service kept serving; only
    /// the requests sharing the poisoned batch observe this error.
    WorkerPanicked {
        /// The panic payload, stringified.
        detail: String,
    },
    /// The service dropped the request without ever responding — an
    /// internal invariant violation, never expected in practice.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue full ({capacity} pending); request shed"
                )
            }
            ServeError::ShuttingDown => {
                write!(f, "service is shutting down; new requests are rejected")
            }
            ServeError::InvalidConfig { detail } => {
                write!(f, "invalid service configuration: {detail}")
            }
            ServeError::BadRequest(e) => write!(f, "request rejected at submission: {e}"),
            ServeError::Engine(e) => write!(f, "backend failed while serving: {e}"),
            ServeError::WorkerPanicked { detail } => {
                write!(f, "backend panicked in a shard task (recovered): {detail}")
            }
            ServeError::Disconnected => {
                write!(f, "service dropped the request without a response")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::BadRequest(e) | ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl ServeError {
    /// An [`ServeError::InvalidConfig`] with a free-form explanation.
    pub fn invalid_config(detail: impl Into<String>) -> Self {
        ServeError::InvalidConfig {
            detail: detail.into(),
        }
    }

    /// Whether the request can be retried verbatim with a chance of
    /// success (transient overload or shutdown, as opposed to a
    /// malformed request or a deterministic engine failure).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::QueueFull { .. }
                | ServeError::ShuttingDown
                | ServeError::WorkerPanicked { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_mode() {
        assert!(ServeError::QueueFull { capacity: 8 }
            .to_string()
            .contains("8 pending"));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(ServeError::invalid_config("zero workers")
            .to_string()
            .contains("zero workers"));
        let e = ServeError::BadRequest(EngineError::zero_big_k());
        assert!(e.to_string().contains("K must be at least 1"));
        let e = ServeError::WorkerPanicked {
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn sources_chain_to_engine_errors() {
        use std::error::Error;
        assert!(ServeError::Engine(EngineError::empty_matrix())
            .source()
            .is_some());
        assert!(ServeError::Disconnected.source().is_none());
    }

    #[test]
    fn retryability_classification() {
        assert!(ServeError::QueueFull { capacity: 1 }.is_retryable());
        assert!(ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::BadRequest(EngineError::zero_big_k()).is_retryable());
        assert!(!ServeError::Engine(EngineError::empty_matrix()).is_retryable());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<ServeError>();
    }
}
