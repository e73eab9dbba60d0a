//! The micro-batching policy: how long the batcher may hold a request
//! to coalesce it with concurrent traffic.

use std::time::Duration;

use crate::error::ServeError;

/// How the dynamic micro-batcher coalesces concurrent requests.
///
/// The batcher takes the oldest queued request as a batch seed, then
/// keeps admitting compatible requests (same `k`; the service enforces
/// one vector dimension at submission) until the batch holds
/// `max_batch_size` queries or `max_wait` has elapsed since the seed was
/// **admitted** — whichever comes first. `max_wait` counts from
/// admission, so a request that waited out its window in the queue
/// while an earlier batch ran is dispatched as soon as the batcher is
/// free. Under load the queue is never empty, so batches fill instantly
/// and `max_wait` costs nothing; at low load `max_wait` bounds the extra
/// latency batching can add.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tkspmv_serve::BatchPolicy;
///
/// let batched = BatchPolicy::coalescing(32, Duration::from_millis(2));
/// assert_eq!(batched.max_batch_size, 32);
/// let unbatched = BatchPolicy::immediate();
/// assert_eq!(unbatched.max_batch_size, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of queries dispatched as one backend batch.
    pub max_batch_size: usize,
    /// Longest a seed request may wait for company, counted from its
    /// admission, before its batch is dispatched anyway. Ignored when
    /// `max_batch_size` is 1.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// No batching: every request is dispatched alone, immediately.
    /// The baseline the `serve` bench compares coalescing against.
    pub fn immediate() -> Self {
        Self {
            max_batch_size: 1,
            max_wait: Duration::ZERO,
        }
    }

    /// Coalesce up to `max_batch_size` requests, holding the seed at
    /// most `max_wait`.
    pub fn coalescing(max_batch_size: usize, max_wait: Duration) -> Self {
        Self {
            max_batch_size,
            max_wait,
        }
    }

    /// Rejects unusable policies (a zero-sized batch can never ship).
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch_size == 0 {
            return Err(ServeError::invalid_config(
                "max_batch_size must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for BatchPolicy {
    /// Sixteen-query batches with a 1 ms coalescing window — large
    /// enough to amortise per-dispatch work, small enough to be
    /// invisible next to typical query latency.
    fn default() -> Self {
        Self::coalescing(16, Duration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_default() {
        assert_eq!(BatchPolicy::immediate().max_batch_size, 1);
        let p = BatchPolicy::default();
        assert_eq!(p.max_batch_size, 16);
        assert_eq!(p.max_wait, Duration::from_millis(1));
        let c = BatchPolicy::coalescing(4, Duration::from_micros(250));
        assert_eq!(c.max_batch_size, 4);
        assert_eq!(c.max_wait, Duration::from_micros(250));
    }

    #[test]
    fn zero_batch_size_is_invalid() {
        let bad = BatchPolicy {
            max_batch_size: 0,
            max_wait: Duration::ZERO,
        };
        assert!(bad.validate().is_err());
        assert!(BatchPolicy::immediate().validate().is_ok());
    }
}
