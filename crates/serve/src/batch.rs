//! The micro-batching policy: how large a batch may grow, and how long
//! the batcher may hold a request to coalesce it with concurrent
//! traffic.

use std::time::Duration;

use crate::error::ServeError;

/// How the dynamic micro-batcher coalesces concurrent requests.
///
/// The batcher takes the oldest queued request as a batch seed, with
/// every compatible request already queued (same `k`, tier and
/// collection epoch; the service enforces one vector dimension at
/// submission), up to `max_batch_size`. The batcher is work-conserving:
/// it only picks a seed when it is idle, and a seed waits for company
/// only when the previous batch had some. After a batch of one (and for
/// the first request) the seed leaves at once, so sparse traffic pays no
/// coalescing wait. After a batch with company the batcher keeps
/// admitting compatible requests until the batch holds `max_batch_size`
/// queries or `max_wait` has elapsed since the seed was **admitted**,
/// whichever comes first. `max_wait` counts from admission, so a request
/// that waited out its window in the queue while an earlier batch ran
/// is dispatched as soon as the batcher is free. Requests that arrive
/// while a batch runs pile up for the next one, so the batch size
/// follows the load without a wait at low load.
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
    /// admission, before its batch is dispatched anyway. A seed waits
    /// only after a batch that had company; after a batch of one it
    /// leaves at once. Ignored when `max_batch_size` is 1.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// No batching: every request is dispatched alone, as soon as the
    /// batcher is free. Requests that arrive while a batch runs wait in
    /// the queue and still run one at a time.
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
    /// Sixteen-query batches with a 1 ms coalescing window. Sixteen
    /// queries fill one of the accelerator's 16-lane replay blocks. The
    /// window is spent only after a batch with company, when more
    /// requests are likely close behind, and is small next to a query's
    /// own latency.
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
