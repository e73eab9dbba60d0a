//! A short multi-threaded soak of the serving subsystem, ending in a
//! shutdown that must drain every admitted request — the CI smoke test
//! for the serving layer.
//!
//! Eight submitter threads hammer a small sharded service with mixed-`k`
//! traffic through a deliberately tight queue, so every serving path is
//! exercised at once: coalesced batches, backpressure shedding, and
//! finally a shutdown racing a just-admitted burst. The invariant under
//! test: **admitted implies answered** — every ticket the service
//! accepted resolves to a successful response, shed requests are
//! accounted as shed, and nothing is dropped on the floor.

use std::sync::Arc;
use std::time::Duration;

use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_serve::{BatchPolicy, ServeError, Ticket, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

const DIM: usize = 96;
const SUBMITTERS: usize = 8;
const REQUESTS_PER_SUBMITTER: usize = 60;

#[test]
fn soak_concurrent_traffic_then_shutdown_drains_everything() {
    let csr = SyntheticConfig {
        num_rows: 1_500,
        num_cols: DIM,
        avg_nnz_per_row: 10,
        distribution: NnzDistribution::Uniform,
        seed: 99,
    }
    .generate();
    let service = TopKService::builder(Arc::new(CpuTopK::new(2)))
        .shards(6)
        .batch_policy(BatchPolicy::coalescing(8, Duration::from_micros(500)))
        .queue_capacity(32)
        .build(&csr)
        .expect("service builds");

    // Phase 1: concurrent mixed-k soak; keep every accepted ticket.
    let (tickets, shed_seen) = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                scope.spawn(move || {
                    let mut mine: Vec<Ticket> = Vec::new();
                    let mut shed = 0u64;
                    for i in 0..REQUESTS_PER_SUBMITTER {
                        let k = [3, 7, 11][i % 3];
                        let x = query_vector(DIM, (t * 1000 + i) as u64);
                        match service.submit(x, k) {
                            Ok(ticket) => mine.push(ticket),
                            Err(ServeError::QueueFull { .. }) => shed += 1,
                            Err(other) => panic!("unexpected submit error: {other}"),
                        }
                    }
                    (mine, shed)
                })
            })
            .collect();
        let mut tickets = Vec::new();
        let mut shed = 0u64;
        for h in handles {
            let (mine, s) = h.join().expect("submitter thread");
            tickets.extend(mine);
            shed += s;
        }
        (tickets, shed)
    });

    // Phase 2: shut down while the tail of the soak is still in flight.
    let admitted = tickets.len() as u64;
    let metrics = service.shutdown();

    // Shutdown must have drained every admitted request successfully.
    for ticket in tickets {
        let served = ticket
            .wait()
            .expect("admitted request drained to a response");
        assert!(!served.topk.is_empty());
    }
    assert_eq!(metrics.served, admitted, "admitted => answered");
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.shed, shed_seen, "every shed request is accounted");
    assert_eq!(
        admitted + shed_seen,
        (SUBMITTERS * REQUESTS_PER_SUBMITTER) as u64,
        "no request vanished"
    );
    // The coalescing policy must actually have batched under this load.
    assert!(
        metrics
            .batch_size_histogram
            .iter()
            .any(|&(size, _)| size > 1),
        "soak never formed a multi-query batch: {:?}",
        metrics.batch_size_histogram
    );
}
