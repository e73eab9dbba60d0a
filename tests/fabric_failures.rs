//! Failure injection for the distributed fabric: nodes killed mid-query
//! and before queries, compactors killed mid-compaction, and the
//! deadline budget contract between the router and the node batcher.
//!
//! The invariants under test:
//!
//! - A router query never blocks past its deadline, however a node
//!   dies — wedged, refused, or gone.
//! - A silent primary is hedged after `deadline / replicas`; a failed
//!   one is failed over at once, unless its error says the request
//!   itself is at fault — and a query that is visibly at fault never
//!   leaves the router or moves a degradation counter.
//! - Lost shards surface as typed coverage, not silent truncation:
//!   [`PartialPolicy::Fail`] turns them into errors carrying the
//!   report, [`PartialPolicy::Allow`] returns the partial merge with
//!   the gaps named.
//! - A replica set hides a dead primary entirely.
//! - A compactor dying mid-compaction leaves the serving epoch and the
//!   delta intact; the next run folds the same rows.
//! - The router refuses deadlines that cannot clear a node's batcher
//!   `max_wait` (the most a query can wait, and only after a batch that
//!   had company), and a lone query on an idle fleet does not wait for
//!   company at all.
//! - A wedged replica holds at most the router's pooled connections to
//!   it, however many queries ask it, and a dropped router hangs up.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tkspmv::backend::QueryTier;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::wire::{read_request, write_response, NodeInfo, Request, Response};
use tkspmv_fabric::{
    CallError, DeltaCollection, FabricError, NodeClient, NodeServer, PartialPolicy, Router,
    RouterConfig, RpcError, ShardFailure, ShardOutcome, ShardSpec,
};
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::Csr;

const DEADLINE: Duration = Duration::from_secs(10);

fn diag_csr(rows: usize, dim: usize) -> Csr {
    let row_ptr = (0..=rows as u64).collect();
    let col_idx = (0..rows as u32).map(|r| r % dim as u32).collect();
    let values = (0..rows).map(|r| 1.0 + r as f32).collect();
    Csr::from_parts(rows, dim, row_ptr, col_idx, values).expect("valid csr")
}

fn spawn_node(rows: usize, dim: usize, start_row: usize, policy: BatchPolicy) -> NodeServer {
    let csr = diag_csr(rows, dim);
    let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
        .batch_policy(policy)
        .build(&csr)
        .expect("service");
    let collection = Arc::new(DeltaCollection::new(service, csr, start_row));
    NodeServer::spawn(collection, "127.0.0.1:0").expect("bind")
}

fn router_config(deadline: Duration) -> RouterConfig {
    RouterConfig {
        deadline,
        connect_timeout: Duration::from_millis(500),
        headroom: Duration::from_millis(20),
        ..RouterConfig::default()
    }
}

/// The connections a fake node accepted, and how many of them the
/// caller has hung up.
#[derive(Default)]
struct Connections {
    accepted: AtomicUsize,
    hung_up: AtomicUsize,
}

/// A fake node that answers `Info` honestly and every other request
/// with `reply` — or, given none, never answers it (it keeps reading,
/// so it still sees its caller hang up).
fn spawn_scripted_shard(
    start_row: u64,
    rows: u64,
    dim: u64,
    reply: Option<RpcError>,
) -> (std::net::SocketAddr, Arc<Connections>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let connections = Arc::new(Connections::default());
    let counts = Arc::clone(&connections);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            counts.accepted.fetch_add(1, Ordering::SeqCst);
            let (reply, counts) = (reply.clone(), Arc::clone(&counts));
            std::thread::spawn(move || loop {
                let response = match (read_request(&mut stream), &reply) {
                    (Ok(Request::Info), _) => Response::Info(NodeInfo {
                        start_row,
                        base_rows: rows,
                        delta_rows: 0,
                        dim,
                        epoch: 0,
                        max_wait_micros: 0,
                        max_batch_size: 1,
                        queue_capacity: 1024,
                    }),
                    (Ok(_), Some(e)) => Response::Error(e.clone()),
                    // Wedge: never answer, never close.
                    (Ok(_), None) => continue,
                    (Err(_), _) => {
                        counts.hung_up.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                };
                if write_response(&mut stream, &response).is_err() {
                    return;
                }
            });
        }
    });
    (addr, connections)
}

/// The shape of a process wedged mid-request.
fn spawn_wedged_shard(start_row: u64, rows: u64, dim: u64) -> std::net::SocketAddr {
    spawn_scripted_shard(start_row, rows, dim, None).0
}

/// One of the router's counters, read off its Prometheus rendering.
fn counter(router: &Router, name: &str) -> f64 {
    let rendered = router.render_metrics();
    rendered
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} not rendered:\n{rendered}"))
}

#[test]
fn wedged_node_times_out_within_the_deadline() {
    let live = spawn_node(8, 8, 0, BatchPolicy::immediate());
    let wedged = spawn_wedged_shard(8, 8, 8);
    let deadline = Duration::from_millis(600);
    let router = Router::connect(
        vec![
            ShardSpec::single(live.local_addr().to_string()),
            ShardSpec::single(wedged.to_string()),
        ],
        RouterConfig {
            partial: PartialPolicy::Fail,
            ..router_config(deadline)
        },
    )
    .expect("connect");

    let start = Instant::now();
    let err = router
        .query(&[1.0f32; 8], 3, QueryTier::Exact)
        .expect_err("wedged shard must fail the query under Fail policy");
    let elapsed = start.elapsed();
    assert!(
        elapsed < deadline + Duration::from_millis(250),
        "router blocked {elapsed:?} — past the deadline"
    );
    match err {
        FabricError::Partial { coverage } => {
            assert_eq!(coverage.answered(), 1);
            let failures = coverage.failures();
            assert_eq!(failures.len(), 1);
            assert!(
                matches!(failures[0].1, ShardFailure::DeadlineExceeded),
                "expected a deadline failure, got {:?}",
                failures[0].1
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    live.shutdown();
}

#[test]
fn dead_node_degrades_to_typed_partial_coverage() {
    let dim = 8;
    let a = spawn_node(8, dim, 0, BatchPolicy::immediate());
    let b = spawn_node(8, dim, 8, BatchPolicy::immediate());
    let b_addr = b.local_addr().to_string();
    let specs = vec![
        ShardSpec::single(a.local_addr().to_string()),
        ShardSpec::single(b_addr),
    ];

    // Connect while both are alive, then kill node B outright.
    let allow = Router::connect(
        specs.clone(),
        RouterConfig {
            partial: PartialPolicy::Allow,
            ..router_config(Duration::from_secs(2))
        },
    )
    .expect("connect");
    let fail = Router::connect(
        specs,
        RouterConfig {
            partial: PartialPolicy::Fail,
            ..router_config(Duration::from_secs(2))
        },
    )
    .expect("connect");
    b.shutdown();

    // Allow: the surviving shard's answer comes back, the gap is named.
    let mut x = vec![0.0f32; dim];
    x[2] = 1.0;
    let result = allow
        .query(&x, 2, QueryTier::Exact)
        .expect("partial answers allowed");
    assert!(!result.coverage.is_complete());
    assert_eq!(result.coverage.answered(), 1);
    assert_eq!(result.coverage.shards(), 2);
    // Shard A's row 2 survives; nothing from B's range appears.
    assert!(result.topk.entries().iter().all(|&(row, _)| row < 8));
    assert_eq!(result.topk.entries()[0], (2, 3.0));

    // Fail: the same situation is an error carrying the same report.
    let err = fail
        .query(&x, 2, QueryTier::Exact)
        .expect_err("partial coverage must fail under Fail policy");
    match err {
        FabricError::Partial { coverage } => {
            assert_eq!(coverage.answered(), 1);
            assert!(matches!(
                coverage.failures()[0].1,
                ShardFailure::Unreachable { .. } | ShardFailure::DeadlineExceeded
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
    a.shutdown();
}

#[test]
fn every_shard_dead_is_no_coverage() {
    let a = spawn_node(4, 4, 0, BatchPolicy::immediate());
    let router = Router::connect(
        vec![ShardSpec::single(a.local_addr().to_string())],
        RouterConfig {
            partial: PartialPolicy::Allow,
            ..router_config(Duration::from_secs(1))
        },
    )
    .expect("connect");
    a.shutdown();
    match router.query(&[1.0f32; 4], 1, QueryTier::Exact) {
        Err(FabricError::NoCoverage { coverage }) => {
            assert_eq!(coverage.answered(), 0);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn replica_failover_hides_a_dead_primary() {
    let dim = 6;
    // Reserve a port that will refuse connections once released.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let live = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let router = Router::connect(
        vec![ShardSpec::replicated([
            dead_addr,
            live.local_addr().to_string(),
        ])],
        router_config(Duration::from_secs(5)),
    )
    .expect("connect must fall back to the live replica");

    let mut x = vec![0.0f32; dim];
    x[3] = 1.0;
    let result = router.query(&x, 1, QueryTier::Exact).expect("failover");
    assert!(result.coverage.is_complete());
    assert_eq!(
        result.coverage.outcomes()[0],
        ShardOutcome::Answered { replica: 1 },
        "the live secondary must have answered"
    );
    assert_eq!(result.topk.entries()[0], (3, 4.0));
    live.shutdown();
}

#[test]
fn silent_primary_is_hedged_after_the_stagger() {
    let dim = 6;
    let wedged = spawn_wedged_shard(0, 6, dim as u64);
    let live = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let deadline = Duration::from_millis(1_200);
    let router = Router::connect(
        vec![ShardSpec::replicated([
            wedged.to_string(),
            live.local_addr().to_string(),
        ])],
        router_config(deadline),
    )
    .expect("connect");

    let mut x = vec![0.0f32; dim];
    x[3] = 1.0;
    let start = Instant::now();
    let result = router.query(&x, 1, QueryTier::Exact).expect("hedged");
    let elapsed = start.elapsed();
    assert_eq!(
        result.coverage.outcomes(),
        [ShardOutcome::Answered { replica: 1 }]
    );
    assert_eq!(result.topk.entries()[0], (3, 4.0));
    // Two replicas: the secondary is asked after deadline / 2 of silence.
    assert!(
        elapsed >= deadline / 2 && elapsed < deadline,
        "hedged answer took {elapsed:?} (stagger {:?}, deadline {deadline:?})",
        deadline / 2
    );
    assert_eq!(counter(&router, "tkspmv_router_hedged_sends_total"), 1.0);
    assert_eq!(counter(&router, "tkspmv_router_failovers_total"), 0.0);
    live.shutdown();
}

/// Twelve concurrent queries against one wedged node: each replica has
/// four resident connection workers, so the node sees at most four
/// connections, and the queries still queued at their deadline are
/// dropped without a dial. A worker frees at its socket timeout, which
/// fires at least a timer tick after its query's deadline; the barrier
/// starts the queries well within that tick of each other.
#[test]
fn a_wedged_replica_holds_at_most_the_pooled_connections() {
    let (wedged, connections) = spawn_scripted_shard(0, 8, 8, None);
    let router = Router::connect(
        vec![ShardSpec::single(wedged.to_string())],
        router_config(Duration::from_millis(400)),
    )
    .expect("connect");
    let queries = 12;
    let ready = Barrier::new(queries);
    std::thread::scope(|s| {
        for _ in 0..queries {
            s.spawn(|| {
                ready.wait();
                let err = router
                    .query(&[1.0f32; 8], 3, QueryTier::Exact)
                    .expect_err("a wedged node answers nothing");
                assert!(matches!(err, FabricError::NoCoverage { .. }), "{err:?}");
            });
        }
    });
    std::thread::sleep(Duration::from_millis(600));
    let accepted = connections.accepted.load(Ordering::SeqCst);
    assert!(
        accepted <= 4,
        "{accepted} connections to one wedged replica"
    );
}

/// Dropping a router closes every connection it holds within a second:
/// its connection workers end with it.
#[test]
fn a_dropped_router_hangs_up() {
    let (node, connections) = spawn_scripted_shard(0, 8, 8, Some(RpcError::Overloaded));
    let router = Router::connect(
        vec![ShardSpec::single(node.to_string())],
        router_config(Duration::from_millis(400)),
    )
    .expect("connect");
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let err = router.query(&[1.0f32; 8], 3, QueryTier::Exact);
                assert!(
                    matches!(err, Err(FabricError::NoCoverage { .. })),
                    "{err:?}"
                );
            });
        }
    });
    let accepted = connections.accepted.load(Ordering::SeqCst);
    assert!(accepted >= 1);
    drop(router);
    let dropped = Instant::now();
    while connections.hung_up.load(Ordering::SeqCst) < accepted {
        assert!(
            dropped.elapsed() < Duration::from_secs(1),
            "{} of {accepted} connections still open 1 s after the router dropped",
            connections.hung_up.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn malformed_queries_never_leave_the_router() {
    let dim = 6;
    let a = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let b = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let router = Router::connect(
        vec![ShardSpec::replicated([
            a.local_addr().to_string(),
            b.local_addr().to_string(),
        ])],
        router_config(Duration::from_secs(5)),
    )
    .expect("connect");

    let pruned_zero = QueryTier::Pruned {
        shortlist_factor: 0,
    };
    for (name, x, k, tier) in [
        (
            "wrong dimension",
            vec![1.0f32; dim + 1],
            1,
            QueryTier::Exact,
        ),
        ("k = 0", vec![1.0; dim], 0, QueryTier::Exact),
        ("zero shortlist factor", vec![1.0; dim], 1, pruned_zero),
    ] {
        match router.query(&x, k, tier) {
            Err(FabricError::Rpc(RpcError::BadRequest { .. })) => {}
            other => panic!("{name}: expected a typed BadRequest, got {other:?}"),
        }
    }
    #[cfg(target_pointer_width = "64")]
    match router.query(&vec![1.0; dim], u32::MAX as usize + 1, QueryTier::Exact) {
        Err(FabricError::Rpc(RpcError::BadRequest { detail })) => {
            assert!(detail.contains("32-bit"), "{detail}")
        }
        other => panic!("k past the wire's range: got {other:?}"),
    }
    // A client's typo is not the fleet degrading.
    for name in [
        "tkspmv_router_requests_total",
        "tkspmv_router_failovers_total",
        "tkspmv_router_incomplete_coverage_total",
    ] {
        assert_eq!(counter(&router, name), 0.0, "{name}");
    }
    a.shutdown();
    b.shutdown();
}

/// A `k` past the wire's 32-bit count is refused by the client itself,
/// before a byte is sent, in the router's words: cut to 32 bits it
/// would ask the node for another `K` altogether (`2^32 + 5` reads as
/// 5, `2^32` as 0).
#[cfg(target_pointer_width = "64")]
#[test]
fn a_client_refuses_a_k_past_the_wire_before_sending() {
    let dim = 6;
    let node = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let router = Router::connect(
        vec![ShardSpec::single(node.local_addr().to_string())],
        router_config(Duration::from_secs(5)),
    )
    .expect("connect");
    let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
    let x = vec![1.0f32; dim];
    for k in [(1usize << 32) + 5, 1 << 32] {
        let detail = match client.query(&x, k, QueryTier::Exact, DEADLINE) {
            Err(CallError::Rpc(RpcError::BadRequest { detail })) => detail,
            other => panic!("k = {k}: expected a typed BadRequest, got {other:?}"),
        };
        assert!(detail.contains("32-bit"), "{detail}");
        match router.query(&x, k, QueryTier::Exact) {
            Err(FabricError::Rpc(RpcError::BadRequest { detail: routed })) => {
                assert_eq!(
                    detail, routed,
                    "k = {k}: the client speaks the router's words"
                )
            }
            other => panic!("k = {k}: router: got {other:?}"),
        }
    }
    // Nothing was sent, so the connection still answers in step.
    let entries = client
        .query(&x, 5, QueryTier::Exact, DEADLINE)
        .expect("a well-formed query after the refusals");
    assert_eq!(entries.len(), 5);
    node.shutdown();
}

#[test]
fn only_retryable_node_errors_fail_over() {
    let dim = 6;
    let mut x = vec![0.0f32; dim];
    x[3] = 1.0;

    // Plain CpuTopK nodes have no pruned tier: the node answers the
    // non-retryable `Engine`, which the other replica would only repeat.
    let a = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let b = spawn_node(6, dim, 0, BatchPolicy::immediate());
    let router = Router::connect(
        vec![ShardSpec::replicated([
            a.local_addr().to_string(),
            b.local_addr().to_string(),
        ])],
        router_config(Duration::from_secs(5)),
    )
    .expect("connect");
    let pruned = QueryTier::Pruned {
        shortlist_factor: 2,
    };
    match router.query(&x, 1, pruned) {
        Err(FabricError::NoCoverage { coverage }) => assert!(
            matches!(
                coverage.outcomes(),
                [ShardOutcome::Failed(ShardFailure::Rpc(
                    RpcError::Engine { .. }
                ))]
            ),
            "{coverage:?}"
        ),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(counter(&router, "tkspmv_router_failovers_total"), 0.0);
    b.shutdown();

    // An overloaded primary says nothing about the secondary.
    let (shedding, _) = spawn_scripted_shard(0, 6, dim as u64, Some(RpcError::Overloaded));
    let router = Router::connect(
        vec![ShardSpec::replicated([
            shedding.to_string(),
            a.local_addr().to_string(),
        ])],
        router_config(Duration::from_secs(5)),
    )
    .expect("connect");
    let result = router.query(&x, 1, QueryTier::Exact).expect("failover");
    assert_eq!(
        result.coverage.outcomes(),
        [ShardOutcome::Answered { replica: 1 }]
    );
    assert_eq!(counter(&router, "tkspmv_router_failovers_total"), 1.0);
    a.shutdown();
}

#[test]
fn router_rejects_deadlines_the_node_batcher_would_eat() {
    // After a batch that had company, the node holds the next seed up
    // to max_wait before running it — a router deadline inside that
    // window could time out a query that was never late. The router
    // must refuse the configuration with a typed error that names the
    // contract.
    let max_wait = Duration::from_millis(100);
    let node = spawn_node(8, 8, 0, BatchPolicy::coalescing(16, max_wait));
    let err = Router::connect(
        vec![ShardSpec::single(node.local_addr().to_string())],
        RouterConfig {
            deadline: Duration::from_millis(60),
            headroom: Duration::from_millis(20),
            ..router_config(Duration::from_millis(60))
        },
    )
    .expect_err("a deadline under max_wait + headroom must be refused");
    match err {
        FabricError::InvalidConfig { detail } => {
            assert!(detail.contains("max_wait"), "{detail}");
            assert!(detail.contains("headroom"), "{detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    node.shutdown();
}

#[test]
fn lone_query_on_an_idle_node_skips_max_wait() {
    // The budget split: router deadline > node max_wait + headroom.
    // The node batcher waits for company only after a batch that had
    // some, so a lone query on an idle cluster runs at once: it pays
    // neither max_wait nor the deadline.
    let max_wait = Duration::from_millis(150);
    let deadline = Duration::from_millis(2_000);
    let node = spawn_node(8, 8, 0, BatchPolicy::coalescing(16, max_wait));
    let router = Router::connect(
        vec![ShardSpec::single(node.local_addr().to_string())],
        RouterConfig {
            headroom: Duration::from_millis(100),
            ..router_config(deadline)
        },
    )
    .expect("a cleared budget connects");

    let start = Instant::now();
    let result = router
        .query(&[1.0f32; 8], 1, QueryTier::Exact)
        .expect("idle lone query");
    let elapsed = start.elapsed();
    assert!(result.coverage.is_complete());
    assert!(
        elapsed < max_wait,
        "an idle node's batcher held a lone query for company ({elapsed:?})"
    );
    assert!(
        elapsed < deadline,
        "a lone query must answer inside the deadline ({elapsed:?} vs {deadline:?})"
    );
    node.shutdown();
}
