//! A fabric node: one [`DeltaCollection`] behind a TCP listener.
//!
//! The server is thread-per-connection over the std TCP stack — the
//! same no-runtime discipline as the rest of the repo. Each connection
//! speaks sequential request/response frames; protocol violations get a
//! typed error frame where the stream still permits one, then the
//! connection closes (after a framing failure the stream position is
//! unknowable, so resynchronisation is never attempted).
//!
//! Shutdown never blocks on a quiet client: open connections are
//! registered and their sockets are shut down, which unblocks any
//! reader, and every handler thread is joined before `shutdown`
//! returns. A connection that ends on its own leaves no trace: its
//! handler drops its registry entry (closing the node's last copy of
//! the socket), and the accept loop reaps its finished thread.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tkspmv::backend::Query;
use tkspmv_serve::ServeError;
use tkspmv_sparse::DenseVector;

use crate::delta::DeltaCollection;
use crate::error::RpcError;
use crate::wire::{read_request, write_response, NodeInfo, Request, Response, WireError};

/// Maps a serving-layer failure to its wire-typed form.
fn rpc_error_from_serve(e: &ServeError) -> RpcError {
    match e {
        ServeError::QueueFull { .. } => RpcError::Overloaded,
        ServeError::ShuttingDown => RpcError::ShuttingDown,
        ServeError::BadRequest(inner) => RpcError::BadRequest {
            detail: inner.to_string(),
        },
        ServeError::Engine(inner) => RpcError::Engine {
            detail: inner.to_string(),
        },
        other => RpcError::Internal {
            detail: other.to_string(),
        },
    }
}

struct NodeShared {
    collection: Arc<DeltaCollection>,
    stop: AtomicBool,
    /// One clone per live connection, by connection number, so shutdown
    /// can unblock readers.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl NodeShared {
    fn info(&self) -> NodeInfo {
        let service = self.collection.service();
        let policy = service.batch_policy();
        NodeInfo {
            start_row: self.collection.start_row() as u64,
            base_rows: self.collection.base_rows() as u64,
            delta_rows: self.collection.delta_rows() as u64,
            dim: service.dim() as u64,
            epoch: service.epoch(),
            max_wait_micros: policy.max_wait.as_micros() as u64,
            max_batch_size: policy.max_batch_size as u32,
            queue_capacity: service.queue_capacity() as u32,
        }
    }

    /// Executes one request. `Shutdown` is handled by the caller (it
    /// needs the connection loop to exit).
    fn respond(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Info => Response::Info(self.info()),
            Request::Query { x, k, tier, trace } => {
                let x = DenseVector::from_values(x);
                let query = Query {
                    k: k as usize,
                    tier,
                    trace,
                };
                match self.collection.query(x, &query) {
                    Ok((topk, stages, total)) => {
                        let trace = (!trace.is_zero())
                            .then(|| stages.stages().to_span_record(trace, total));
                        Response::TopK {
                            entries: topk.entries().to_vec(),
                            trace,
                        }
                    }
                    Err(e) => Response::Error(rpc_error_from_serve(&e)),
                }
            }
            Request::Append { rows } => match self.collection.append(&rows) {
                Ok(ids) => Response::AppendOk { ids },
                Err(detail) => Response::Error(RpcError::BadRequest { detail }),
            },
            Request::Compact => match self.collection.compact_once() {
                Ok((epoch, folded)) => Response::CompactOk { epoch, folded },
                Err(detail) => Response::Error(RpcError::Internal { detail }),
            },
            Request::Shutdown => Response::ShutdownOk,
        }
    }
}

/// A running fabric node server.
pub struct NodeServer {
    shared: Arc<NodeShared>,
    local_addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    handler_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    metrics: Option<tkspmv_obs::MetricsServer>,
}

impl NodeServer {
    /// [`NodeServer::spawn`] plus a Prometheus plaintext `/metrics`
    /// endpoint on `metrics_addr` (port 0 for ephemeral), rendering the
    /// served collection's full metric registry. The endpoint lives and
    /// dies with the node.
    pub fn spawn_with_metrics(
        collection: Arc<DeltaCollection>,
        addr: &str,
        metrics_addr: &str,
    ) -> std::io::Result<Self> {
        let mut node = Self::spawn(collection, addr)?;
        let metrics_collection = Arc::clone(&node.shared.collection);
        node.metrics = Some(tkspmv_obs::MetricsServer::spawn(
            metrics_addr,
            move |path| (path == "/metrics").then(|| metrics_collection.service().render_metrics()),
        )?);
        Ok(node)
    }

    /// The metrics endpoint's bound address, when one was spawned.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections over `collection`.
    pub fn spawn(collection: Arc<DeltaCollection>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe shutdown; 5 ms of
        // poll latency on an idle listener is irrelevant next to query
        // service times.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(NodeShared {
            collection,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let handler_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_handlers = Arc::clone(&handler_handles);
        #[expect(
            clippy::disallowed_methods,
            reason = "long-lived: the accept loop, one per node server"
        )]
        let accept_handle = std::thread::Builder::new()
            .name(format!("tkspmv-node-accept-{}", local_addr.port()))
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_handlers))?;
        Ok(Self {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            handler_handles,
            metrics: None,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The collection this node serves.
    pub fn collection(&self) -> &Arc<DeltaCollection> {
        &self.shared.collection
    }

    /// Whether a client asked the node to shut down (process harnesses
    /// poll this to exit).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Stops accepting, unblocks and joins every connection handler.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Stop answering scrapes before serving state goes away.
        self.metrics.take();
        self.shared.stop.store(true, Ordering::Release);
        for (_, conn) in lock(&self.shared.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in lock(&self.handler_handles).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<NodeShared>,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        reap(handlers);
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let id = next_id;
                next_id += 1;
                let Ok(clone) = stream.try_clone() else {
                    continue; // shutdown could not unblock its handler
                };
                lock(&shared.conns).insert(id, clone);
                let conn_shared = Arc::clone(shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "long-lived: the connection handler, one per client connection"
                )]
                let handle = std::thread::Builder::new()
                    .name("tkspmv-node-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        lock(&conn_shared.conns).remove(&id);
                    });
                if let Ok(h) = handle {
                    lock(handlers).push(h);
                } else {
                    // Spawn refused: the connection is dropped.
                    lock(&shared.conns).remove(&id);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Joins the handlers whose connections ended on their own; a finished
/// thread joins at once.
fn reap(handlers: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let mut handles = lock(handlers);
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<NodeShared>) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let req = match read_request(&mut stream) {
            Ok(req) => req,
            Err(WireError::Io(_)) | Err(WireError::Truncated { .. }) => {
                // Peer gone (or shutdown unblocked us); nothing to say.
                return;
            }
            Err(e) => {
                // Corrupt or alien traffic: answer typed once, then
                // close — the stream position is no longer trustworthy.
                let resp = Response::Error(RpcError::BadRequest {
                    detail: e.to_string(),
                });
                let _ = write_response(&mut stream, &resp);
                return;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        if is_shutdown {
            // Set the flag before replying: once the client has read
            // ShutdownOk, `shutdown_requested()` must already be true.
            shared.stop.store(true, Ordering::Release);
        }
        let resp = shared.respond(req);
        if write_response(&mut stream, &resp).is_err() {
            return;
        }
        if is_shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use tkspmv::backend::QueryTier;
    use tkspmv_baselines::cpu::CpuTopK;
    use tkspmv_serve::TopKService;
    use tkspmv_sparse::Csr;

    use crate::client::NodeClient;

    const DEADLINE: Duration = Duration::from_secs(10);

    fn diag_csr(rows: usize) -> Csr {
        let row_ptr = (0..=rows as u64).collect();
        let col_idx = (0..rows as u32).collect();
        let values = (0..rows).map(|r| 1.0 + r as f32).collect();
        Csr::from_parts(rows, rows, row_ptr, col_idx, values).expect("valid csr")
    }

    fn spawn_node(rows: usize, start_row: usize) -> NodeServer {
        let csr = diag_csr(rows);
        let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
            .build(&csr)
            .expect("service");
        let collection = Arc::new(DeltaCollection::new(service, csr, start_row));
        NodeServer::spawn(collection, "127.0.0.1:0").expect("bind")
    }

    #[test]
    fn serves_ping_info_and_queries_with_global_ids() {
        let node = spawn_node(4, 1000);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        client.ping(DEADLINE).expect("ping");
        let info = client.info(DEADLINE).expect("info");
        assert_eq!(info.start_row, 1000);
        assert_eq!(info.base_rows, 4);
        assert_eq!(info.delta_rows, 0);
        assert_eq!(info.dim, 4);

        let mut x = vec![0.0f32; 4];
        x[2] = 1.0;
        let entries = client
            .query(&x, 2, QueryTier::Exact, DEADLINE)
            .expect("query");
        assert_eq!(entries[0], (1002, 3.0));
        node.shutdown();
    }

    #[test]
    fn append_then_query_then_compact_over_the_wire() {
        let node = spawn_node(3, 0);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        let ids = client
            .append(&[(vec![0], vec![9.5])], DEADLINE)
            .expect("append");
        assert_eq!(ids, vec![3]);
        let mut x = vec![0.0f32; 3];
        x[0] = 1.0;
        let entries = client
            .query(&x, 1, QueryTier::Exact, DEADLINE)
            .expect("query");
        assert_eq!(entries[0], (3, 9.5));
        let (epoch, folded) = client.compact(DEADLINE).expect("compact");
        assert!(epoch > 0);
        assert_eq!(folded, 1);
        let entries = client
            .query(&x, 1, QueryTier::Exact, DEADLINE)
            .expect("query after compact");
        assert_eq!(entries[0], (3, 9.5));
        node.shutdown();
    }

    #[test]
    fn ragged_append_rows_are_refused_before_any_byte_is_sent() {
        let node = spawn_node(3, 0);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        let long_vals = (vec![0], vec![9.5, 7.0, 3.0]);
        let short_vals = (vec![0, 1], vec![9.5]);
        let good = (vec![0], vec![9.5]);
        for (name, batch) in [
            ("long vals", vec![long_vals.clone()]),
            ("short vals", vec![short_vals]),
            ("good row after a bad one", vec![long_vals, good.clone()]),
        ] {
            match client.append(&batch, DEADLINE) {
                Err(crate::client::CallError::Rpc(RpcError::BadRequest { detail })) => {
                    assert!(detail.contains("row 0"), "{name}: {detail}");
                }
                other => panic!("{name}: expected BadRequest, got {other:?}"),
            }
            let info = client.info(DEADLINE).expect("info");
            assert_eq!(info.delta_rows, 0, "{name}: delta must stay untouched");
        }
        // The connection and the delta are fine: a well-formed row lands.
        assert_eq!(client.append(&[good], DEADLINE).expect("append"), vec![3]);
        node.shutdown();
    }

    #[test]
    fn bad_requests_come_back_typed() {
        let node = spawn_node(3, 0);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        // Wrong dimension.
        let err = client
            .query(&[1.0f32; 7], 1, QueryTier::Exact, DEADLINE)
            .expect_err("dim mismatch");
        assert!(matches!(
            err,
            crate::client::CallError::Rpc(RpcError::BadRequest { .. })
        ));
        // The connection survives a typed rejection.
        client.ping(DEADLINE).expect("ping after rejection");
        node.shutdown();
    }

    /// Delta scoring indexes the query by column, so a short vector
    /// must be refused before the delta is read — typed, at once, with
    /// the connection left usable — not by a panicking handler thread.
    #[test]
    fn short_query_over_a_delta_is_refused_not_a_handler_panic() {
        let node = spawn_node(3, 0);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        client
            .append(&[(vec![2], vec![9.5])], DEADLINE)
            .expect("append");
        let asked = std::time::Instant::now();
        for (name, x, k) in [("short x", vec![1.0f32; 1], 1), ("k = 0", vec![1.0; 3], 0)] {
            match client.query(&x, k, QueryTier::Exact, DEADLINE) {
                Err(crate::client::CallError::Rpc(RpcError::BadRequest { .. })) => {}
                other => panic!("{name}: expected BadRequest, got {other:?}"),
            }
        }
        assert!(
            asked.elapsed() < DEADLINE / 2,
            "a refusal must not burn the deadline ({:?})",
            asked.elapsed()
        );
        client.ping(DEADLINE).expect("ping after rejection");
        assert_eq!(client.info(DEADLINE).expect("info").delta_rows, 1);
        node.shutdown();
    }

    #[test]
    fn corrupt_frame_gets_typed_error_then_close() {
        use std::io::Write;
        let node = spawn_node(3, 0);
        let mut raw = TcpStream::connect(node.local_addr()).expect("connect");
        raw.set_read_timeout(Some(DEADLINE)).expect("timeout");
        let mut bytes = crate::wire::encode_frame(crate::wire::FrameKind::Ping, &[]);
        bytes[5] = 0x77; // version skew
        raw.write_all(&bytes).expect("write");
        let resp = crate::wire::read_response(&mut raw).expect("typed answer");
        assert!(matches!(resp, Response::Error(RpcError::BadRequest { .. })));
        node.shutdown();
    }

    #[test]
    fn a_closed_connection_leaves_no_registry_entry_or_handle() {
        let node = spawn_node(3, 0);
        for _ in 0..20 {
            let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
            client.ping(DEADLINE).expect("ping");
        }
        // Each dropped client ends its handler; the accept loop, which
        // polls every 5 ms, joins the finished threads.
        let give_up = std::time::Instant::now() + DEADLINE;
        loop {
            let live = (
                lock(&node.shared.conns).len(),
                lock(&node.handler_handles).len(),
            );
            if live == (0, 0) {
                break;
            }
            assert!(
                std::time::Instant::now() < give_up,
                "(registry entries, handles) still {live:?} after every client left"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        node.shutdown();
    }

    #[test]
    fn shutdown_request_stops_the_node() {
        let node = spawn_node(3, 0);
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        client.shutdown(DEADLINE).expect("shutdown call");
        assert!(node.shutdown_requested());
        node.shutdown();
    }
}
