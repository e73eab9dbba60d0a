//! `served_open`: independent users. An open loop of seeded Poisson
//! arrivals at a fixed 60 qps into a `TopKService` (2 shards × the
//! paper design, coalescing up to 32 requests for at most 2 ms).
//!
//! One scheduler thread submits each request when it falls due and one
//! collector (the calling thread) claims the tickets; latency runs from
//! the request's *due* time, so a stall charges every request it
//! delays, and the generator's own lateness is reported. This is the
//! only workload where the submission queue, the coalesce wait and the
//! per-shard dispatch are on the path.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv::backend::TopKBackend;
use tkspmv::TopKResult;
use tkspmv_serve::{BatchPolicy, ServiceMetrics, Ticket, TopKService};

use super::{paper_design, Observed, Round, Verified, Workload};
use crate::input::{arrivals, Inputs, Scale, K, OPEN_LOOP_QPS, POOL, REFERENCE};
use crate::probes::Probes;
use crate::span::{Tracer, Waterfall};
use crate::spec::{WorkloadSpec, WORKLOADS};
use crate::verify;

const SHARDS: usize = 2;
/// Tickets kept outstanding by the `serve.closed32_qps` capacity probe.
const CLOSED_LOOP_TICKETS: usize = 32;

/// One submitted request on its way from scheduler to collector.
struct InFlight {
    op: u64,
    query: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: Result<Ticket, String>,
}

/// The `served_open` workload's state.
pub struct ServedOpen {
    service: Option<TopKService>,
    build_time: Duration,
    references: Vec<Vec<(u32, f64)>>,
    next_op: u64,
    rounds_run: u64,
    baseline: Option<ServiceMetrics>,
    late_max: Duration,
    tracer: Tracer,
    waterfall: Waterfall,
}

impl ServedOpen {
    /// The workload, nothing built yet.
    pub fn new() -> Self {
        Self {
            service: None,
            build_time: Duration::ZERO,
            references: Vec::new(),
            next_op: 0,
            rounds_run: 0,
            baseline: None,
            late_max: Duration::ZERO,
            tracer: Tracer::new(),
            waterfall: Waterfall::default(),
        }
    }

    fn service(&self) -> &TopKService {
        self.service.as_ref().expect("setup ran before this call")
    }

    /// Capacity probe: keeps 32 tickets outstanding from one thread for
    /// `duration` and returns answered requests per second. The open
    /// loop's fixed 60 qps sits well below this; a batcher change that
    /// moves it moves the ceiling, not the fixed-rate latency.
    fn closed_loop_qps(&self, inputs: &Inputs, duration: Duration) -> f64 {
        let service = self.service();
        let mut outstanding = std::collections::VecDeque::with_capacity(CLOSED_LOOP_TICKETS);
        let mut next = 0usize;
        let mut answered = 0u64;
        let started = Instant::now();
        loop {
            let open = started.elapsed() < duration;
            while open && outstanding.len() < CLOSED_LOOP_TICKETS {
                if let Ok(ticket) = service.submit(inputs.queries[next % POOL].clone(), K) {
                    outstanding.push_back(ticket);
                }
                next += 1;
            }
            let Some(ticket) = outstanding.pop_front() else {
                break;
            };
            if ticket.wait().is_ok() {
                answered += 1;
            }
        }
        answered as f64 / started.elapsed().as_secs_f64()
    }
}

impl Workload for ServedOpen {
    fn spec(&self) -> &'static WorkloadSpec {
        &WORKLOADS[2]
    }

    fn teardown(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }

    fn setup(&mut self, inputs: &Inputs) -> Result<(), String> {
        let started = Instant::now();
        self.service = Some(
            TopKService::builder(Arc::new(paper_design()))
                .shards(SHARDS)
                .batch_policy(BatchPolicy::coalescing(32, Duration::from_millis(2)))
                .queue_capacity(1024)
                .build(&inputs.csr)
                .map_err(|e| e.to_string())?,
        );
        self.build_time = started.elapsed();
        Ok(())
    }

    fn verify(&mut self, inputs: &Inputs) -> Result<Verified, String> {
        // The shard layout is part of the accelerator's approximation,
        // so the reference is the same layout queried directly: each
        // shard prepared and queried on its own, merged under the
        // engine's total order. The service must add nothing to that.
        let backend: &dyn TopKBackend = &paper_design();
        let shards: Vec<_> = inputs
            .csr
            .partition_rows(SHARDS)
            .into_iter()
            .map(|(first, part)| backend.prepare(&part).map(|m| (first as u32, m)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        self.references = inputs.queries[..REFERENCE]
            .iter()
            .map(|x| {
                let mut pairs = Vec::with_capacity(SHARDS * K);
                for (first, matrix) in &shards {
                    let out = backend.query(matrix, x, K).map_err(|e| e.to_string())?;
                    pairs.extend(out.topk.entries().iter().map(|&(r, s)| (r + first, s)));
                }
                Ok(TopKResult::merge_pairs(pairs, K).entries().to_vec())
            })
            .collect::<Result<_, String>>()?;

        let mut verified = Verified::default();
        for (q, x) in inputs.queries[..REFERENCE].iter().enumerate() {
            let served = self
                .service()
                .query(x.clone(), K)
                .map_err(|e| e.to_string())?;
            verified.checked += 1;
            if !verify::identical(served.topk.entries(), &self.references[q]) {
                verified.mismatches += 1;
            }
            verified.recall +=
                verify::recall(served.topk.entries(), &inputs.oracle[q]) / REFERENCE as f64;
        }
        Ok(verified)
    }

    fn round(&mut self, inputs: &Inputs, duration: Duration, traced: bool) -> Round {
        if self.baseline.is_none() {
            self.baseline = Some(self.service().metrics());
        }
        let count = ((OPEN_LOOP_QPS * duration.as_secs_f64()).round() as usize).max(1);
        let schedule = arrivals(inputs.seed, self.rounds_run, count, duration);
        self.rounds_run += 1;
        let first_op = self.next_op;
        self.next_op += count as u64;

        let mut round = Round::default();
        let (tx, rx) = mpsc::channel::<InFlight>();
        let started = Instant::now();
        let mut last_done = started;
        std::thread::scope(|scope| {
            let service = self.service.as_ref().expect("setup ran before this call");
            scope.spawn(move || {
                for (n, offset) in schedule.into_iter().enumerate() {
                    let op = first_op + n as u64;
                    let query = (op % POOL as u64) as usize;
                    let due = started + offset;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let submit_start = Instant::now();
                    let ticket = service
                        .submit(inputs.queries[query].clone(), K)
                        .map_err(|e| e.to_string());
                    let sent = tx.send(InFlight {
                        op,
                        query,
                        due,
                        submit_start,
                        submit_end: Instant::now(),
                        ticket,
                    });
                    if sent.is_err() {
                        return;
                    }
                }
            });

            for flight in rx {
                round.calls += 1;
                self.late_max = self.late_max.max(flight.submit_start - flight.due);
                let served = flight
                    .ticket
                    .and_then(|t| t.wait().map_err(|e| e.to_string()));
                let done = Instant::now();
                last_done = done;
                let Some(served) = served.ok().filter(|s| {
                    verify::answer_ok(s.topk.entries(), self.references.get(flight.query), K)
                }) else {
                    round.failed += 1;
                    continue;
                };
                round.queries_ok += 1;
                round
                    .latencies_ms
                    .push((done - flight.due).as_secs_f64() * 1e3);
                if !traced {
                    continue;
                }
                let root = self
                    .tracer
                    .record("client.op", flight.op, None, flight.due, done);
                let root = Some(root);
                self.tracer.record(
                    "client.late",
                    flight.op,
                    root,
                    flight.due,
                    flight.submit_start,
                );
                self.tracer.record(
                    "client.submit",
                    flight.op,
                    root,
                    flight.submit_start,
                    flight.submit_end,
                );
                // The service reports stage durations, not instants; lay
                // them end to end from admission, as it defines them.
                let st = served.stages;
                let mut offset_us = 0u64;
                for (name, d) in [
                    ("serve.queue", st.queue),
                    ("serve.coalesce", st.coalesce),
                    ("serve.engine", st.engine),
                    ("serve.merge", st.merge),
                ] {
                    let dur_us = d.as_micros() as u64;
                    self.tracer.record_offset(
                        name,
                        flight.op,
                        root,
                        flight.submit_start,
                        offset_us,
                        dur_us,
                    );
                    offset_us += dur_us;
                    self.waterfall.add(name, d.as_secs_f64());
                }
                // What is left of submit → done once the reported stages
                // are taken out: waiting for a busy shard worker after
                // dispatch, the response hand-off, the submit call.
                let late = (flight.submit_start - flight.due).as_secs_f64();
                let staged = (st.queue + st.coalesce + st.engine + st.merge).as_secs_f64();
                let total = (done - flight.due).as_secs_f64();
                self.waterfall.op(total);
                self.waterfall
                    .add("serve.overhead", (total - late - staged).max(0.0));
                self.waterfall.add("client.late", late);
            }
        });
        round.elapsed = last_done - started;
        round
    }

    fn observed(&mut self, inputs: &Inputs, _probes: &Probes) -> Observed {
        let closed_loop = Duration::from_secs_f64(match inputs.scale {
            Scale::Full => 5.0,
            Scale::Quick => 0.5,
        });
        // Before the capacity probe, so its traffic stays out of the
        // batch-shape counters.
        let now = self.service().metrics();
        let base = self.baseline.clone().unwrap_or_else(|| now.clone());
        let closed32_qps = self.closed_loop_qps(inputs, closed_loop);

        let w = &self.waterfall;
        let per_op_us = |layer: &str| 1e6 * w.layer_s(layer) / w.ops.max(1) as f64;
        let served = now.served.saturating_sub(base.served);
        let batches = now.batches.saturating_sub(base.batches);
        let wakeups = now.batcher_wakeups.saturating_sub(base.batcher_wakeups);
        vec![
            ("serve.queue_wait_mean_us", per_op_us("serve.queue")),
            ("serve.coalesce_wait_mean_us", per_op_us("serve.coalesce")),
            ("serve.score_mean_us", per_op_us("serve.engine")),
            ("serve.merge_mean_us", per_op_us("serve.merge")),
            (
                "serve.mean_batch_size",
                served as f64 / batches.max(1) as f64,
            ),
            ("serve.batches_total", batches as f64),
            (
                "serve.shed_total",
                now.shed.saturating_sub(base.shed) as f64,
            ),
            (
                "serve.failed_total",
                now.failed.saturating_sub(base.failed) as f64,
            ),
            (
                "serve.batcher_wakeups_per_request",
                wakeups as f64 / served.max(1) as f64,
            ),
            ("serve.overhead_us", per_op_us("serve.overhead")),
            ("serve.build_ms", self.build_time.as_secs_f64() * 1e3),
            ("serve.closed32_qps", closed32_qps),
            (
                "serve.generator_late_max_ms",
                self.late_max.as_secs_f64() * 1e3,
            ),
        ]
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn waterfall(&self) -> &Waterfall {
        &self.waterfall
    }

    fn finish(&mut self, _inputs: &Inputs) -> Result<(u64, u64), String> {
        self.teardown();
        Ok((0, 0))
    }
}
