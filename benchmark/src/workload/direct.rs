//! `direct_b1` and `direct_b32`: one closed-loop caller straight on the
//! accelerator backend (the paper design: 32 cores, k = 8, Q1.19).
//!
//! `direct_b1` is the paper's Fig. 5 single-query setting; its index is
//! built by `prepare`. `direct_b32` sends batches of 32 and boots its
//! index from a snapshot, so its set-up is the snapshot-load path. The
//! two are mirror images: chunk decode dominates the first, lane replay
//! the second.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tkspmv::backend::{PreparedMatrix, QueryBatch, TopKBackend};
use tkspmv::{
    quantize_vector, run_core_batch_with_scratch, Accelerator, BatchScratch, Fidelity,
    LoadedMatrix, TopKResult,
};
use tkspmv_fixed::Q1_19;

use super::{paper_design, Observed, Round, Verified, Workload};
use crate::input::{Inputs, BATCH, K, POOL, REFERENCE};
use crate::probes::Probes;
use crate::span::{Tracer, Waterfall};
use crate::spec::{WorkloadSpec, WORKLOADS};
use crate::{host, scratch_file, verify};

/// Every `REPLAY_EVERY`-th traced op is decomposed into its constituent
/// public calls.
const REPLAY_EVERY: u64 = 16;

/// Single queries or batches of 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `direct_b1`: `TopKBackend::query`.
    Single,
    /// `direct_b32`: `TopKBackend::query_batch` of 32.
    Batch,
}

/// What the traced rounds need to decompose an op: the encoded
/// partitions themselves and a warm scratch.
struct Replay {
    loaded: LoadedMatrix,
    scratch: BatchScratch<Q1_19>,
}

/// Totals over the traced rounds.
#[derive(Default)]
struct TracedTotals {
    calls: u64,
    load_time: Duration,
}

/// The direct workloads' state.
pub struct Direct {
    mode: Mode,
    backend: Accelerator,
    matrix: Option<PreparedMatrix>,
    snapshot: Option<PathBuf>,
    batches: Vec<QueryBatch>,
    references: Vec<Vec<(u32, f64)>>,
    next_op: u64,
    tracer: Tracer,
    waterfall: Waterfall,
    replay: Option<Replay>,
    traced: TracedTotals,
}

impl Direct {
    /// A direct workload in `mode`, nothing built yet.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            backend: paper_design(),
            matrix: None,
            snapshot: None,
            batches: Vec::new(),
            references: Vec::new(),
            next_op: 0,
            tracer: Tracer::new(),
            waterfall: Waterfall::default(),
            replay: None,
            traced: TracedTotals::default(),
        }
    }

    fn matrix(&self) -> &PreparedMatrix {
        self.matrix.as_ref().expect("setup ran before this call")
    }

    /// Queries per call.
    fn lanes(&self) -> usize {
        match self.mode {
            Mode::Single => 1,
            Mode::Batch => BATCH,
        }
    }

    /// Pool index of lane 0 of op `i`; ops walk the pool in order.
    fn first_query(&self, i: u64) -> usize {
        ((i * self.lanes() as u64) % POOL as u64) as usize
    }

    /// Issues op `i` and returns one ranking per lane.
    fn call(&self, inputs: &Inputs, i: u64) -> Result<Vec<TopKResult>, String> {
        let first = self.first_query(i);
        match self.mode {
            Mode::Single => {
                TopKBackend::query(&self.backend, self.matrix(), &inputs.queries[first], K)
                    .map(|r| vec![r.topk])
                    .map_err(|e| e.to_string())
            }
            Mode::Batch => TopKBackend::query_batch(
                &self.backend,
                self.matrix(),
                &self.batches[first / BATCH],
                K,
            )
            .map(|rs| rs.into_iter().map(|r| r.topk).collect())
            .map_err(|e| e.to_string()),
        }
    }

    /// Checks op `i`'s answers: in full against the reference where one
    /// exists, structurally otherwise.
    fn answers_ok(&self, i: u64, answers: &[TopKResult]) -> bool {
        let first = self.first_query(i);
        answers.len() == self.lanes()
            && answers.iter().enumerate().all(|(lane, a)| {
                verify::answer_ok(a.entries(), self.references.get(first + lane), K)
            })
    }

    /// Decomposes op `i` (which took `op_time` and answered `answers`)
    /// into its constituent public calls, run one at a time on this
    /// thread: quantise, each partition through the batch engine, merge.
    /// What the op took beyond the critical-path estimate of those is
    /// the fan-out's wait (thread spawn, join, imbalance).
    fn replay_op(
        &mut self,
        inputs: &Inputs,
        i: u64,
        root: u32,
        op_time: Duration,
        answers: &[TopKResult],
    ) -> bool {
        let first = self.first_query(i);
        let lanes = self.lanes();
        let replay = self.replay.as_mut().expect("built before traced rounds");
        let tracer = &mut self.tracer;

        let t0 = Instant::now();
        let xs: Vec<Vec<Q1_19>> = inputs.queries[first..first + lanes]
            .iter()
            .map(|x| quantize_vector::<Q1_19>(x.as_slice()))
            .collect();
        let t1 = Instant::now();
        tracer.record("fixed.quantize", i, Some(root), t0, t1);

        let fidelity = Fidelity::Faithful {
            rows_per_packet: replay.loaded.design.r,
        };
        let k = self.backend.config().k;
        let mut pairs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); lanes];
        let mut engine = Duration::ZERO;
        for (first_row, part) in &replay.loaded.partitions {
            let p0 = Instant::now();
            let outputs = run_core_batch_with_scratch(part, &xs, k, fidelity, &mut replay.scratch);
            let p1 = Instant::now();
            tracer.record("core.engine.partition", i, Some(root), p0, p1);
            engine += p1 - p0;
            for (lane, out) in outputs.iter().enumerate() {
                pairs[lane].extend(out.topk.iter().map(|&(local, acc)| {
                    (
                        local + *first_row as u32,
                        <Q1_19 as tkspmv_fixed::SpmvScalar>::acc_to_f64(acc),
                    )
                }));
            }
        }

        let m0 = Instant::now();
        let merged: Vec<TopKResult> = pairs
            .into_iter()
            .map(|p| TopKResult::merge_pairs(p, K))
            .collect();
        let m1 = Instant::now();
        tracer.record("core.topk.merge", i, Some(root), m0, m1);

        let parallel = host::nproc().min(replay.loaded.partitions.len()) as f64;
        let quantize_s = (t1 - t0).as_secs_f64();
        let engine_s = engine.as_secs_f64() / parallel;
        let merge_s = (m1 - m0).as_secs_f64();
        let op_s = op_time.as_secs_f64();
        let wait_s = (op_s - quantize_s - engine_s - merge_s).max(0.0);
        self.waterfall.op(op_s);
        self.waterfall.add("fixed.quantize", quantize_s);
        self.waterfall.add("core.engine", engine_s);
        self.waterfall.add("core.topk.merge", merge_s);
        self.waterfall.add("core.engine.fanout_wait", wait_s);

        // The decomposition must be the op: same answers, bit for bit.
        merged
            .iter()
            .zip(answers)
            .all(|(m, a)| verify::identical(m.entries(), a.entries()))
    }
}

impl Workload for Direct {
    fn spec(&self) -> &'static WorkloadSpec {
        match self.mode {
            Mode::Single => &WORKLOADS[0],
            Mode::Batch => &WORKLOADS[1],
        }
    }

    fn prepare_inputs(&mut self, inputs: &Inputs) -> Result<(), String> {
        if self.mode == Mode::Single {
            return Ok(());
        }
        self.batches = inputs
            .queries
            .chunks(BATCH)
            .map(|c| QueryBatch::new(c.to_vec()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let path = scratch_file("direct_b32.tksnap")?;
        self.backend
            .prepare(&inputs.csr)
            .map_err(|e| e.to_string())?
            .save_to_path(&self.backend, &path)
            .map_err(|e| e.to_string())?;
        self.snapshot = Some(path);
        Ok(())
    }

    fn setup(&mut self, inputs: &Inputs) -> Result<(), String> {
        self.matrix = Some(match &self.snapshot {
            None => self
                .backend
                .prepare(&inputs.csr)
                .map_err(|e| e.to_string())?,
            Some(path) => {
                PreparedMatrix::load_from_path(&self.backend, path).map_err(|e| e.to_string())?
            }
        });
        Ok(())
    }

    fn verify(&mut self, inputs: &Inputs) -> Result<Verified, String> {
        // The reference is always sequential single queries on an index
        // prepared from the CSR, so `direct_b32` checks both contracts
        // at once: batch ≡ sequential and loaded ≡ prepared.
        let prepared = match self.mode {
            Mode::Single => None,
            Mode::Batch => Some(
                self.backend
                    .prepare(&inputs.csr)
                    .map_err(|e| e.to_string())?,
            ),
        };
        let reference_matrix = prepared.as_ref().unwrap_or_else(|| self.matrix());
        let references = inputs.queries[..REFERENCE]
            .iter()
            .map(|x| {
                TopKBackend::query(&self.backend, reference_matrix, x, K)
                    .map(|r| r.topk.entries().to_vec())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        drop(prepared);
        self.references = references;

        let mut verified = Verified::default();
        for i in 0..(REFERENCE / self.lanes()) as u64 {
            let answers = self.call(inputs, i)?;
            let first = self.first_query(i);
            for (lane, a) in answers.iter().enumerate() {
                verified.checked += 1;
                if !verify::identical(a.entries(), &self.references[first + lane]) {
                    verified.mismatches += 1;
                }
                verified.recall +=
                    verify::recall(a.entries(), &inputs.oracle[first + lane]) / REFERENCE as f64;
            }
        }
        Ok(verified)
    }

    fn round(&mut self, inputs: &Inputs, duration: Duration, traced: bool) -> Round {
        if traced && self.replay.is_none() {
            self.replay = Some(Replay {
                loaded: self
                    .backend
                    .load_matrix(&inputs.csr)
                    .expect("the collection that prepared also loads"),
                scratch: BatchScratch::new(),
            });
        }
        let mut round = Round::default();
        let started = Instant::now();
        while started.elapsed() < duration {
            let i = self.next_op;
            self.next_op += 1;
            let t0 = Instant::now();
            let outcome = self.call(inputs, i);
            let t1 = Instant::now();
            round.calls += 1;
            let mut ok = matches!(&outcome, Ok(answers) if self.answers_ok(i, answers));
            if traced {
                let root = self.tracer.record("client.op", i, None, t0, t1);
                if let (true, Ok(answers)) = (ok && i % REPLAY_EVERY == 0, &outcome) {
                    let r0 = Instant::now();
                    ok = self.replay_op(inputs, i, root, t1 - t0, answers);
                    round.excluded += r0.elapsed();
                }
            }
            if ok {
                round.queries_ok += self.lanes() as u64;
                round.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
            } else {
                round.failed += 1;
            }
        }
        round.elapsed = started.elapsed();
        if traced {
            self.traced.calls += round.calls;
            self.traced.load_time += round.elapsed.saturating_sub(round.excluded);
        }
        round
    }

    fn observed(&mut self, _inputs: &Inputs, probes: &Probes) -> Observed {
        let t = &self.traced;
        let passes_per_s = t.calls as f64 / t.load_time.as_secs_f64().max(f64::MIN_POSITIVE);
        let index_bytes = self.replay.as_ref().map_or(0, |r| r.loaded.size_bytes());
        let stream_gbps = index_bytes as f64 * passes_per_s / 1e9;
        vec![
            (
                "core.engine.fanout_wait_ms",
                1e3 * self.waterfall.layer_s("core.engine.fanout_wait")
                    / self.waterfall.ops.max(1) as f64,
            ),
            (
                "core.engine.fanout_wait_share",
                self.waterfall.share("core.engine.fanout_wait"),
            ),
            ("core.engine.stream_gbps", stream_gbps),
            (
                "core.engine.stream_efficiency",
                stream_gbps / probes.stream_resident_gbps.max(f64::MIN_POSITIVE),
            ),
        ]
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn waterfall(&self) -> &Waterfall {
        &self.waterfall
    }

    fn teardown(&mut self) {
        self.matrix = None;
    }

    fn finish(&mut self, _inputs: &Inputs) -> Result<(u64, u64), String> {
        self.teardown();
        Ok((0, 0))
    }
}

impl Drop for Direct {
    fn drop(&mut self) {
        if let Some(path) = self.snapshot.take() {
            // Best effort: a leftover snapshot in the build directory
            // costs disk, not correctness.
            let _ = std::fs::remove_file(path);
        }
    }
}
