//! Isolated-layer probes: each times one layer's public functions from
//! outside, on the shared collection, with nothing else running. They
//! read the same whichever workload the traced run is for, and give the
//! denominators (stream bandwidth, serial engine time) the observed
//! metrics are set against.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tkspmv::backend::{PreparedMatrix, QueryTier, TopKBackend};
use tkspmv::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity, PrunedBackend,
    TopKResult, TopKTracker,
};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::wire::{encode_frame_into, read_frame, Request, Response, WIRE_VERSION};
use tkspmv_fixed::{PruneBits, Q1_19};
use tkspmv_obs::{Registry, TraceId};
use tkspmv_sparse::{BsCsr, PacketLayout, PruneIndex};

use crate::input::{Inputs, Scale, SplitMix, BATCH, K, SHORTLIST_FACTOR};
use crate::workload::{paper_design, Observed};
use crate::{host, scratch_file, stats, verify};

/// Probe results, plus the few values observed metrics divide by.
pub struct Probes {
    /// `(metric, value)` for every probe metric.
    pub metrics: Observed,
    /// `host.stream_gbps.resident`, the ceiling `stream_efficiency`
    /// is a share of.
    pub stream_resident_gbps: f64,
}

/// Median seconds of `reps` runs of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe over `inputs`.
pub fn run(inputs: &Inputs) -> Result<Probes, String> {
    let mut m: Observed = Vec::new();
    fixed(inputs, &mut m);
    let index_bytes = sparse(inputs, &mut m)?;
    engine(inputs, &mut m)?;
    topk(inputs, &mut m);
    pruned_and_baseline(inputs, &mut m)?;
    wire(inputs, &mut m)?;
    obs(&mut m);

    // host: the stream-sum ceiling at the index's own (cache-resident)
    // size. Its DRAM counterpart is `dram_stream`, run last.
    let resident_bytes = index_bytes.max(1 << 16);
    let stream_resident_gbps = host::stream_gbps(resident_bytes, 50);
    m.push(("host.stream_gbps.resident", stream_resident_gbps));
    m.push((
        "host.stream_resident_mib",
        resident_bytes as f64 / f64::from(1 << 20),
    ));
    Ok(Probes {
        metrics: m,
        stream_resident_gbps,
    })
}

fn fixed(inputs: &Inputs, m: &mut Observed) {
    let queries = &inputs.queries[..64];
    let quantize_s = median_secs(9, || {
        queries
            .iter()
            .map(|x| black_box(quantize_vector::<Q1_19>(black_box(x.as_slice()))).len())
            .sum::<usize>()
    });
    m.push((
        "fixed.quantize_ns_per_elem",
        1e9 * quantize_s / (queries.len() * queries[0].len()) as f64,
    ));
}

/// Layout solve, BS-CSR encode, snapshot save/load and the prune
/// companion. Returns the snapshot's size: the bytes one query streams.
fn sparse(inputs: &Inputs, m: &mut Observed) -> Result<u64, String> {
    let csr = &inputs.csr;
    let nnz = csr.nnz() as f64;
    let layout = PacketLayout::solve(csr.num_cols(), 20).map_err(text)?;
    let solve_s = median_secs(9, || {
        (0..1000)
            .map(|_| black_box(PacketLayout::solve(black_box(csr.num_cols()), 20)).is_ok() as u32)
            .sum::<u32>()
    });
    m.push(("sparse.layout_solve_us", 1e6 * solve_s / 1000.0));
    let mut encoded = None;
    let encode_s = median_secs(5, || encoded = Some(BsCsr::encode::<Q1_19>(csr, layout)));
    m.push(("sparse.encode_ns_per_nnz", 1e9 * encode_s / nnz));
    m.push((
        "sparse.bscsr_bytes_per_nnz",
        encoded.expect("encode ran").size_bytes() as f64 / nnz,
    ));

    let accelerator = paper_design();
    let prepared = accelerator.prepare(csr).map_err(text)?;
    let path = scratch_file("probe.tksnap")?;
    let mut saved = Ok(());
    let save_s = median_secs(3, || saved = prepared.save_to_path(&accelerator, &path));
    saved.map_err(text)?;
    let snapshot_bytes = std::fs::metadata(&path).map_err(text)?.len();
    let mut loaded = None;
    let load_s = median_secs(5, || {
        loaded = Some(PreparedMatrix::load_from_path(&accelerator, &path));
    });
    std::fs::remove_file(&path).map_err(text)?;
    loaded.expect("load ran").map_err(text)?;
    m.push(("sparse.snapshot_save_ms", 1e3 * save_s));
    m.push(("sparse.snapshot_load_ms", 1e3 * load_s));
    m.push(("sparse.snapshot_bytes", snapshot_bytes as f64));

    let mut prune = None;
    let build_s = median_secs(3, || prune = Some(PruneIndex::build(csr, PruneBits::Eight)));
    let prune = prune.expect("build ran").map_err(text)?;
    let pq = prune.quantize_query(inputs.queries[0].as_slice());
    let mut scores = vec![0u64; csr.num_rows()];
    let score_s = median_secs(9, || prune.score_rows(0, &pq, &mut scores));
    m.push(("sparse.prune_build_ms", 1e3 * build_s));
    m.push(("sparse.prune_score_ns_per_nnz", 1e9 * score_s / nnz));
    m.push((
        "sparse.prune_bytes_per_nnz",
        (2 * prune.col_idx().len() + prune.value_bytes() + 4 * prune.row_ptr().len()) as f64 / nnz,
    ));
    Ok(snapshot_bytes)
}

/// Every partition through the batch engine on one thread with a warm
/// scratch, at B = 1 and B = 32: with T(B) = decode + B·replay, the two
/// passes separate decode from replay. Then the work counts every
/// answer's statistics carry.
fn engine(inputs: &Inputs, m: &mut Observed) -> Result<(), String> {
    let nnz = inputs.csr.nnz() as f64;
    let accelerator = paper_design();
    let loaded = accelerator.load_matrix(&inputs.csr).map_err(text)?;
    let fidelity = Fidelity::Faithful {
        rows_per_packet: loaded.design.r,
    };
    let k = accelerator.config().k;
    let xs: Vec<Vec<Q1_19>> = inputs.queries[..BATCH]
        .iter()
        .map(|x| quantize_vector::<Q1_19>(x.as_slice()))
        .collect();
    let mut scratch = BatchScratch::<Q1_19>::new();
    let mut serial = |lanes: &[Vec<Q1_19>], reps: usize| {
        median_secs(reps, || {
            loaded
                .partitions
                .iter()
                .map(|(_, part)| {
                    run_core_batch_with_scratch(part, lanes, k, fidelity, &mut scratch).len()
                })
                .sum::<usize>()
        })
    };
    serial(&xs, 1); // sizes the scratch for the largest batch
    let t1 = 1e9 * serial(&xs[..1], 15) / nnz;
    let t32 = 1e9 * serial(&xs, 7) / nnz;
    let replay = (t32 - t1) / 31.0;
    let decode = t1 - replay;
    m.push(("core.engine.serial_b1_ns_per_nnz", t1));
    m.push(("core.engine.serial_b32_ns_per_nnz_lane", t32 / 32.0));
    m.push(("core.engine.decode_ns_per_nnz", decode));
    m.push(("core.engine.replay_ns_per_nnz_lane", replay));
    m.push(("core.engine.decode_share_b1", decode / t1));
    m.push(("core.engine.decode_share_b32", decode / t32));
    drop(loaded);

    let prepared = accelerator.prepare(&inputs.csr).map_err(text)?;
    let sample = &inputs.queries[..8];
    let (mut packets, mut entries, mut finished, mut dropped, mut accepted, mut skew) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for x in sample {
        let result = TopKBackend::query(&accelerator, &prepared, x, K).map_err(text)?;
        let cores = result.stats.core_stats().unwrap_or(&[]);
        let per_core: Vec<f64> = cores.iter().map(|c| c.packets as f64).collect();
        packets += per_core.iter().sum::<f64>();
        entries += cores.iter().map(|c| c.entries as f64).sum::<f64>();
        finished += cores.iter().map(|c| c.rows_finished as f64).sum::<f64>();
        dropped += cores.iter().map(|c| c.rows_dropped as f64).sum::<f64>();
        accepted += cores.iter().map(|c| c.topk_accepted as f64).sum::<f64>();
        skew += per_core.iter().copied().fold(0.0, f64::max) / stats::mean(&per_core).max(1.0);
    }
    let n = sample.len() as f64;
    m.push(("core.engine.packets_per_query", packets / n));
    m.push(("core.engine.entries_per_query", entries / n));
    m.push((
        "core.engine.rows_dropped_share",
        dropped / f64::max(finished + dropped, 1.0),
    ));
    m.push((
        "core.engine.tracker_accept_rate",
        accepted / finished.max(1.0),
    ));
    m.push(("core.engine.partition_skew", skew / n));
    Ok(())
}

/// A k = 8 tracker fed the way a partition feeds it (one reset per
/// ~3 000 offered rows, so accepts and rejects mix), and the
/// cross-partition merge at its real shape (32 × 8 → 100).
fn topk(inputs: &Inputs, m: &mut Observed) {
    let mut rng = SplitMix::new(inputs.seed, 0x70b0);
    let stream: Vec<u64> = (0..1 << 20).map(|_| rng.next_u64() >> 20).collect();
    let mut tracker = TopKTracker::<u64>::new(8);
    let insert_s = median_secs(9, || {
        let mut kept = 0u32;
        for chunk in stream.chunks(3125) {
            tracker.reset(8);
            for (i, &v) in chunk.iter().enumerate() {
                kept += tracker.insert(i as u32, v) as u32;
            }
        }
        kept
    });
    m.push(("core.topk.insert_ns", 1e9 * insert_s / stream.len() as f64));
    let pairs: Vec<(u32, f64)> = (0..256u32).map(|i| (i, rng.next_f64())).collect();
    let merge_s = median_secs(9, || {
        (0..1000)
            .map(|_| TopKResult::merge_pairs(black_box(&pairs).iter().copied(), K).len())
            .sum::<usize>()
    });
    m.push(("core.topk.merge_us", 1e6 * merge_s / 1000.0));
}

/// `CpuTopK(1)` and the staged pipeline over it, on one of `routed_rw`'s
/// two shards. The prune pass runs on one thread here, so that `query −
/// prune pass` is the rescore.
fn pruned_and_baseline(inputs: &Inputs, m: &mut Observed) -> Result<(), String> {
    let (_, shard) = inputs.csr.partition_rows(2).swap_remove(0);
    let cpu: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
    let cpu_matrix = cpu.prepare(&shard).map_err(text)?;
    let staged = PrunedBackend::new(Arc::clone(&cpu), PruneBits::Eight, SHORTLIST_FACTOR)
        .and_then(|b| b.with_threads(1))
        .map_err(text)?;
    let staged_matrix = staged.prepare(&shard).map_err(text)?;
    let (mut cpu_ms, mut staged_ms, mut recall) = (Vec::new(), Vec::new(), 0.0);
    let sample = &inputs.queries[..16];
    for x in sample {
        let t0 = Instant::now();
        let exact = cpu.query(&cpu_matrix, x, K).map_err(text)?;
        cpu_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let pruned = staged.query(&staged_matrix, x, K).map_err(text)?;
        staged_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        recall +=
            verify::recall(pruned.topk.entries(), &exact.topk.indices()) / sample.len() as f64;
    }
    let cpu_query_ms = stats::median(&cpu_ms).unwrap_or(0.0);
    let staged_query_ms = stats::median(&staged_ms).unwrap_or(0.0);
    let prune = PruneIndex::build(&shard, PruneBits::Eight).map_err(text)?;
    let pq = prune.quantize_query(sample[0].as_slice());
    let mut scores = vec![0u64; shard.num_rows()];
    let prune_pass_ms = 1e3 * median_secs(9, || prune.score_rows(0, &pq, &mut scores));
    m.push(("core.pruned.query_ms", staged_query_ms));
    m.push((
        "core.pruned.rescore_ms",
        (staged_query_ms - prune_pass_ms).max(0.0),
    ));
    m.push(("core.pruned.recall_at_k", recall));
    m.push((
        "core.pruned.speedup_vs_exact",
        cpu_query_ms / staged_query_ms.max(f64::MIN_POSITIVE),
    ));
    m.push(("baselines.cpu.query_ms", cpu_query_ms));
    m.push((
        "baselines.cpu.ns_per_nnz",
        1e6 * cpu_query_ms / shard.nnz() as f64,
    ));
    Ok(())
}

/// One query's request and answer through the codec, in memory: encode,
/// frame, read the frame back, decode.
fn wire(inputs: &Inputs, m: &mut Observed) -> Result<(), String> {
    let request = Request::Query {
        x: inputs.queries[0].as_slice().to_vec(),
        k: K as u32,
        tier: QueryTier::Exact,
        trace: TraceId::ZERO,
    };
    let response = Response::TopK {
        entries: (0..K as u32).map(|i| (i, f64::from(i) * 0.001)).collect(),
        trace: None,
    };
    let (mut req_frame, mut resp_frame) = (Vec::new(), Vec::new());
    let mut intact = true;
    let wire_s = median_secs(9, || {
        for _ in 0..100 {
            let (kind, body) = request.encode();
            encode_frame_into(&mut req_frame, WIRE_VERSION, kind, &body);
            let back = read_frame(&mut req_frame.as_slice()).and_then(|f| Request::decode(&f));
            let (kind, body) = response.encode();
            encode_frame_into(&mut resp_frame, WIRE_VERSION, kind, &body);
            let answer = read_frame(&mut resp_frame.as_slice()).and_then(|f| Response::decode(&f));
            intact &= back.is_ok_and(|r| r == request) && answer.is_ok_and(|r| r == response);
        }
    });
    if !intact {
        return Err("wire probe: a frame did not survive its own round trip".to_string());
    }
    m.push(("fabric.wire.query_roundtrip_us", 1e6 * wire_s / 100.0));
    m.push((
        "fabric.wire.bytes_per_query",
        (req_frame.len() + resp_frame.len()) as f64,
    ));
    Ok(())
}

/// One counter increment plus one histogram record.
fn obs(m: &mut Observed) {
    let registry = Registry::new();
    let counter = registry.counter("bench_probe_total", "Probe counter.");
    let histogram = registry.histogram("bench_probe_us", "Probe histogram.");
    let record_s = median_secs(9, || {
        for i in 0..1_000_000u64 {
            counter.inc();
            histogram.record_us(black_box(i & 0xffff));
        }
    });
    m.push(("obs.record_ns", 1e9 * record_s / 1e6));
}

/// The DRAM stream-sum ceiling. Apart from the others because its
/// buffer dwarfs everything the program allocates: the runner reads the
/// process's peak RSS first and runs this after the measured rounds.
pub fn dram_stream(scale: Scale) -> Observed {
    let bytes = match scale {
        Scale::Full => host::dram_buffer_bytes(),
        Scale::Quick => host::dram_buffer_bytes().min(64 << 20),
    };
    vec![
        ("host.stream_gbps.dram", host::stream_gbps(bytes, 3)),
        ("host.stream_dram_mib", bytes as f64 / f64::from(1 << 20)),
    ]
}
