//! Single-core emulation of the 4-stage dataflow pipeline (Algorithm 1).

use std::time::Instant;

use tkspmv_fixed::SpmvScalar;
use tkspmv_sparse::{BsCsr, PacketLayout};

use crate::stages::StageTimes;
use crate::topk::TopKTracker;

/// How faithfully the emulator mirrors the RTL's resource-saving
/// shortcuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Mirror the hardware exactly: at most `rows_per_packet` (`r`) rows
    /// finishing in a single packet are offered to the Top-K stage;
    /// later finishers in the same packet are dropped (§IV-B motivates
    /// `B/4 < r < B/2` as accuracy-neutral).
    Faithful {
        /// `r`: row-completion slots per packet.
        rows_per_packet: u32,
    },
    /// No `r` limit: every finished row reaches the Top-K stage. Used as
    /// the reference for the `r` ablation.
    Reference,
}

/// Statistics gathered while a core processes its packet stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Packets consumed (one per cycle in steady state).
    pub packets: u64,
    /// Entries processed, including empty-row placeholders.
    pub entries: u64,
    /// Rows completed and offered to the Top-K stage.
    pub rows_finished: u64,
    /// Rows dropped by the `r` limit (only in [`Fidelity::Faithful`]).
    pub rows_dropped: u64,
    /// Candidates accepted into the scratchpad.
    pub topk_accepted: u64,
}

/// Result of one core run: the per-partition top-k plus statistics.
#[derive(Debug, Clone)]
pub struct CoreOutput<A> {
    /// `(local_row, accumulator)` pairs sorted by value descending.
    pub topk: Vec<(u32, A)>,
    /// Execution statistics.
    pub stats: CoreStats,
}

/// One query's resident state inside a [`BatchScratch`]: its Top-K
/// scratchpad plus the partial sum of the row left open by the previous
/// packet.
#[derive(Debug, Clone)]
struct QueryLane<S: SpmvScalar> {
    tracker: TopKTracker<S::Acc>,
    carry: S::Acc,
}

/// One row segment of the current chunk, precomputed **once** per
/// chunk of packets and replayed by every query lane: entry range,
/// destination row, whether the segment starts from the previous
/// chunk's carry, and whether the finished row is offered to the Top-K
/// stage (the `r`-limit gate). All of it is a property of the matrix
/// and the fidelity, never of the query.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u32,
    end: u32,
    row: u32,
    use_carry: bool,
    offer: bool,
}

/// Packets decoded per chunk before the lane sweep. Large enough to
/// amortise the per-lane loop entry/exit over many packets (and to
/// merge most cross-packet row segments), small enough that the flat
/// `dvals`/`cidx` chunk — `CHUNK_PACKETS · B` entries, 7.5 KiB at the
/// paper's B = 15 — stays inside L1 alongside a query vector.
const CHUNK_PACKETS: usize = 64;

/// Reusable working memory for [`run_core_batch_with_scratch`]: the
/// current chunk's flat value/index arrays and segment program, and one
/// resident lane (Top-K tracker + carry) per query in the batch.
///
/// Allocate one per participant (see [`crate::fanout::fork_join`]) and
/// stream every partition and batch it walks through it.
/// The chunk buffers are sized **once per call** to `CHUNK_PACKETS · B`
/// (a no-op when the previous call used the same layout) and the packet
/// loop writes into them by position, so a call allocates a number of
/// times that depends on neither the packet count nor — once lanes and
/// outputs have grown to the largest batch seen — the batch size; on a
/// warm scratch that number is zero (both asserted by the `zero_alloc`
/// integration test). That is what lets the software model be
/// bandwidth- rather than allocator-bound.
#[derive(Debug, Clone)]
pub struct BatchScratch<S: SpmvScalar> {
    /// One packet's `B` raw `ptr` slots (0 = unused), rewritten per
    /// packet.
    ends: Vec<u32>,
    /// The current chunk's values decoded into the scalar domain —
    /// sliced straight out of the packet words, once per chunk, shared
    /// by every query lane. `CHUNK_PACKETS · B` long; a ragged last
    /// packet leaves padding past the real entry count, which replay
    /// never sees (its slices are cut at that count).
    dvals: Vec<S>,
    /// The current chunk's column indices, laid out like `dvals`.
    cidx: Vec<u32>,
    /// The current chunk's segment program — computed once, replayed by
    /// every query lane. Rows spanning packets inside the chunk appear
    /// as one merged segment (the running-sum order is unchanged).
    segs: Vec<Segment>,
    /// Per-query resident state; `lanes[..B]` are active, the rest keep
    /// their warm capacity for a later, larger batch.
    lanes: Vec<QueryLane<S>>,
    /// Per-query outputs, reusing each lane's sorted-topk buffer across
    /// batches.
    outputs: Vec<CoreOutput<S::Acc>>,
    /// Decode/score split of the latest batch (see
    /// [`BatchScratch::stage_times`]).
    stage_times: StageTimes,
}

impl<S: SpmvScalar> BatchScratch<S> {
    /// Creates an empty scratch; the first batch sizes its buffers.
    // alloc-ok(fn): cold constructor — the empty vecs here are the
    // buffers whose reuse makes the batch loop allocation-free.
    pub fn new() -> Self {
        Self {
            ends: Vec::new(),
            dvals: Vec::new(),
            cidx: Vec::new(),
            segs: Vec::new(),
            lanes: Vec::new(),
            outputs: Vec::new(),
            stage_times: StageTimes::default(),
        }
    }

    /// Where the latest [`run_core_batch_with_scratch`] call through
    /// this scratch spent its time: chunk decode vs. lane replay
    /// (`prune`/`rescore` stay zero). Kept beside [`CoreStats`] rather
    /// than in it because wall time is not a reproducible fact of the
    /// stream.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }
}

impl<S: SpmvScalar> Default for BatchScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one core over a BS-CSR partition for a whole batch of queries
/// in a single **matrix-major** pass: each chunk of packets is sliced
/// into flat value/index arrays **once** and its entries are
/// accumulated into all B query lanes before the stream advances,
/// instead of replaying the decode once per query. This is the engine's
/// one entry point; a single query is a one-lane batch.
///
/// Per lane it follows Algorithm 1 stage by stage:
///
/// 1. **Scatter**: for each of the packet's `B` entries, read `x[idx]`
///    from (emulated) URAM and form the point-wise product;
/// 2. **Aggregation**: sum products belonging to the same row, using the
///    packet-local `ptr` row ends;
/// 3. **Summary**: stitch rows that span packet boundaries via the
///    `new_row` bit and the carried partial sum;
/// 4. **Top-K update**: offer every row finished in this packet (at most
///    `r` in faithful mode) to the argmin scratchpad.
///
/// Queries must already be quantised to `S` (the URAM upload step); use
/// [`quantize_vector`].
///
/// The queries stay resident in the [`BatchScratch`] (one Top-K tracker
/// and carry register per lane — the software picture of B query
/// vectors resident in URAM while the BS-CSR stream flows past), so the
/// per-packet field extraction and value decode are paid once and
/// amortised over the batch.
///
/// **What is constant.** The hardware slices a packet at one per clock
/// because its layout is fixed in the bitstream (§IV-B/C). The software
/// form of that: when the stream's layout equals the paper's design
/// layout for this scalar ([`PacketLayout::paper`], `M = 1024`), the
/// one loop body below is entered with that layout as a *compile-time
/// constant*, so `B`, every field offset, shift and mask are immediates
/// and the per-packet extract loops unroll completely. Any other layout
/// enters the same body with the run-time value. Nothing else differs
/// between the two instantiations — the packet words, the query, the
/// segment program, the arithmetic and its order are the same — so
/// results are bit-identical whichever runs (pinned by a unit test over
/// all five Table-II scalars).
///
/// Results are **bit-identical** to running each query alone: per lane,
/// the sequence of multiply/accumulate operations and Top-K offers is
/// exactly the packet-arrival order the single-query loop produces —
/// the segment structure, carry stitching, and `r`-limit gating depend
/// only on the matrix, not on the other queries in the batch.
///
/// The returned slice borrows the scratch and holds one
/// [`CoreOutput`] per query, in input order. [`CoreStats`] are
/// per-query: every field except `topk_accepted` is query-independent
/// and therefore identical across the batch.
///
/// # Panics
///
/// Panics if any query is shorter than the matrix's column count or if
/// `k == 0` (for a non-empty batch). A stream that was never
/// [validated](BsCsr::validate) and whose `ptr` slots point past a
/// packet's real entries panics on a slice bound rather than read
/// padding.
pub fn run_core_batch_with_scratch<'s, S: SpmvScalar, Q: AsRef<[S]>>(
    matrix: &BsCsr,
    queries: &[Q],
    k: usize,
    fidelity: Fidelity,
    scratch: &'s mut BatchScratch<S>,
) -> &'s [CoreOutput<S::Acc>] {
    let design = const { PacketLayout::paper(S::VALUE_BITS) };
    if matrix.layout() == design {
        run_with_layout(matrix, design, queries, k, fidelity, scratch)
    } else {
        run_with_layout(matrix, matrix.layout(), queries, k, fidelity, scratch)
    }
}

/// The engine's one loop body. `layout` is `matrix.layout()`, passed by
/// value so that the design-layout call site above can hand it over as
/// a constant (hence `inline(always)`: the constant must reach the
/// extract loops).
#[inline(always)]
fn run_with_layout<'s, S: SpmvScalar, Q: AsRef<[S]>>(
    matrix: &BsCsr,
    layout: PacketLayout,
    queries: &[Q],
    k: usize,
    fidelity: Fidelity,
    scratch: &'s mut BatchScratch<S>,
) -> &'s [CoreOutput<S::Acc>] {
    debug_assert_eq!(layout, matrix.layout());
    let b = queries.len();
    scratch.stage_times = StageTimes::default();
    if b == 0 {
        return &[];
    }
    for q in queries {
        assert!(
            q.as_ref().len() >= matrix.num_cols(),
            "query vector has {} entries, matrix needs {}",
            q.as_ref().len(),
            matrix.num_cols()
        );
    }

    // Activate the first `b` lanes, reusing warm slab capacity; lanes
    // beyond `b` are left untouched so a later, larger batch finds them
    // warm again.
    for lane in scratch.lanes.iter_mut().take(b) {
        lane.tracker.reset(k);
        lane.carry = S::acc_zero();
    }
    while scratch.lanes.len() < b {
        scratch.lanes.push(QueryLane {
            tracker: TopKTracker::new(k),
            carry: S::acc_zero(),
        });
    }

    // Query-independent stream state: stats, the row cursor, and whether
    // the previous packet left a row open (each lane holds its own carry
    // *value*, but the carry *structure* is a property of the matrix).
    let mut shared = CoreStats::default();
    let mut carry_active = false;
    let mut current_row: u32 = 0;
    let r_limit = match fidelity {
        Fidelity::Faithful { rows_per_packet } => rows_per_packet,
        Fidelity::Reference => u32::MAX,
    };

    // Stage clock: two reads per chunk — the end of one chunk's score
    // phase is the start of the next chunk's decode phase.
    let mut mark = Instant::now();

    // alloc-ok: the chunk buffers are sized here, once per call (a no-op
    // when the scratch last saw the same layout); the packet loop
    // writes into them by position and `segs` cannot outgrow one row
    // end per entry, so nothing below grows with the packet count.
    let per_packet = layout.entries_per_packet() as usize;
    scratch.ends.resize(per_packet, 0);
    scratch.cidx.resize(CHUNK_PACKETS * per_packet, 0);
    scratch
        .dvals
        .resize(CHUNK_PACKETS * per_packet, S::decode(0));
    scratch.segs.clear();
    scratch.segs.reserve(CHUNK_PACKETS * per_packet);

    let packets = matrix.packets();
    let mut p = 0usize;
    while p < packets.len() {
        let chunk_end = (p + CHUNK_PACKETS).min(packets.len());

        // Stages 1a+2+3 structure, once per chunk: slice the chunk's
        // packets into the flat `dvals`/`cidx` arrays and build its
        // segment program (entry ranges, destination rows, carry
        // stitching, `r` gate). The per-lane loop below only pays the
        // query-dependent gather-multiply-accumulate. A row spanning
        // packets *inside* the chunk becomes one merged segment: the
        // sequential path's carry is just the running sum at the packet
        // boundary, so the merged accumulation performs the identical
        // operation sequence.
        scratch.segs.clear();
        let mut base = 0u32; // chunk-relative entry offset of the packet
        let mut seg_open_start = 0u32; // where the next segment begins
        let mut seg_open_carry = carry_active; // continues pre-chunk row?
        let slots = scratch
            .cidx
            .chunks_exact_mut(per_packet)
            .zip(scratch.dvals.chunks_exact_mut(per_packet));
        for (pk, (idx_out, val_out)) in (p..chunk_end).zip(slots) {
            // All `B` slots are sliced; only the stream's last packet
            // can hold fewer real entries, and its padding lands past
            // `base`, beyond what replay is shown.
            let new_row =
                packets[pk].decode_fields(layout, &mut scratch.ends, idx_out, val_out, S::decode);
            let len = matrix.entries_in_packet(pk) as u32;
            shared.packets += 1;
            shared.entries += len as u64;
            debug_assert_eq!(
                new_row,
                !(seg_open_start < base || seg_open_carry),
                "encoder new_row bit consistent with carry state"
            );
            // Non-zero `ptr` slots are the rows ending in this packet.
            let mut ends_in_packet = 0u32;
            for &end in scratch.ends.iter().filter(|&&end| end != 0) {
                scratch.segs.push(Segment {
                    start: seg_open_start,
                    end: base + end,
                    row: current_row + ends_in_packet,
                    use_carry: seg_open_carry,
                    offer: ends_in_packet < r_limit,
                });
                seg_open_start = base + end;
                seg_open_carry = false;
                ends_in_packet += 1;
            }
            let finished = ends_in_packet.min(r_limit);
            shared.rows_finished += finished as u64;
            shared.rows_dropped += (ends_in_packet - finished) as u64;
            current_row += ends_in_packet;
            base += len;
        }
        // Entries after the chunk's last row end carry into the next
        // chunk via each lane's carry register.
        let tail = if seg_open_start < base || seg_open_carry {
            Some((seg_open_start as usize, seg_open_carry))
        } else {
            None
        };
        carry_active = tail.is_some();
        let decoded = Instant::now();

        let dvals = &scratch.dvals[..base as usize];
        let idx = &scratch.cidx[..base as usize];
        let segs = &scratch.segs;

        // Stages 1b+2+3+4 per lane: fused gather-multiply-accumulate
        // replaying the shared segment program, then the Top-K offer.
        // Per query the multiply/accumulate order is exactly the
        // sequential path's packet-arrival order, so sums (including
        // fixed-point saturation) are bit-identical.
        //
        // When the column count is a power of two — the paper's M = 1024
        // operating point, and the only case where every encodable `idx`
        // is automatically in range — the gather masks the index instead
        // of bounds-checking it: identical reads for every valid stream,
        // no panic path in the inner loop. Other widths keep the checked
        // gather.
        if let Some(col_mask) = pow2_col_mask(matrix.num_cols()) {
            for (lane, q) in scratch.lanes[..b].iter_mut().zip(queries) {
                let x = &q.as_ref()[..matrix.num_cols()];
                lane_pass::<S>(lane, x, dvals, idx, segs, tail, |x, i| {
                    x[i as usize & col_mask]
                });
            }
        } else {
            for (lane, q) in scratch.lanes[..b].iter_mut().zip(queries) {
                let x = q.as_ref();
                lane_pass::<S>(lane, x, dvals, idx, segs, tail, |x, i| x[i as usize]);
            }
        }
        let scored = Instant::now();
        scratch.stage_times.decode += decoded - mark;
        scratch.stage_times.score += scored - decoded;
        mark = scored;

        p = chunk_end;
    }
    debug_assert!(!carry_active, "no row may remain open at end of stream");

    // The encoder terminates every row inside some packet, so no carry
    // can survive the stream.
    debug_assert_eq!(
        current_row as usize,
        matrix.num_rows(),
        "all rows must finish by end of stream"
    );

    while scratch.outputs.len() < b {
        scratch.outputs.push(CoreOutput {
            // alloc-ok: grows only when this batch is wider than any
            // before; Vec::new itself is allocation-free, and steady
            // state reuses the slots.
            topk: Vec::new(),
            stats: CoreStats::default(),
        });
    }
    for (lane, out) in scratch.lanes[..b].iter().zip(&mut scratch.outputs[..b]) {
        lane.tracker.write_sorted_into(&mut out.topk);
        out.stats = CoreStats {
            topk_accepted: lane.tracker.accepted(),
            ..shared
        };
    }
    // The Top-K drain above belongs to stage 4.
    scratch.stage_times.score += mark.elapsed();
    &scratch.outputs[..b]
}

/// `num_cols - 1` when the column count is a power of two (so masking an
/// in-range index is the identity), else `None`.
#[inline(always)]
fn pow2_col_mask(num_cols: usize) -> Option<usize> {
    (num_cols.is_power_of_two()).then(|| num_cols - 1)
}

/// Replays the shared segment program of one packet for one query lane:
/// fused gather-multiply-accumulate per segment, Top-K offer for rows
/// the `r` gate admits, carry update from the tail.
///
/// `gather` is the `x[idx]` read, parameterised so the power-of-two
/// column case monomorphises to a masked (panic-free) load while the
/// general case keeps the bounds check.
#[inline(always)]
fn lane_pass<S: SpmvScalar>(
    lane: &mut QueryLane<S>,
    x: &[S],
    dvals: &[S],
    idx: &[u32],
    segs: &[Segment],
    tail: Option<(usize, bool)>,
    gather: impl Fn(&[S], u32) -> S,
) {
    for seg in segs {
        let mut acc = if seg.use_carry {
            lane.carry
        } else {
            S::acc_zero()
        };
        for (&d, &i) in dvals[seg.start as usize..seg.end as usize]
            .iter()
            .zip(&idx[seg.start as usize..seg.end as usize])
        {
            acc = S::acc_add(acc, S::mul(d, gather(x, i)));
        }
        if seg.offer {
            lane.tracker.insert(seg.row, acc);
        }
    }
    lane.carry = match tail {
        Some((start, use_carry)) => {
            let mut acc = if use_carry { lane.carry } else { S::acc_zero() };
            for (&d, &i) in dvals[start..].iter().zip(&idx[start..]) {
                acc = S::acc_add(acc, S::mul(d, gather(x, i)));
            }
            acc
        }
        None => S::acc_zero(),
    };
}

/// Quantises a dense query vector into the scalar domain `S` — the URAM
/// upload step performed by the host before launching the kernel.
// alloc-ok(fn): per-query host-side upload step, one vector per query;
// the per-packet loop never calls this.
pub fn quantize_vector<S: SpmvScalar>(x: &[f32]) -> Vec<S> {
    x.iter().map(|&v| S::decode(S::encode(v as f64))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use tkspmv_fixed::{Half, F32, Q1_19, Q1_24, Q1_31};
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
    use tkspmv_sparse::Csr;

    fn encode20(csr: &Csr) -> BsCsr {
        BsCsr::encode::<Q1_19>(csr, PacketLayout::solve(csr.num_cols(), 20).unwrap())
    }

    fn ones(m: usize) -> Vec<Q1_19> {
        quantize_vector::<Q1_19>(&vec![1.0f32; m])
    }

    /// One query through a fresh scratch: a one-lane batch.
    fn run_one<S: SpmvScalar>(
        matrix: &BsCsr,
        x: &[S],
        k: usize,
        fidelity: Fidelity,
    ) -> CoreOutput<S::Acc> {
        run_core_batch_with_scratch(matrix, &[x], k, fidelity, &mut BatchScratch::new())[0].clone()
    }

    #[test]
    fn single_packet_topk_matches_row_sums() {
        let csr = Csr::from_triplets(
            3,
            8,
            &[(0, 1, 0.5), (0, 3, 0.25), (1, 0, 0.125), (2, 2, 0.9)],
        )
        .unwrap();
        let bs = encode20(&csr);
        let out = run_one::<Q1_19>(&bs, &ones(8), 2, Fidelity::Reference);
        let rows: Vec<u32> = out.topk.iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, vec![2, 0]); // 0.9 > 0.75 > 0.125
        assert_eq!(out.stats.rows_finished, 3);
        assert_eq!(out.stats.packets, 1);
    }

    #[test]
    fn rows_spanning_packets_accumulate_carry() {
        // One row of 40 equal entries: value must be 40 * 0.02 = 0.8
        // regardless of how packets split it (B = 15 -> 3 packets).
        let triplets: Vec<(u32, u32, f32)> = (0..40).map(|c| (0, c, 0.02)).collect();
        let csr = Csr::from_triplets(1, 1024, &triplets).unwrap();
        let bs = encode20(&csr);
        assert_eq!(bs.num_packets(), 3);
        let out = run_one::<Q1_19>(&bs, &ones(1024), 1, Fidelity::Reference);
        assert_eq!(out.topk.len(), 1);
        let v = Q1_19::acc_to_f64(out.topk[0].1);
        assert!((v - 0.8).abs() < 1e-4, "row sum {v}");
    }

    #[test]
    fn matches_exact_spmv_within_quantisation() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 200,
            num_cols: 256,
            avg_nnz_per_row: 12,
            distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
            seed: 42,
        }
        .generate();
        let x = tkspmv_sparse::gen::query_vector(256, 7);
        let exact = csr.spmv_exact(x.as_slice());
        let bs = BsCsr::encode::<Q1_31>(&csr, PacketLayout::solve(256, 32).unwrap());
        let xs = quantize_vector::<Q1_31>(x.as_slice());
        let out = run_one::<Q1_31>(&bs, &xs, 200, Fidelity::Reference);
        assert_eq!(out.topk.len(), 200);
        for &(row, acc) in &out.topk {
            let got = Q1_31::acc_to_f64(acc);
            let want = exact[row as usize];
            assert!((got - want).abs() < 1e-5, "row {row}: {got} vs {want}");
        }
    }

    #[test]
    fn f32_core_matches_f32_reference() {
        let csr = Csr::from_triplets(2, 4, &[(0, 0, 0.1), (0, 1, 0.2), (1, 2, 0.3), (1, 3, 0.4)])
            .unwrap();
        let layout = PacketLayout::solve(4, 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        let x = [0.5f32, 0.5, 0.5, 0.5];
        let xs = quantize_vector::<F32>(&x);
        let out = run_one::<F32>(&bs, &xs, 2, Fidelity::Reference);
        // f32 arithmetic, exact per-step.
        let want0 = 0.1f32 * 0.5 + 0.2 * 0.5;
        let want1 = 0.3f32 * 0.5 + 0.4 * 0.5;
        let got: std::collections::HashMap<u32, f64> = out
            .topk
            .iter()
            .map(|&(r, a)| (r, F32::acc_to_f64(a)))
            .collect();
        assert_eq!(got[&0], want0 as f64);
        assert_eq!(got[&1], want1 as f64);
    }

    #[test]
    fn empty_rows_contribute_zero() {
        let csr = Csr::from_triplets(5, 8, &[(0, 0, 0.5), (4, 7, 0.75)]).unwrap();
        let bs = encode20(&csr);
        let out = run_one::<Q1_19>(&bs, &ones(8), 5, Fidelity::Reference);
        assert_eq!(out.stats.rows_finished, 5);
        let best: Vec<u32> = out.topk.iter().map(|&(r, _)| r).collect();
        assert_eq!(best[0], 4);
        assert_eq!(best[1], 0);
        // Placeholder rows have accumulator zero.
        assert_eq!(Q1_19::acc_to_f64(out.topk[2].1), 0.0);
    }

    #[test]
    fn faithful_r_limit_drops_excess_rows() {
        // 15 single-entry rows finish in one packet; r = 4 keeps only the
        // first 4 finishers.
        let triplets: Vec<(u32, u32, f32)> =
            (0..15).map(|r| (r, r, 0.1 + 0.01 * r as f32)).collect();
        let csr = Csr::from_triplets(15, 1024, &triplets).unwrap();
        let bs = encode20(&csr);
        let out = run_one::<Q1_19>(
            &bs,
            &ones(1024),
            8,
            Fidelity::Faithful { rows_per_packet: 4 },
        );
        assert_eq!(out.stats.rows_finished, 4);
        assert_eq!(out.stats.rows_dropped, 11);
        // Only rows 0..4 were considered.
        assert!(out.topk.iter().all(|&(r, _)| r < 4));
    }

    #[test]
    fn faithful_with_generous_r_equals_reference() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 500,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: tkspmv_sparse::gen::NnzDistribution::table3_gamma(),
            seed: 3,
        }
        .generate();
        let bs = encode20(&csr);
        let x = quantize_vector::<Q1_19>(tkspmv_sparse::gen::query_vector(512, 1).as_slice());
        let faithful = run_one::<Q1_19>(
            &bs,
            &x,
            8,
            Fidelity::Faithful {
                rows_per_packet: 15,
            },
        );
        let reference = run_one::<Q1_19>(&bs, &x, 8, Fidelity::Reference);
        assert_eq!(faithful.topk, reference.topk);
        assert_eq!(faithful.stats.rows_dropped, 0);
    }

    #[test]
    fn stats_count_packets_and_entries() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 100,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
            seed: 9,
        }
        .generate();
        let bs = encode20(&csr);
        let out = run_one::<Q1_19>(&bs, &ones(512), 8, Fidelity::Reference);
        assert_eq!(out.stats.packets, bs.num_packets() as u64);
        assert_eq!(out.stats.entries, bs.stored_entries());
        assert_eq!(out.stats.rows_finished, 100);
    }

    #[test]
    fn stage_clock_covers_the_latest_batch_only() {
        let csr = tkspmv_sparse::gen::SyntheticConfig {
            num_rows: 2_000,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
            seed: 9,
        }
        .generate();
        let bs = encode20(&csr);
        let mut scratch = BatchScratch::<Q1_19>::new();
        assert_eq!(scratch.stage_times(), StageTimes::default());
        let started = Instant::now();
        run_core_batch_with_scratch(&bs, &[ones(512)], 8, Fidelity::Reference, &mut scratch);
        let wall = started.elapsed();
        let stages = scratch.stage_times();
        assert!(
            !stages.decode.is_zero() && !stages.score.is_zero(),
            "{stages:?}"
        );
        assert!(
            stages.prune.is_zero() && stages.rescore.is_zero(),
            "{stages:?}"
        );
        assert!(stages.total() <= wall, "{stages:?} inside {wall:?}");
        // An empty batch streams nothing and reports nothing.
        let none: [Vec<Q1_19>; 0] = [];
        run_core_batch_with_scratch(&bs, &none, 8, Fidelity::Reference, &mut scratch);
        assert_eq!(scratch.stage_times(), StageTimes::default());
    }

    /// What one run reports per lane: the Top-K list and every
    /// [`CoreStats`] field (`topk_accepted` is the lane's accept count).
    type Lanes<S> = Vec<(Vec<(u32, <S as SpmvScalar>::Acc)>, CoreStats)>;

    /// One batch through the private body with an explicit layout.
    fn run_layout<S: SpmvScalar>(
        matrix: &BsCsr,
        layout: PacketLayout,
        queries: &[Vec<S>],
        fidelity: Fidelity,
    ) -> Lanes<S> {
        run_with_layout(
            matrix,
            layout,
            queries,
            8,
            fidelity,
            &mut BatchScratch::new(),
        )
        .iter()
        .map(|out| (out.topk.clone(), out.stats))
        .collect()
    }

    /// Both instantiations of the body — the design layout as a
    /// constant, and the same layout handed over opaquely — and the
    /// public dispatch, over both fidelities and B in {1, 5}.
    fn both_instantiations<S: SpmvScalar>(matrix: &BsCsr) -> Vec<Lanes<S>> {
        // Pins the dispatch constant to the M = 1024 solution the
        // streams were encoded with.
        let design = const { PacketLayout::paper(S::VALUE_BITS) };
        assert_eq!(matrix.layout(), design, "stream is on the design layout");
        let queries: Vec<Vec<S>> = (0..5)
            .map(|seed| quantize_vector::<S>(query_vector(matrix.num_cols(), seed).as_slice()))
            .collect();
        let mut runs = Vec::new();
        for fidelity in [
            Fidelity::Faithful { rows_per_packet: 2 },
            Fidelity::Reference,
        ] {
            for b in [1, 5] {
                let constant = run_layout(matrix, design, &queries[..b], fidelity);
                let runtime =
                    run_layout(matrix, black_box(matrix.layout()), &queries[..b], fidelity);
                assert_eq!(constant, runtime, "{fidelity:?} B={b}");
                let mut scratch = BatchScratch::new();
                let dispatched =
                    run_core_batch_with_scratch(matrix, &queries[..b], 8, fidelity, &mut scratch);
                for (lane, out) in constant.iter().zip(dispatched) {
                    assert_eq!((&lane.0, lane.1), (&out.topk, out.stats));
                }
                runs.push(constant);
            }
        }
        runs
    }

    /// A gamma-distributed stream whose last packet is ragged, and one
    /// with a 70-entry row (five or more packets at every design `B`)
    /// between short ones.
    fn design_streams<S: SpmvScalar>() -> [BsCsr; 2] {
        let layout = PacketLayout::solve(1024, S::VALUE_BITS).unwrap();
        let gamma = SyntheticConfig {
            num_rows: 300,
            num_cols: 1024,
            avg_nnz_per_row: 18,
            distribution: NnzDistribution::table3_gamma(),
            seed: 11,
        }
        .generate();
        let mut triplets: Vec<(u32, u32, f32)> = (0..70).map(|c| (1, c * 13, 0.011)).collect();
        triplets.extend([(0, 5, 0.5), (2, 1023, 0.25), (3, 0, 0.75)]);
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let long_row = Csr::from_triplets(4, 1024, &triplets).unwrap();
        let streams = [gamma, long_row].map(|csr| BsCsr::encode::<S>(&csr, layout));
        let b = layout.entries_per_packet() as u64;
        assert_ne!(streams[0].stored_entries() % b, 0, "ragged last packet");
        assert!(streams[1].num_packets() >= 5);
        streams
    }

    fn constant_and_runtime_layouts_agree<S: SpmvScalar>() {
        for stream in design_streams::<S>() {
            both_instantiations::<S>(&stream);
        }
    }

    #[test]
    fn constant_and_runtime_layout_instantiations_are_bit_identical() {
        constant_and_runtime_layouts_agree::<Q1_19>();
        constant_and_runtime_layouts_agree::<Q1_24>();
        constant_and_runtime_layouts_agree::<Q1_31>();
        constant_and_runtime_layouts_agree::<F32>();
        constant_and_runtime_layouts_agree::<Half>();
    }

    /// Overwrites entry `j`'s field (`idx` region if `val` is false) in
    /// `packet` with `bits`-wide `raw`.
    fn poke(matrix: &mut BsCsr, packet: usize, val: bool, j: usize, raw: u64) {
        let l = matrix.layout();
        let b = l.entries_per_packet() as usize;
        let idx_base = 1 + b * l.ptr_bits() as usize;
        let (base, bits) = if val {
            (idx_base + b * l.idx_bits() as usize, l.value_bits())
        } else {
            (idx_base, l.idx_bits())
        };
        let words = matrix.packets_mut()[packet].words_mut();
        for i in 0..bits as usize {
            let pos = base + j * bits as usize + i;
            words[pos / 64] &= !(1 << (pos % 64));
            words[pos / 64] |= ((raw >> i) & 1) << (pos % 64);
        }
    }

    #[test]
    fn padding_of_a_ragged_last_packet_never_reaches_a_sum() {
        let [clean, _] = design_streams::<Q1_19>();
        let last = clean.num_packets() - 1;
        let real = clean.entries_in_packet(last);
        let mut doctored = clean.clone();
        for j in real..clean.layout().entries_per_packet() as usize {
            poke(&mut doctored, last, false, j, 0x3ff);
            poke(&mut doctored, last, true, j, 0xf_ffff);
        }
        assert_ne!(doctored, clean);
        assert_eq!(doctored.validate(), Ok(()), "structure untouched");
        assert_eq!(
            both_instantiations::<Q1_19>(&doctored),
            both_instantiations::<Q1_19>(&clean)
        );
    }

    /// A stream `validate` rejects: row 1 ends at entry 3 of 3 in the
    /// only packet, and its `ptr` slot is moved to 5 — into the padding.
    /// Replay must hit its slice bound, never read the padding.
    fn stream_with_row_end_in_padding() -> BsCsr {
        let csr = Csr::from_triplets(2, 1024, &[(0, 1, 0.5), (1, 2, 0.25), (1, 3, 0.125)]).unwrap();
        let mut bs = BsCsr::encode::<Q1_19>(&csr, PacketLayout::solve(1024, 20).unwrap());
        let second_ptr = 1 + bs.layout().ptr_bits();
        let words = bs.packets_mut()[0].words_mut();
        words[0] = (words[0] & !(0xf << second_ptr)) | (5 << second_ptr);
        assert!(bs.validate().is_err());
        bs
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 3")]
    fn row_end_in_padding_panics_with_the_constant_layout() {
        // The public entry dispatches a design-layout stream to the
        // constant instantiation.
        let bs = stream_with_row_end_in_padding();
        run_one::<Q1_19>(&bs, &ones(1024), 8, Fidelity::Reference);
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 3")]
    fn row_end_in_padding_panics_with_the_runtime_layout() {
        let bs = stream_with_row_end_in_padding();
        run_layout::<Q1_19>(
            &bs,
            black_box(bs.layout()),
            &[ones(1024)],
            Fidelity::Reference,
        );
    }
}
