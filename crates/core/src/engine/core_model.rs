//! Single-core emulation of the 4-stage dataflow pipeline (Algorithm 1).

use std::time::Instant;

use tkspmv_fixed::SpmvScalar;
use tkspmv_obs::{Stage, Stages};
use tkspmv_sparse::{BsCsr, PacketLayout};

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

/// Packets sliced per chunk before the lane sweep — the stream's own
/// chunk ([`BsCsr::CHUNK_PACKETS`]), in which its row ends are recorded.
/// Large enough to amortise the per-block loop entry/exit over many
/// packets, small enough that the flat `dvals`/`cidx` chunk —
/// `CHUNK_PACKETS · B` entries, 7.5 KiB at the paper's B = 15 — and a
/// block's row sums (a few KiB) stay in L1 beside the gathers from one
/// transposed query block (64 KiB at M = 1024 in Q1.19, see
/// [`BLOCK_LANES`]).
const CHUNK_PACKETS: usize = BsCsr::CHUNK_PACKETS;

/// Query lanes replayed together from one transposed block: per decoded
/// non-zero, one `BLOCK_LANES`-wide row of the block feeds that many
/// accumulators — at x86-64-v3, four 256-bit multiplies and four adds.
/// The batch's lanes fall through a cascade: as many full 16-lane
/// blocks as fit, then one [`HALF_BLOCK_LANES`]-lane block if eight or
/// more lanes are left, so a batch of 8 to 15 still replays eight wide.
/// A ragged batch is not padded up to a block: its last `B % 8` lanes
/// replay one at a time straight from their query slices, so B = 1 pays
/// for neither a copy nor idle lanes. Where no sum can saturate, a
/// remainder lane replays from running-sum differences
/// ([`running_sum_pass`]) rather than row by row.
///
/// Measured at x86-64-v3 with the unsaturated accumulator (one thread,
/// the 32 partitions of the 100k × 1024 Q1.19 ledger collection, 2-vCPU
/// host, against the 8-lane body that offered each row to the Top-K
/// trackers inside replay, the two alternated in one process): with the
/// offers moved to [`select`], the cascade replays a B = 32 batch in
/// 0.64–0.68× the time (0.29–0.41 ns/nnz/lane), and B = 8 or 9 in
/// 0.84–0.91×; with 8-lane blocks only, B = 32 took 0.76–0.79×. While
/// the offers sat inside replay, 16 lanes replayed B = 32 only ≈ 15 %
/// faster than 8, and 16 alone left B = 8 to 15 one lane wide.
const BLOCK_LANES: usize = 16;

/// The cascade's second block width (see [`BLOCK_LANES`]).
const HALF_BLOCK_LANES: usize = BLOCK_LANES / 2;

/// How a batch of `b` lanes splits over the block cascade: the first
/// `wide` lanes replay in [`BLOCK_LANES`]-lane blocks, lanes
/// `wide..blocked` in at most one [`HALF_BLOCK_LANES`]-lane block, and
/// the rest one lane at a time.
fn block_split(b: usize) -> (usize, usize) {
    let wide = b - b % BLOCK_LANES;
    (wide, b - b % HALF_BLOCK_LANES)
}

/// Reusable working memory for [`run_core_batch_with_scratch`]: the
/// current chunk's flat value/index arrays, one remainder lane's sums
/// over it, one lane block's row sums, the batch's full lane blocks
/// transposed, and one resident lane (Top-K tracker + carry) per query
/// in the batch. The row structure replay follows is not here: it is
/// the stream's own, recorded once ([`BsCsr::row_ends`]).
///
/// Keep one per thread that walks partitions and stream every partition
/// and batch it walks through it; the accelerator keeps one per compute
/// pool participant for the life of the thread (see
/// [`crate::fanout::fork_join`]).
/// The chunk buffers are sized **once per call** to `CHUNK_PACKETS · B`
/// (`+ 1` for the running sums; a no-op when the previous call used the
/// same layout), the row-sum tile to the stream's largest per-chunk row
/// count, the transposed block to the batch's full blocks, and the
/// packet loop writes into them by position, so a call allocates a
/// number of times that depends on neither the packet count nor — once
/// lanes and outputs have grown to the largest batch seen — the batch
/// size; on a warm scratch that number is zero (both asserted by the
/// `zero_alloc` integration test). That is what lets the software model
/// be bandwidth- rather than allocator-bound.
#[derive(Debug, Clone)]
pub struct BatchScratch<S: SpmvScalar> {
    /// The current chunk's values decoded into the scalar domain —
    /// sliced straight out of the packet words, once per chunk, shared
    /// by every query lane. `CHUNK_PACKETS · B` long; a ragged last
    /// packet leaves padding past the real entry count, which replay
    /// never sees (its slices are cut at that count).
    dvals: Vec<S>,
    /// The current chunk's column indices, laid out like `dvals`.
    cidx: Vec<u32>,
    /// One remainder lane's sums over the current chunk. When the
    /// stream's sums cannot saturate they are running sums: `sums[0]` is
    /// the lane's carry and `sums[i + 1]` adds entry `i`'s product, so a
    /// row's sum is the difference of the running sums at its two ends
    /// (see [`running_sum_pass`]). Otherwise `sums[i]` is the sum of the
    /// chunk's row `i`, as in `tile`. `CHUNK_PACKETS · B + 1` long, sized
    /// with `dvals`: every row holds at least one entry, so a chunk never
    /// ends more rows than it has entries.
    sums: Vec<S::Acc>,
    /// One lane block's row sums over the current chunk, written by
    /// replay and read by the Top-K select step: for an `L`-lane block,
    /// `tile[i·L + lane]` is that lane's sum of the chunk's row `i`.
    /// Sized once per call to the stream's largest per-chunk row count
    /// times [`BLOCK_LANES`], and only when the batch has a full block,
    /// so a call of fewer than eight lanes never touches it.
    tile: Vec<S::Acc>,
    /// The batch's full lane blocks, transposed once per call, one after
    /// another in lane order: an `L`-lane block takes `M · L` entries,
    /// and its `[col·L + lane]` is that lane's query at column `col`, so
    /// one non-zero reads one contiguous `L`-wide row for the whole
    /// block. The `B % 8` remainder is not copied here.
    xt: Vec<S>,
    /// Per-query resident state; `lanes[..B]` are active, the rest keep
    /// their warm capacity for a later, larger batch.
    lanes: Vec<QueryLane<S>>,
    /// Per-query outputs, reusing each lane's sorted-topk buffer across
    /// batches.
    outputs: Vec<CoreOutput<S::Acc>>,
    /// Decode/score split of the latest batch (see
    /// [`BatchScratch::stage_times`]).
    stage_times: Stages,
}

impl<S: SpmvScalar> BatchScratch<S> {
    /// Creates an empty scratch; the first batch sizes its buffers.
    // alloc-ok(fn): cold constructor — the empty vecs here are the
    // buffers whose reuse makes the batch loop allocation-free.
    pub fn new() -> Self {
        Self {
            dvals: Vec::new(),
            cidx: Vec::new(),
            sums: Vec::new(),
            tile: Vec::new(),
            xt: Vec::new(),
            lanes: Vec::new(),
            outputs: Vec::new(),
            stage_times: Stages::default(),
        }
    }

    /// Where the latest [`run_core_batch_with_scratch`] call through
    /// this scratch spent its time: [`Stage::Decode`] for chunk decode,
    /// [`Stage::Score`] for lane replay and select (every other stage
    /// stays zero). Kept beside [`CoreStats`] rather than in it because
    /// wall time is not a reproducible fact of the stream.
    pub fn stage_times(&self) -> Stages {
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
/// Lanes replay in blocks of sixteen, then at most one block of eight
/// (`BLOCK_LANES`): the batch's full blocks are transposed once per
/// call, so each decoded non-zero is read once and multiplied into a
/// whole block's accumulators from one contiguous row — the software
/// picture of many multiply-accumulate units fed by one decoded stream
/// from a banked on-chip vector. The lanes left over (batch size mod 8)
/// run one lane wide, reading their own query slices. Within each lane,
/// whatever its block, the engine follows Algorithm 1 stage by stage,
/// chunk by chunk: replay runs stages 1–3 over the chunk and writes
/// each finished row's sum, then one select step runs stage 4 over
/// those sums.
///
/// 1. **Scatter**: for each of the packet's `B` entries, read `x[idx]`
///    from (emulated) URAM and form the point-wise product;
/// 2. **Aggregation**: sum products belonging to the same row. A block
///    sums each row from its first entry to its last. A one-lane
///    remainder whose sums cannot saturate (below) takes one branch-free
///    pass over the chunk's products instead, keeping their running
///    sums, and reads each row's sum as the difference of the running
///    sums at its two ends — exact modulo 2⁶⁴, and no row sum reaches
///    2⁶⁴, so the bits are the sequential sum's;
/// 3. **Summary**: stitch rows that span packet (and chunk) boundaries
///    through the carried partial sum;
/// 4. **Top-K update**: offer every row finished in the chunk (at most
///    `r` per packet in faithful mode), in row order, to the argmin
///    scratchpad. The select step first compares each row's sums with
///    the lanes' current scratchpad minimums and skips the lanes whose
///    sum falls below theirs, offers the scratchpad would reject
///    anyway, so the answers and accept counts are those of offering
///    every row.
///
/// Where rows end is a property of the matrix, not of the query, so the
/// engine does not read it from the packets: the stream records its row
/// ends once, at encode or load ([`BsCsr::row_ends`]), and a chunk is
/// replayed row by row from its recorded ends. Per chunk the engine
/// slices only the entries' `idx`/`val` fields. Replay sums every row
/// whatever the fidelity; the `r` gate is applied as the select step
/// reads the rows: a row's ordinal in its packet comes from its end (its
/// packet is `(end − 1) / B`), so the same recorded ends serve every
/// fidelity. [`CoreStats`] come from the recorded ends and `r` without
/// touching a packet. Select time is counted in the stage clock's
/// [`Stage::Score`] ([`BatchScratch::stage_times`]), beside replay:
/// [`Stage`] has no select stage of its own.
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
/// row ends, the arithmetic and its order are the same — so results are
/// bit-identical whichever runs (pinned by a unit test over all five
/// Table-II scalars).
///
/// The accumulator is chosen the same way, per call and from the
/// input. A row never sums more products than the stream's
/// `stored_entries` (whatever its columns: `BsCsr::from_parts` does not
/// require them distinct), so when that count is within
/// [`SpmvScalar::UNSATURATED_TERMS`] — every Q1.19 stream below 16.7 M
/// entries, every Q1.24 one below 16,384 — no sum can saturate, and
/// replay adds with [`SpmvScalar::acc_add_unsaturated`] (and the
/// remainder lanes sum by running-sum differences, stage 2 above);
/// otherwise, and always for the float designs
/// and for Q1.31 past one entry, with [`SpmvScalar::acc_add`] row by
/// row. The paths give the same bits on every sum the fast one is used
/// for (pinned by unit tests that drive a Q1.31 row into saturation and
/// hold the two one-lane bodies to each other).
///
/// Results are **bit-identical** to running each query alone: per lane,
/// the Top-K offers come in the packet-arrival order the single-query
/// loop produces, with the same sums — the row ends, carry stitching,
/// and `r`-limit gating depend only on the matrix, not on the other
/// queries in the batch; lane blocking only interleaves lanes, never
/// reorders one lane's steps; a lane summed by running-sum differences
/// reads the bits a row-by-row sum gives (stage 2 above); and the
/// select step's filter drops only offers the lane's scratchpad would
/// reject (stage 4 above).
///
/// The returned slice borrows the scratch and holds one
/// [`CoreOutput`] per query, in input order. [`CoreStats`] are
/// per-query: every field except `topk_accepted` is query-independent
/// and therefore identical across the batch.
///
/// # Panics
///
/// Panics if any query is shorter than the matrix's column count or if
/// `k == 0` (for a non-empty batch).
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
    scratch.stage_times = Stages::default();
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

    let r_limit = match fidelity {
        Fidelity::Faithful { rows_per_packet } => rows_per_packet,
        Fidelity::Reference => u32::MAX,
    };
    // Every statistic but the accept count is a fact of the recorded
    // row ends and `r`.
    let by_ordinal = matrix.row_ends().2;
    let rows_finished: u64 = by_ordinal.iter().take(r_limit as usize).sum();
    let shared = CoreStats {
        packets: matrix.num_packets() as u64,
        entries: matrix.stored_entries(),
        rows_finished,
        rows_dropped: matrix.num_rows() as u64 - rows_finished,
        topk_accepted: 0,
    };

    // Stage clock: two reads per chunk — the end of one chunk's score
    // phase is the start of the next chunk's decode phase.
    let mut mark = Instant::now();

    // The full lane blocks' queries, transposed once per call (stage 1b's
    // operand layout, so it is score time). The `b % 8` remainder lanes
    // read their own query slices and are not copied.
    let m = matrix.num_cols();
    let (wide, blocked) = block_split(b);
    // alloc-ok: sized once per call to the full blocks, then written by
    // position; a warm scratch that saw as many blocks does not grow.
    scratch.xt.resize(blocked * m, S::decode(0));
    let (wide_xt, half_xt) = scratch.xt.split_at_mut(wide * m);
    transpose::<_, _, BLOCK_LANES>(&queries[..wide], wide_xt, m);
    transpose::<_, _, HALF_BLOCK_LANES>(&queries[wide..blocked], half_xt, m);
    let transposed = Instant::now();
    scratch.stage_times.add(Stage::Score, transposed - mark);
    mark = transposed;

    let (chunk_rows, ends, _) = matrix.row_ends();
    if blocked > 0 {
        let most_rows = chunk_rows.windows(2).map(|w| w[1] - w[0]).max();
        // alloc-ok: sized once per call to the stream's largest per-chunk
        // row count; a warm scratch that saw as many rows does not grow.
        scratch
            .tile
            .resize(most_rows.unwrap_or(0) as usize * BLOCK_LANES, S::acc_zero());
    }

    // alloc-ok: the chunk buffers are sized here, once per call (a no-op
    // when the scratch last saw the same layout); the packet loop
    // writes into them by position, so nothing below grows with the
    // packet count.
    let per_packet = layout.entries_per_packet() as usize;
    let chunk_entries = CHUNK_PACKETS * per_packet;
    scratch.cidx.resize(chunk_entries, 0);
    scratch.dvals.resize(chunk_entries, S::decode(0));
    scratch.sums.resize(chunk_entries + 1, S::acc_zero());

    let unsaturated = unsaturated_sums::<S>(matrix);
    let mut remaining = matrix.stored_entries();
    for (c, packets) in matrix.packets().chunks(CHUNK_PACKETS).enumerate() {
        // Stage 1a, once per chunk: slice the chunk's entries into the
        // flat `dvals`/`cidx` arrays. All `B` slots of every packet are
        // sliced; only the stream's last packet can hold fewer real
        // entries, and its padding lands past `len`, beyond what replay
        // is shown.
        let slots = scratch
            .cidx
            .chunks_exact_mut(per_packet)
            .zip(scratch.dvals.chunks_exact_mut(per_packet));
        for (packet, (idx_out, val_out)) in packets.iter().zip(slots) {
            packet.decode_fields(layout, idx_out, val_out, S::decode);
        }
        let len = remaining.min(chunk_entries as u64) as usize;
        remaining -= len as u64;
        let decoded = Instant::now();

        let rows = chunk_rows[c] as usize..chunk_rows[c + 1] as usize;
        let chunk = Chunk {
            dvals: &scratch.dvals[..len],
            idx: &scratch.cidx[..len],
            first_row: rows.start as u32,
            ends: &ends[rows],
            per_packet,
            r_limit,
        };

        // Stages 1b+2+3, block by block: fused gather-multiply-
        // accumulate replaying the chunk's recorded rows (or, for a
        // one-lane remainder that cannot saturate, their running sums)
        // into row sums; then stage 4 selects the Top-K offers from them.
        // Every sum, saturation included, has the bits of the sequential
        // path's packet-arrival-order sum.
        let sums = Sums {
            tile: &mut scratch.tile,
            lane: &mut scratch.sums,
        };
        let lanes = &mut scratch.lanes[..b];
        if unsaturated {
            replay::<_, _, true>(
                lanes,
                &scratch.xt,
                queries,
                m,
                chunk,
                sums,
                S::acc_add_unsaturated,
            );
        } else {
            replay::<_, _, false>(lanes, &scratch.xt, queries, m, chunk, sums, S::acc_add);
        }
        let scored = Instant::now();
        scratch.stage_times.add(Stage::Decode, decoded - mark);
        scratch.stage_times.add(Stage::Score, scored - decoded);
        mark = scored;
    }

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
    scratch.stage_times.add(Stage::Score, mark.elapsed());
    &scratch.outputs[..b]
}

/// Whether no row sum of `matrix` can saturate: a row never holds more
/// terms than the stream's stored entries, whatever its columns.
#[inline(always)]
fn unsaturated_sums<S: SpmvScalar>(matrix: &BsCsr) -> bool {
    matrix.stored_entries() <= S::UNSATURATED_TERMS
}

/// One decoded chunk as replay sees it: the entries cut at the chunk's
/// real count, and the rows that end in it — the first one's index and
/// every one's recorded end, counted from the chunk's first entry —
/// plus what the `r` gate needs: `B` and `r`.
#[derive(Clone, Copy)]
struct Chunk<'a, S> {
    dvals: &'a [S],
    idx: &'a [u32],
    first_row: u32,
    ends: &'a [u16],
    per_packet: usize,
    r_limit: u32,
}

/// The `r` gate over one chunk's row ends, in order: the packet of the
/// previous row end and that row's ordinal in it.
struct RowGate {
    /// `⌈2³² / B⌉`: `(n · recip) >> 32` is `n / B` exactly whenever
    /// `n, B < 2¹⁶`, as every chunk-relative row end and every `B` is,
    /// so a row's packet costs a multiply even when `B` is not a
    /// compile-time constant.
    recip: u64,
    packet: u64,
    ordinal: u32,
}

impl RowGate {
    /// Before the first row end of a chunk with `per_packet` entries a
    /// packet.
    #[inline(always)]
    fn new(per_packet: usize) -> Self {
        debug_assert!(per_packet < 1 << 16);
        Self {
            recip: (1u64 << 32).div_ceil(per_packet as u64),
            packet: u64::MAX,
            ordinal: 0,
        }
    }

    /// Whether the row ending at `end` (its packet is `(end − 1) / B`)
    /// is among the first `r_limit` to end in its packet.
    #[inline(always)]
    fn admits(&mut self, end: u16, r_limit: u32) -> bool {
        let p = ((u64::from(end) - 1) * self.recip) >> 32;
        self.ordinal = if p == self.packet {
            self.ordinal + 1
        } else {
            0
        };
        self.packet = p;
        self.ordinal < r_limit
    }
}

/// Where replay writes one chunk's row sums for the select step: the
/// full blocks' tile and one remainder lane's sums (see
/// [`BatchScratch`]).
struct Sums<'a, A> {
    tile: &'a mut [A],
    lane: &'a mut [A],
}

/// Replays one chunk into every active lane, then selects its Top-K
/// offers: the full blocks down the [`BLOCK_LANES`] cascade from their
/// rows of the transposed `xt`, summing with `add` (see
/// [`accumulate`]), and the remainder one lane at a time from each
/// lane's own query slice. A remainder lane runs the same body one lane
/// wide, unless `RUNNING` — only when [`unsaturated_sums`] holds, with
/// `add` the unsaturated add — in which case it replays from
/// running-sum differences ([`running_sum_pass`]). Each body writes the
/// chunk's row sums into `sums` and hands them to [`select`].
#[inline(always)]
fn replay<S: SpmvScalar, Q: AsRef<[S]>, const RUNNING: bool>(
    lanes: &mut [QueryLane<S>],
    xt: &[S],
    queries: &[Q],
    m: usize,
    chunk: Chunk<'_, S>,
    sums: Sums<'_, S::Acc>,
    add: impl Fn(S::Acc, S::Acc) -> S::Acc + Copy,
) {
    let (wide, blocked) = block_split(lanes.len());
    let (blocks, rest) = lanes.split_at_mut(blocked);
    let (wide_lanes, half_lanes) = blocks.split_at_mut(wide);
    let (wide_xt, half_xt) = xt[..blocked * m].split_at(wide * m);
    replay_blocks::<_, BLOCK_LANES>(wide_lanes, wide_xt, m, chunk, add, sums.tile);
    replay_blocks::<_, HALF_BLOCK_LANES>(half_lanes, half_xt, m, chunk, add, sums.tile);
    for (lane, q) in rest.iter_mut().zip(&queries[blocked..]) {
        let x = &q.as_ref()[..m];
        if RUNNING {
            running_sum_pass(lane, chunk, x, sums.lane);
        } else {
            let one = std::slice::from_mut(lane);
            block_pass(one, chunk, |idx| [x[idx as usize]], add, sums.lane);
            select(one, chunk, sums.lane.iter().map(|&sum| [sum]));
        }
    }
}

/// Copies `queries`, a whole number of `L`-lane blocks, into `xt`
/// transposed (see [`BatchScratch`]'s `xt`).
fn transpose<S: SpmvScalar, Q: AsRef<[S]>, const L: usize>(queries: &[Q], xt: &mut [S], m: usize) {
    for (i, block) in queries.chunks_exact(L).enumerate() {
        let qs: [&[S]; L] = std::array::from_fn(|l| &block[l].as_ref()[..m]);
        let out = &mut xt[i * m * L..][..m * L];
        for (col, row) in out.chunks_exact_mut(L).enumerate() {
            for (v, q) in row.iter_mut().zip(qs) {
                *v = q[col];
            }
        }
    }
}

/// Row `i` of a flat buffer read as `L` consecutive entries: the
/// `L`-lane view of `xt` and of the tile.
#[inline(always)]
fn lane_row<T: Copy, const L: usize>(flat: &[T], i: usize) -> [T; L] {
    let row = &flat[i * L..][..L];
    std::array::from_fn(|l| row[l])
}

/// Replays and selects one chunk for `lanes`, a whole number of
/// `L`-lane blocks, each from its `m` rows of the transposed `xt`,
/// through one `L`-lane view of the tile.
#[inline(always)]
fn replay_blocks<S: SpmvScalar, const L: usize>(
    lanes: &mut [QueryLane<S>],
    xt: &[S],
    m: usize,
    chunk: Chunk<'_, S>,
    add: impl Fn(S::Acc, S::Acc) -> S::Acc + Copy,
    tile: &mut [S::Acc],
) {
    for (i, block) in lanes.chunks_exact_mut(L).enumerate() {
        let x = &xt[i * m * L..][..m * L];
        block_pass(
            block,
            chunk,
            |idx| lane_row::<_, L>(x, idx as usize),
            add,
            tile,
        );
        let rows = tile[..chunk.ends.len() * L].chunks_exact(L);
        select(block, chunk, rows.map(|row| lane_row::<_, L>(row, 0)));
    }
}

/// Replays one chunk's rows for `L` lanes, where `row(idx)` is the `L`
/// lanes' query entries at column `idx`: per row a fused
/// gather-multiply-accumulate from the previous row's end to its own,
/// written to `rows[i·L..][..L]` for the chunk's row `i`, and the carry
/// update from the entries after the chunk's last row end. The chunk's
/// first row starts from the carry, which is zero unless the previous
/// chunk left a row open. Each non-zero's value and index are read once
/// and one `L`-wide row feeds all `L` accumulators. No Top-K offer and
/// no `r` gate sit in this loop: [`select`] reads `rows` afterwards.
///
/// The block body sums each row from its first entry to its last, not
/// by running-sum differences as [`running_sum_pass`] does for one lane:
/// eight lanes of running sums store eight sums per entry (61 KB per
/// chunk at the paper's Q1.19 design), and a prototype of that body
/// cut the ledger's `direct_b32` throughput from 2.84k to 0.89k
/// queries/s on a 2-vCPU x86-64-v3 host.
#[inline(always)]
fn block_pass<S: SpmvScalar, const L: usize>(
    lanes: &mut [QueryLane<S>],
    chunk: Chunk<'_, S>,
    row: impl Fn(u32) -> [S; L],
    add: impl Fn(S::Acc, S::Acc) -> S::Acc + Copy,
    rows: &mut [S::Acc],
) {
    debug_assert_eq!(lanes.len(), L);
    let mut from: [S::Acc; L] = std::array::from_fn(|l| lanes[l].carry);
    let mut start = 0usize;
    let rows = rows[..chunk.ends.len() * L].chunks_exact_mut(L);
    for (sums, &row_end) in rows.zip(chunk.ends) {
        let end = row_end as usize;
        let acc = accumulate(
            from,
            &chunk.dvals[start..end],
            &chunk.idx[start..end],
            &row,
            add,
        );
        sums.copy_from_slice(&acc);
        from = [S::acc_zero(); L];
        start = end;
    }
    let carry = accumulate(from, &chunk.dvals[start..], &chunk.idx[start..], &row, add);
    for (lane, a) in lanes.iter_mut().zip(carry) {
        lane.carry = a;
    }
}

/// One lane's chunk replayed from running-sum differences, the
/// one-lane body for a stream whose sums cannot saturate: one flat pass
/// over the chunk's entries writes `sums[0] = carry` and `sums[i + 1] =
/// sums[i] ⊕ d_i · x[idx_i]` with no per-row control flow. Every row's
/// sum is then `sums[end] ⊖ sums[prev]` at its recorded ends — the
/// chunk's first row from `sums[end]` alone, so it includes the carry —
/// read off by [`select`], and the new carry is `sums[len] ⊖ sums[last
/// end]`.
///
/// `⊕`/`⊖` are [`SpmvScalar::acc_add_unsaturated`] and
/// [`SpmvScalar::acc_sub_unsaturated`], exact modulo 2⁶⁴ for fixed
/// point. The running sums may wrap, but [`unsaturated_sums`] proves no
/// row sum reaches 2⁶⁴, so every difference equals the sequential
/// (saturating) sum of that row bit for bit.
///
/// Kept out of line so the engine body around the block paths does not
/// change shape with it: inlined, it bought nothing on the
/// stage clock, and one ledger reading put the B = 32 workload, which
/// never runs it, 3 % slower. The call costs once per chunk per
/// remainder lane.
#[inline(never)]
fn running_sum_pass<S: SpmvScalar>(
    lane: &mut QueryLane<S>,
    chunk: Chunk<'_, S>,
    x: &[S],
    sums: &mut [S::Acc],
) {
    // Only a scalar with a non-zero bound defines the subtraction.
    debug_assert!(S::UNSATURATED_TERMS > 0);
    let len = chunk.dvals.len();
    let sums = &mut sums[..=len];
    sums[0] = lane.carry;
    let mut acc = lane.carry;
    // Four entries at a time, their products formed before any of them
    // is added: the gathers and multiplies of a group do not wait on
    // the running sum, so they overlap the previous group's adds
    // (≈ 1.35× faster on the stage clock than one entry at a time; eight
    // at a time measured the same as four).
    let grouped = len - len % 4;
    let groups = sums[1..=grouped]
        .chunks_exact_mut(4)
        .zip(chunk.dvals.chunks_exact(4))
        .zip(chunk.idx.chunks_exact(4));
    for ((p, d), i) in groups {
        let products: [S::Acc; 4] = std::array::from_fn(|j| S::mul(d[j], x[i[j] as usize]));
        for (p, product) in p.iter_mut().zip(products) {
            acc = S::acc_add_unsaturated(acc, product);
            *p = acc;
        }
    }
    let rest = sums[grouped + 1..]
        .iter_mut()
        .zip(&chunk.dvals[grouped..])
        .zip(&chunk.idx[grouped..]);
    for ((p, &d), &i) in rest {
        acc = S::acc_add_unsaturated(acc, S::mul(d, x[i as usize]));
        *p = acc;
    }
    let sums = &*sums;
    let last = chunk
        .ends
        .last()
        .map_or(S::acc_zero(), |&end| sums[end as usize]);
    lane.carry = S::acc_sub_unsaturated(acc, last);
    let row_sums = chunk.ends.iter().scan(S::acc_zero(), |before, &end| {
        let sum = S::acc_sub_unsaturated(sums[end as usize], *before);
        *before = sums[end as usize];
        Some([sum])
    });
    select(std::slice::from_mut(lane), chunk, row_sums);
}

/// Stage 4 over one chunk for `L` lanes: offers each row that ends in
/// it, in row order, to the lanes' Top-K trackers, where `row_sums`
/// yields the `L` lanes' sums of the chunk's rows in order. A row the
/// `r` gate drops ([`RowGate`]) is offered to no lane.
///
/// When every lane's tracker is full with a comparable minimum at chunk
/// start — every chunk but a partition's first few — each row's `L`
/// sums are compared with the `L` floors, the trackers' minimums
/// ([`TopKTracker::current_min`]) refreshed after every accept, and only
/// the lanes whose sum is `>=` their floor see an `insert`. That is
/// `insert`'s own test against its own minimum, so every offer the
/// filter drops is one `insert` would have rejected: answers, ties and
/// accept counts are those of offering every gated row. A full tracker
/// whose minimum is comparable holds no incomparable value and accepts
/// none, so its floor stays comparable. For `u64` sums the per-row test
/// vectorises: at `L` = 8 it is two 256-bit compares and one mask test,
/// and a row no lane passes (most of them) costs nothing more.
///
/// A chunk that starts with a lane still filling, or with a float NaN
/// at its floor, offers every gated row to every lane, so the filtered
/// loop needs no per-lane "admit all" flag in its per-row test.
#[inline(always)]
fn select<S: SpmvScalar, const L: usize>(
    lanes: &mut [QueryLane<S>],
    chunk: Chunk<'_, S>,
    row_sums: impl IntoIterator<Item = [S::Acc; L]>,
) {
    debug_assert_eq!(lanes.len(), L);
    let mut floor = [S::acc_zero(); L];
    let mut filtered = true;
    for (f, lane) in floor.iter_mut().zip(&*lanes) {
        match lane.tracker.current_min() {
            Some(min) if min.partial_cmp(&min).is_some() => *f = min,
            _ => filtered = false,
        }
    }
    let mut gate = RowGate::new(chunk.per_packet);
    let rows = (chunk.first_row..).zip(chunk.ends).zip(row_sums);
    if !filtered {
        for ((row, &end), sums) in rows {
            if gate.admits(end, chunk.r_limit) {
                for (lane, sum) in lanes.iter_mut().zip(sums) {
                    lane.tracker.insert(row, sum);
                }
            }
        }
        return;
    }
    for ((row, &end), sums) in rows {
        if !gate.admits(end, chunk.r_limit) {
            continue;
        }
        let any = sums
            .iter()
            .zip(&floor)
            .fold(false, |any, (s, f)| any | (s >= f));
        if !any {
            continue;
        }
        for ((lane, f), &sum) in lanes.iter_mut().zip(&mut floor).zip(&sums) {
            if sum >= *f && lane.tracker.insert(row, sum) {
                *f = lane.tracker.current_min().unwrap_or(*f);
            }
        }
    }
}

/// `acc[l] = add(acc[l], d · row(idx)[l])` for every lane, entry by
/// entry in stream order: the multiply-accumulate array of
/// [`block_pass`].
///
/// `add` is [`SpmvScalar::acc_add`] — saturating for fixed point — or,
/// when [`unsaturated_sums`] holds for the stream,
/// [`SpmvScalar::acc_add_unsaturated`], which drops the saturation
/// check. The second is taken only where no row sum can reach the
/// saturation point, so both give the same bits; without the check the
/// `L` lanes of an entry are two 256-bit multiplies and two adds. In
/// that case only the full blocks come here: a one-lane remainder sums
/// by running-sum differences ([`running_sum_pass`]), which has no
/// per-row loop to enter and leave.
///
/// The gather `row(idx)` is bounds-checked. Besides rejecting a column
/// past the query's end, that check is a side exit which keeps the
/// optimiser from vectorising the (now associative) unsaturated sum
/// along the entry axis — an inserting gather of four entries per
/// lane, measured slower than the plain one-entry-at-a-time sweep
/// across lanes.
#[inline(always)]
fn accumulate<S: SpmvScalar, const L: usize>(
    mut acc: [S::Acc; L],
    dvals: &[S],
    idx: &[u32],
    row: &impl Fn(u32) -> [S; L],
    add: impl Fn(S::Acc, S::Acc) -> S::Acc,
) -> [S::Acc; L] {
    for (&d, &i) in dvals.iter().zip(idx) {
        for (a, v) in acc.iter_mut().zip(row(i)) {
            *a = add(*a, S::mul(d, v));
        }
    }
    acc
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
    use tkspmv_sparse::{Csr, Packet512, SparseError};

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
        assert_eq!(scratch.stage_times(), Stages::default());
        let started = Instant::now();
        run_core_batch_with_scratch(&bs, &[ones(512)], 8, Fidelity::Reference, &mut scratch);
        let wall = started.elapsed();
        let stages = scratch.stage_times();
        assert!(
            !stages.get(Stage::Decode).is_zero() && !stages.get(Stage::Score).is_zero(),
            "{stages:?}"
        );
        assert!(
            stages.get(Stage::Prune).is_zero() && stages.get(Stage::Rescore).is_zero(),
            "{stages:?}"
        );
        assert!(stages.total() <= wall, "{stages:?} inside {wall:?}");
        // An empty batch streams nothing and reports nothing.
        let none: [Vec<Q1_19>; 0] = [];
        run_core_batch_with_scratch(&bs, &none, 8, Fidelity::Reference, &mut scratch);
        assert_eq!(scratch.stage_times(), Stages::default());
    }

    /// What one run reports per lane: the Top-K list and every
    /// [`CoreStats`] field (`topk_accepted` is the lane's accept count).
    /// A NaN accumulator — a float query holding NaN or ±inf — reads as
    /// `None`, so two runs compare with `==` however they reached it.
    type Lanes<S> = Vec<(Vec<(u32, Option<<S as SpmvScalar>::Acc>)>, CoreStats)>;

    fn lanes<S: SpmvScalar>(outputs: &[CoreOutput<S::Acc>]) -> Lanes<S> {
        let nan_as_none = |&(r, a): &(u32, S::Acc)| (r, a.partial_cmp(&a).map(|_| a));
        outputs
            .iter()
            .map(|out| (out.topk.iter().map(nan_as_none).collect(), out.stats))
            .collect()
    }

    /// One batch through the private body with an explicit layout.
    fn run_layout<S: SpmvScalar>(
        matrix: &BsCsr,
        layout: PacketLayout,
        queries: &[Vec<S>],
        fidelity: Fidelity,
    ) -> Lanes<S> {
        lanes::<S>(run_with_layout(
            matrix,
            layout,
            queries,
            8,
            fidelity,
            &mut BatchScratch::new(),
        ))
    }

    /// Both instantiations of the body — the design layout as a
    /// constant, and the same layout handed over opaquely — and the
    /// public dispatch, over both fidelities and B in {1, 5, 8, 9, 17}:
    /// a remainder alone, one full 8-lane block, a block plus one, two
    /// blocks plus one. Every lane must equal its own one-lane run.
    /// Lane 3 holds NaN and ±inf in places (the float designs carry
    /// them into their sums; the fixed-point ones clamp them), which
    /// must not reach the finite lanes beside it.
    fn both_instantiations<S: SpmvScalar>(matrix: &BsCsr) -> Vec<Lanes<S>> {
        // Pins the dispatch constant to the M = 1024 solution the
        // streams were encoded with.
        let design = const { PacketLayout::paper(S::VALUE_BITS) };
        assert_eq!(matrix.layout(), design, "stream is on the design layout");
        let queries: Vec<Vec<S>> = (0..17)
            .map(|seed| {
                let mut x = query_vector(matrix.num_cols(), seed).as_slice().to_vec();
                if seed == 3 {
                    for (c, v) in x.iter_mut().enumerate() {
                        match (c % 7, c % 11) {
                            (0, _) => *v = f32::INFINITY,
                            (3, _) => *v = f32::NEG_INFINITY,
                            (_, 5) => *v = f32::NAN,
                            _ => {}
                        }
                    }
                }
                quantize_vector::<S>(&x)
            })
            .collect();
        let mut runs = Vec::new();
        for fidelity in [
            Fidelity::Faithful { rows_per_packet: 2 },
            Fidelity::Reference,
        ] {
            let singles: Lanes<S> = queries
                .iter()
                .flat_map(|x| run_layout(matrix, design, std::slice::from_ref(x), fidelity))
                .collect();
            for b in [1, 5, 8, 9, 17] {
                let constant = run_layout(matrix, design, &queries[..b], fidelity);
                assert_eq!(
                    constant,
                    singles[..b],
                    "{fidelity:?} B={b} vs one-lane runs"
                );
                let runtime =
                    run_layout(matrix, black_box(matrix.layout()), &queries[..b], fidelity);
                assert_eq!(constant, runtime, "{fidelity:?} B={b}");
                let mut scratch = BatchScratch::new();
                let dispatched = lanes::<S>(run_core_batch_with_scratch(
                    matrix,
                    &queries[..b],
                    8,
                    fidelity,
                    &mut scratch,
                ));
                assert_eq!(constant, dispatched, "{fidelity:?} B={b} dispatched");
                runs.push(constant);
            }
        }
        runs
    }

    /// A gamma-distributed stream whose last packet is ragged, one with
    /// a 70-entry row (five or more packets at every design `B`) between
    /// short ones, and one 1,000 columns wide — still the design layout,
    /// whose 10-bit `idx` could name columns past the queries' end.
    fn design_streams<S: SpmvScalar>() -> [BsCsr; 3] {
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
        let narrow = SyntheticConfig {
            num_rows: 200,
            num_cols: 1000,
            avg_nnz_per_row: 18,
            distribution: NnzDistribution::table3_gamma(),
            seed: 12,
        }
        .generate();
        let streams = [gamma, long_row, narrow].map(|csr| BsCsr::encode::<S>(&csr, layout));
        let b = layout.entries_per_packet() as u64;
        assert_ne!(streams[0].stored_entries() % b, 0, "ragged last packet");
        assert!(streams[1].num_packets() >= 5);
        assert!(!streams[2].num_cols().is_power_of_two());
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

    /// A Q1.31 row of three entries near 2.0 against queries near 2.0:
    /// each product is close to the accumulator's 4.0 ceiling, so the
    /// row's sum saturates. Q1.31 never qualifies for the unsaturated
    /// add, so every lane of every shape — one lane, a block plus one,
    /// the design layout as a constant and handed over at run time —
    /// must read `u64::MAX` for that row.
    #[test]
    fn a_saturating_q1_31_row_reads_u64_max_in_every_shape() {
        let triplets = [(0, 3, 1.99), (0, 500, 1.99), (0, 1023, 1.99), (1, 7, 0.5)];
        let csr = Csr::from_triplets(2, 1024, &triplets).unwrap();
        let design = const { PacketLayout::paper(32) };
        let bs = BsCsr::encode::<Q1_31>(&csr, design);
        assert!(!unsaturated_sums::<Q1_31>(&bs));
        let queries: Vec<Vec<Q1_31>> = (0..9)
            .map(|l| quantize_vector::<Q1_31>(&vec![1.99 - 0.01 * l as f32; 1024]))
            .collect();
        let singles: Lanes<Q1_31> = queries
            .iter()
            .flat_map(|x| run_layout(&bs, design, std::slice::from_ref(x), Fidelity::Reference))
            .collect();
        for (topk, _) in &singles {
            assert_eq!(topk[0], (0, Some(u64::MAX)));
            assert!(topk[1].1 < Some(u64::MAX));
        }
        for b in [1, 9] {
            for layout in [design, black_box(bs.layout())] {
                let batched = run_layout(&bs, layout, &queries[..b], Fidelity::Reference);
                assert_eq!(batched, singles[..b], "B={b}");
            }
        }
    }

    /// One partition of the ledger's collection (100k × 1024 rows over
    /// 32 cores, 12 entries a row): ≈ 37.5k entries, far inside Q1.19's
    /// bound, so it replays with the unsaturated add; at Q1.24 it is past
    /// 16,384 entries and keeps the saturating one.
    #[test]
    fn a_ledger_shaped_q1_19_partition_replays_unsaturated() {
        let csr = SyntheticConfig {
            num_rows: 100_000 / 32,
            num_cols: 1024,
            avg_nnz_per_row: 12,
            distribution: NnzDistribution::table3_gamma(),
            seed: 7,
        }
        .generate();
        let q1_19 = encode20(&csr);
        assert!((30_000..45_000).contains(&q1_19.stored_entries()));
        assert!(unsaturated_sums::<Q1_19>(&q1_19));
        let q1_24 = BsCsr::encode::<Q1_24>(&csr, PacketLayout::solve(1024, 25).unwrap());
        assert!(!unsaturated_sums::<Q1_24>(&q1_24));
    }

    /// A stream on `S`'s design layout holding every shape the two
    /// one-lane bodies must agree on. Short rows (some empty) run up to
    /// 60 entries before the first chunk's end. Then a 1,024-entry row
    /// straddles packets 63 → 64 and covers the whole second chunk, so
    /// that chunk records no row end. Short rows follow, up to a ragged
    /// last packet.
    fn one_lane_stream<S: SpmvScalar>() -> BsCsr {
        let layout = const { PacketLayout::paper(S::VALUE_BITS) };
        let b = layout.entries_per_packet() as usize;
        let chunk = CHUNK_PACKETS * b;
        let mut triplets = Vec::new();
        let (mut row, mut cum) = (0u32, 0usize);
        let mut push = |len: usize, row: &mut u32, cum: &mut usize| {
            let start = *row as usize * 37;
            let mut cols: Vec<u32> = (0..len).map(|j| ((start + j) % 1024) as u32).collect();
            cols.sort_unstable();
            for (j, c) in cols.into_iter().enumerate() {
                let v = 0.05 + ((*row as usize * 31 + j * 17) % 90) as f32 / 100.0;
                triplets.push((*row, c, v));
            }
            *cum += len.max(1);
            *row += 1;
        };
        let short = |row: u32| {
            if row % 9 == 4 {
                0
            } else {
                row as usize * 7 % 23 + 1
            }
        };
        while cum < chunk - 60 {
            push(short(row).min(chunk - 60 - cum), &mut row, &mut cum);
        }
        push(1024, &mut row, &mut cum);
        while cum < 2 * chunk + 100 || cum % b == 0 {
            push(short(row), &mut row, &mut cum);
        }
        let csr = Csr::from_triplets(row as usize, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<S>(&csr, layout);
        let chunk_rows = bs.row_ends().0;
        assert_eq!(chunk_rows.len(), 4, "three chunks");
        assert_eq!(
            chunk_rows[1], chunk_rows[2],
            "the second chunk has no row end"
        );
        assert_ne!(bs.stored_entries() % b as u64, 0, "ragged last packet");
        assert!(unsaturated_sums::<S>(&bs));
        bs
    }

    /// What a lane holds after a chunk: its Top-K, accept count and carry.
    fn lane_state(lane: &QueryLane<impl SpmvScalar<Acc = u64>>) -> (Vec<(u32, u64)>, u64, u64) {
        let mut topk = Vec::new();
        lane.tracker.write_sorted_into(&mut topk);
        (topk, lane.tracker.accepted(), lane.carry)
    }

    /// Walks `matrix` chunk by chunk, decoded through `layout` as the
    /// engine does, into two lanes that start from `carry`: one replayed
    /// by the sequential one-lane [`block_pass`] with the saturating
    /// `acc_add` and its rows selected, one by [`running_sum_pass`]. After every chunk the two
    /// must hold the same Top-K, accept count and carry. Returns whether
    /// the running sums wrapped past 2⁶⁴ in some chunk.
    fn one_lane_bodies_agree<S: SpmvScalar<Acc = u64>>(
        matrix: &BsCsr,
        layout: PacketLayout,
        x: &[S],
        carry: u64,
        r_limit: u32,
    ) -> bool {
        let per_packet = layout.entries_per_packet() as usize;
        let chunk_entries = CHUNK_PACKETS * per_packet;
        let mut idx = vec![0; chunk_entries];
        let mut dvals = vec![S::decode(0); chunk_entries];
        let mut sums = vec![0; chunk_entries + 1];
        let mut row_sums = vec![0; chunk_entries];
        let lane = || QueryLane::<S> {
            tracker: TopKTracker::new(8),
            carry,
        };
        let (mut sequential, mut running) = (lane(), lane());
        let (chunk_rows, ends, _) = matrix.row_ends();
        let mut remaining = matrix.stored_entries() as usize;
        let mut wrapped = false;
        for (c, packets) in matrix.packets().chunks(CHUNK_PACKETS).enumerate() {
            let slots = idx
                .chunks_exact_mut(per_packet)
                .zip(dvals.chunks_exact_mut(per_packet));
            for (packet, (idx_out, val_out)) in packets.iter().zip(slots) {
                packet.decode_fields(layout, idx_out, val_out, S::decode);
            }
            let len = remaining.min(chunk_entries);
            remaining -= len;
            let rows = chunk_rows[c] as usize..chunk_rows[c + 1] as usize;
            let chunk = Chunk {
                dvals: &dvals[..len],
                idx: &idx[..len],
                first_row: rows.start as u32,
                ends: &ends[rows],
                per_packet,
                r_limit,
            };
            let one = std::slice::from_mut(&mut sequential);
            block_pass(one, chunk, |i| [x[i as usize]], S::acc_add, &mut row_sums);
            select(one, chunk, row_sums.iter().map(|&sum| [sum]));
            running_sum_pass(&mut running, chunk, x, &mut sums);
            assert_eq!(
                lane_state(&sequential),
                lane_state(&running),
                "chunk {c}, carry {carry:#x}, r {r_limit}"
            );
            wrapped |= sums[..=len].windows(2).any(|p| p[1] < p[0]);
        }
        wrapped
    }

    /// For a zero and a nearly full incoming carry, `r` ∈ {1, 2,
    /// Reference}, and the design layout as a constant and handed over at
    /// run time. The full carry leaves room for the first row's largest
    /// sum only, so the running sums wrap past 2⁶⁴: the differences must
    /// still be the sequential sums.
    fn one_lane_bodies_agree_on<S: SpmvScalar<Acc = u64>>() {
        let bs = one_lane_stream::<S>();
        let x = quantize_vector::<S>(query_vector(1024, 5).as_slice());
        let max = S::decode(u64::MAX);
        let first_row_len = bs.row_ends().1[0] as u64;
        let full = u64::MAX - first_row_len * S::mul(max, max);
        let design = const { PacketLayout::paper(S::VALUE_BITS) };
        for carry in [0, full] {
            for r_limit in [1, 2, u32::MAX] {
                let wrapped = one_lane_bodies_agree(&bs, design, &x, carry, r_limit);
                assert_eq!(wrapped, carry == full);
                one_lane_bodies_agree(&bs, black_box(bs.layout()), &x, carry, r_limit);
            }
        }
    }

    #[test]
    fn running_sum_differences_equal_the_sequential_one_lane_body() {
        one_lane_bodies_agree_on::<Q1_19>();
        one_lane_bodies_agree_on::<Q1_24>();
    }

    /// The gate's multiply-shift is the division it replaces for every
    /// chunk-relative row end and every packet width up to 128 entries.
    #[test]
    fn row_gate_packet_is_the_exact_quotient() {
        for b in 1..=128usize {
            let recip = RowGate::new(b).recip;
            for n in 0..=u64::from(u16::MAX) {
                assert_eq!((n * recip) >> 32, n / b as u64, "{n} / {b}");
            }
        }
    }

    /// Overwrites entry `j`'s field (`idx` region if `val` is false) in
    /// `packet` with `bits`-wide `raw`.
    fn poke(layout: PacketLayout, packet: &mut Packet512, val: bool, j: usize, raw: u64) {
        let b = layout.entries_per_packet() as usize;
        let idx_base = 1 + b * layout.ptr_bits() as usize;
        let (base, bits) = if val {
            (
                idx_base + b * layout.idx_bits() as usize,
                layout.value_bits(),
            )
        } else {
            (idx_base, layout.idx_bits())
        };
        let words = packet.words_mut();
        for i in 0..bits as usize {
            let pos = base + j * bits as usize + i;
            words[pos / 64] &= !(1 << (pos % 64));
            words[pos / 64] |= ((raw >> i) & 1) << (pos % 64);
        }
    }

    /// `clean` rebuilt from doctored copies of its packets, the way a
    /// loaded snapshot is.
    fn rebuilt(clean: &BsCsr, packets: Vec<Packet512>) -> Result<BsCsr, SparseError> {
        BsCsr::from_parts(
            clean.layout(),
            packets,
            clean.num_rows(),
            clean.num_cols(),
            clean.stored_entries(),
            clean.logical_nnz(),
        )
    }

    #[test]
    fn padding_of_a_ragged_last_packet_never_reaches_a_sum() {
        let [clean, ..] = design_streams::<Q1_19>();
        let layout = clean.layout();
        let b = layout.entries_per_packet() as usize;
        let real = clean.stored_entries() as usize % b;
        let mut packets = clean.packets().to_vec();
        let last = packets.last_mut().unwrap();
        for j in real..b {
            poke(layout, last, false, j, 0x3ff);
            poke(layout, last, true, j, 0xf_ffff);
        }
        let doctored = rebuilt(&clean, packets).expect("structure untouched");
        assert_ne!(doctored, clean);
        assert_eq!(
            both_instantiations::<Q1_19>(&doctored),
            both_instantiations::<Q1_19>(&clean)
        );
    }

    /// Two rows in one packet; row 1 ends at entry 3 of 3.
    fn two_row_stream() -> BsCsr {
        let csr = Csr::from_triplets(2, 1024, &[(0, 1, 0.5), (1, 2, 0.25), (1, 3, 0.125)]).unwrap();
        BsCsr::encode::<Q1_19>(&csr, PacketLayout::solve(1024, 20).unwrap())
    }

    /// Replay trusts the recorded row ends, so a stream whose `ptr` slot
    /// points into the padding must never be built: moving row 1's `ptr`
    /// slot to 5 makes the stream one `from_parts` rejects.
    #[test]
    fn a_row_end_in_padding_is_rejected_before_replay() {
        let clean = two_row_stream();
        let second_ptr = 1 + clean.layout().ptr_bits();
        let mut packets = clean.packets().to_vec();
        let words = packets[0].words_mut();
        words[0] = (words[0] & !(0xf << second_ptr)) | (5 << second_ptr);
        let err = rebuilt(&clean, packets).unwrap_err();
        assert!(
            err.to_string().contains("row end 5 beyond 3 real entries"),
            "{err}"
        );
    }

    /// The engine's chunk step on [`two_row_stream`]: its one packet
    /// decoded through `layout` and cut at its real entries, then
    /// replayed with row 1's recorded end moved to 5 — into the padding.
    /// Should such an end ever reach replay, replay must hit its slice
    /// bound, never read the padding.
    fn replay_with_row_end_in_padding(layout: PacketLayout) {
        let bs = two_row_stream();
        assert_eq!(bs.row_ends().1, [1, 3]);
        let b = layout.entries_per_packet() as usize;
        let (mut idx, mut dvals) = (vec![0; b], vec![Q1_19::decode(0); b]);
        bs.packets()[0].decode_fields(layout, &mut idx, &mut dvals, Q1_19::decode);
        let len = bs.stored_entries() as usize;
        let chunk = Chunk {
            dvals: &dvals[..len],
            idx: &idx[..len],
            first_row: 0,
            ends: &[1, 5],
            per_packet: b,
            r_limit: u32::MAX,
        };
        let x = ones(1024);
        let mut lane = QueryLane {
            tracker: TopKTracker::new(8),
            carry: Q1_19::acc_zero(),
        };
        let sums = Sums {
            tile: &mut [],
            lane: &mut [Q1_19::acc_zero(); 4],
        };
        replay::<_, _, false>(
            std::slice::from_mut(&mut lane),
            &[],
            &[&x],
            1024,
            chunk,
            sums,
            Q1_19::acc_add,
        );
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 3")]
    fn row_end_in_padding_panics_with_the_constant_layout() {
        replay_with_row_end_in_padding(const { PacketLayout::paper(20) });
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 3")]
    fn row_end_in_padding_panics_with_the_runtime_layout() {
        replay_with_row_end_in_padding(black_box(two_row_stream().layout()));
    }
}
