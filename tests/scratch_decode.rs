//! Property tests for the packet codec and the allocation-free decode
//! path: every packet `BsCsr::encode` writes holds, at the positions a
//! bit-by-bit oracle reads, exactly the `new_row` / `ptr` / `idx` / `val`
//! fields the source CSR implies; `Packet512::decode_fields` slices the
//! `idx` / `val` fields into dirty buffers; and a reused engine scratch
//! never leaks state from a previous batch.

use proptest::prelude::*;
use tkspmv::{quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity};
use tkspmv_fixed::{SpmvScalar, Q1_19, Q1_31};
use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::{BsCsr, Csr, Packet512, PacketLayout};

/// Strategy: a random sparse matrix as sorted unique triplets with
/// values in the unsigned datapath domain (0, 1]. Two width arms: below
/// 200 columns the layouts have `ptr` regions wider than one word and
/// reach the engine as run-time values; 513..=1024 columns solve to the
/// paper's M = 1024 layouts, the ones the engine holds as constants.
fn arb_matrix() -> impl Strategy<Value = Csr> {
    (1usize..40, 1usize..200, 513usize..=1024, 0u8..2).prop_flat_map(|(rows, narrow, wide, arm)| {
        let cols = if arm == 0 { narrow } else { wide };
        proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 0..200).prop_map(
            move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i % 997) + 1) as f32 / 1000.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid by construction")
            },
        )
    })
}

/// The layouts in use: the largest `B` at both widths, and Fig. 6a's
/// `B = 5`.
fn layouts(num_cols: usize) -> [PacketLayout; 3] {
    [
        PacketLayout::solve(num_cols, 20).unwrap(),
        PacketLayout::solve(num_cols, 32).unwrap(),
        PacketLayout::with_entries(num_cols, 20, 5).unwrap(),
    ]
}

/// One packet's fields, every slot of each region (padding included):
/// `(new_row, ptr, idx, val)`.
type Fields = (bool, Vec<u32>, Vec<u32>, Vec<u64>);

/// Bit-by-bit reference read of the `bits`-wide field at bit `pos`. It
/// shares no code with the codec's two-word field access.
fn read_bits(p: &Packet512, pos: usize, bits: u32) -> u64 {
    (0..bits as usize).fold(0, |acc, i| {
        acc | ((p.words()[(pos + i) / 64] >> ((pos + i) % 64)) & 1) << i
    })
}

/// The oracle: all fields of a packet, at positions derived from the
/// layout widths alone — `new_row` at bit 0, then `B` ptr slots, `B`
/// idx slots and `B` val slots back to back.
fn oracle(p: &Packet512, layout: PacketLayout) -> Fields {
    let b = layout.entries_per_packet() as usize;
    let (pb, ib, vb) = (layout.ptr_bits(), layout.idx_bits(), layout.value_bits());
    let (idx_base, val_base) = (1 + b * pb as usize, 1 + b * (pb + ib) as usize);
    let slot = |base: usize, bits: u32, j: usize| read_bits(p, base + j * bits as usize, bits);
    (
        read_bits(p, 0, 1) == 1,
        (0..b).map(|j| slot(1, pb, j) as u32).collect(),
        (0..b).map(|j| slot(idx_base, ib, j) as u32).collect(),
        (0..b).map(|j| slot(val_base, vb, j)).collect(),
    )
}

/// What every packet must hold, derived from the source CSR: the row
/// stream (an empty row stores one `(0, 0)` placeholder) cut into
/// packets of `B`; `ptr` lists the 1-based in-packet counts at which
/// rows end; a packet starts a new row unless the previous packet's
/// last entry left one open; unused slots are 0.
fn expected<S: SpmvScalar>(csr: &Csr, layout: PacketLayout) -> Vec<Fields> {
    let b = layout.entries_per_packet() as usize;
    // (col, raw value, ends its row)
    let mut stream: Vec<(u32, u64, bool)> = Vec::new();
    for r in 0..csr.num_rows() {
        let row: Vec<(u32, u64)> = csr.row(r).map(|(c, v)| (c, S::encode(v as f64))).collect();
        let row = if row.is_empty() { vec![(0, 0)] } else { row };
        let last = row.len() - 1;
        stream.extend(
            row.into_iter()
                .enumerate()
                .map(|(j, (c, v))| (c, v, j == last)),
        );
    }
    stream
        .chunks(b)
        .enumerate()
        .map(|(p, chunk)| {
            let new_row = p == 0 || stream[p * b - 1].2;
            let ends = (0..chunk.len())
                .filter(|&j| chunk[j].2)
                .map(|j| j as u32 + 1);
            (
                new_row,
                padded(ends, b),
                padded(chunk.iter().map(|e| e.0), b),
                padded(chunk.iter().map(|e| e.1), b),
            )
        })
        .collect()
}

/// `items`, zero-filled to `b` slots.
fn padded<T: Default>(items: impl Iterator<Item = T>, b: usize) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.resize_with(b, T::default);
    v
}

fn encode(csr: &Csr, layout: PacketLayout) -> (BsCsr, Vec<Fields>) {
    if layout.value_bits() == 20 {
        (
            BsCsr::encode::<Q1_19>(csr, layout),
            expected::<Q1_19>(csr, layout),
        )
    } else {
        (
            BsCsr::encode::<Q1_31>(csr, layout),
            expected::<Q1_31>(csr, layout),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoded_packets_hold_the_source_fields_under_a_bit_oracle(csr in arb_matrix()) {
        for layout in layouts(csr.num_cols()) {
            let (bs, want) = encode(&csr, layout);
            prop_assert_eq!(bs.num_packets(), want.len());
            for (p, want) in want.into_iter().enumerate() {
                prop_assert_eq!(
                    oracle(&bs.packets()[p], layout),
                    want,
                    "packet {} of {} ({:?})", p, bs.num_packets(), layout
                );
            }
        }
    }

    /// `decode_fields` into buffers polluted before every packet (walked
    /// backwards) overwrites exactly the `B` slots of the `idx` and `val`
    /// regions, and nothing past them.
    #[test]
    fn decode_fields_into_polluted_buffers_equals_the_oracle(csr in arb_matrix()) {
        for layout in layouts(csr.num_cols()) {
            let (bs, _) = encode(&csr, layout);
            let b = layout.entries_per_packet() as usize;
            for p in (0..bs.num_packets()).rev() {
                let (mut idx, mut val) = (vec![u32::MAX; b + 3], vec![u64::MAX; b + 3]);
                let packet = bs.packets()[p];
                packet.decode_fields(layout, &mut idx, &mut val, |raw| raw);
                let (_, _, want_idx, want_val) = oracle(&packet, layout);
                prop_assert_eq!(
                    (idx[..b].to_vec(), val[..b].to_vec()),
                    (want_idx, want_val),
                    "packet {} decoded into dirty buffers ({:?})", p, layout
                );
                prop_assert!(idx[b..].iter().all(|&v| v == u32::MAX));
                prop_assert!(val[b..].iter().all(|&v| v == u64::MAX));
            }
        }
    }

    /// A long-lived [`BatchScratch`] streamed through batches of
    /// wildly varying size (growing, shrinking, B = 1) and different
    /// matrices must behave exactly like a fresh scratch every time:
    /// stale lanes from a larger previous batch, a stale carry and stale
    /// decoded values must never reach a later result.
    #[test]
    fn batch_scratch_reuse_never_leaks_across_batch_sizes(
        csr_a in arb_matrix(),
        csr_b in arb_matrix(),
        sizes in proptest::collection::vec(1usize..9, 2..6),
    ) {
        let enc = |csr: &Csr| {
            let layout = PacketLayout::solve(csr.num_cols(), 20).unwrap();
            BsCsr::encode::<Q1_19>(csr, layout)
        };
        let bs = [enc(&csr_a), enc(&csr_b)];
        let cols = [csr_a.num_cols(), csr_b.num_cols()];
        let k = 4;

        let mut reused = BatchScratch::<Q1_19>::new();
        for (round, &b) in sizes.iter().enumerate() {
            // Alternate matrices so a stale carry or chunk from one
            // stream would corrupt the next.
            let m = round % 2;
            let queries: Vec<Vec<Q1_19>> = (0..b)
                .map(|q| {
                    quantize_vector::<Q1_19>(
                        query_vector(cols[m], (round * 17 + q) as u64).as_slice(),
                    )
                })
                .collect();
            let got: Vec<_> = run_core_batch_with_scratch(
                &bs[m],
                &queries,
                k,
                Fidelity::Faithful { rows_per_packet: 2 },
                &mut reused,
            )
            .to_vec();
            let mut fresh = BatchScratch::<Q1_19>::new();
            let expected = run_core_batch_with_scratch(
                &bs[m],
                &queries,
                k,
                Fidelity::Faithful { rows_per_packet: 2 },
                &mut fresh,
            );
            prop_assert_eq!(got.len(), expected.len());
            for (lane, (g, e)) in got.iter().zip(expected).enumerate() {
                prop_assert_eq!(
                    &g.topk, &e.topk,
                    "round {} (B={}) lane {}: reused scratch diverged", round, b, lane
                );
                prop_assert_eq!(g.stats, e.stats);
            }
        }
    }
}
