//! Property tests for the allocation-free packet decode path:
//! `BsCsr::view_into` must parse any valid packet stream exactly as the
//! reference parse does — a sequential `BitReader` walk — and a reused
//! scratch must never leak state from a previously parsed packet.

use proptest::prelude::*;
use tkspmv::{quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity};
use tkspmv_fixed::{Q1_19, Q1_31};
use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::{BitReader, BsCsr, Csr, PacketLayout, PacketScratch};

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

/// The fields `view_into` fills, lifted out of the scratch for
/// comparison against the oracle.
fn scratch_fields(s: &PacketScratch) -> (bool, Vec<u32>, Vec<u32>, Vec<u64>) {
    (s.new_row, s.row_ends.clone(), s.idx.clone(), s.val.clone())
}

/// Independent reference decoder: a sequential `BitReader` walk over
/// every field, including the padding fields the production decoder
/// drops. It shares no code with the two-word extract under `view_into`.
fn bitreader_oracle(bs: &BsCsr, p: usize) -> (bool, Vec<u32>, Vec<u32>, Vec<u64>) {
    let layout = bs.layout();
    let b = layout.entries_per_packet() as usize;
    let real = bs.entries_in_packet(p);
    let mut r = BitReader::new(&bs.packets()[p]);
    let new_row = r.read(1) == 1;
    let mut row_ends = Vec::new();
    for _ in 0..b {
        let v = r.read(layout.ptr_bits()) as u32;
        if v != 0 {
            row_ends.push(v);
        }
    }
    let mut idx = Vec::new();
    for j in 0..b {
        let v = r.read(layout.idx_bits()) as u32;
        if j < real {
            idx.push(v);
        }
    }
    let mut val = Vec::new();
    for j in 0..b {
        let v = r.read(layout.value_bits());
        if j < real {
            val.push(v);
        }
    }
    (new_row, row_ends, idx, val)
}

/// Pollutes a scratch so any field `view_into` fails to overwrite shows
/// up as a mismatch (stale lengths, stale values, stale `new_row`).
fn pollute(s: &mut PacketScratch) {
    s.new_row = !s.new_row;
    s.row_ends.extend([u32::MAX, 7, 7, 0]);
    s.idx.extend([u32::MAX; 40]);
    s.val.extend([u64::MAX; 40]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// "parse" is the reference parse: the `BitReader` oracle above.
    #[test]
    fn parse_into_matches_parse_for_any_packet_stream(csr in arb_matrix()) {
        // The largest-B layout at both widths, and Fig. 6a's B = 5.
        let layouts = [
            PacketLayout::solve(csr.num_cols(), 20).unwrap(),
            PacketLayout::solve(csr.num_cols(), 32).unwrap(),
            PacketLayout::with_entries(csr.num_cols(), 20, 5).unwrap(),
        ];
        for layout in layouts {
            let value_bits = layout.value_bits();
            let bs = if value_bits == 20 {
                BsCsr::encode::<Q1_19>(&csr, layout)
            } else {
                BsCsr::encode::<Q1_31>(&csr, layout)
            };
            // One scratch reused across the whole stream, in order.
            let mut scratch = PacketScratch::new();
            for p in 0..bs.num_packets() {
                let oracle = bitreader_oracle(&bs, p);
                bs.view_into(p, &mut scratch);
                prop_assert_eq!(
                    scratch_fields(&scratch),
                    oracle.clone(),
                    "scratch decode vs BitReader oracle, packet {} of {} ({:?})",
                    p, bs.num_packets(), layout
                );
                let (_, row_ends, idx, _) = oracle;
                prop_assert_eq!(scratch.len(), idx.len());
                prop_assert_eq!(scratch.is_empty(), idx.is_empty());
                prop_assert_eq!(
                    scratch.tail_len(),
                    idx.len() - row_ends.last().copied().unwrap_or(0) as usize
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_never_leaks_previous_packet_state(csr in arb_matrix()) {
        let layout = PacketLayout::solve(csr.num_cols(), 20).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout);
        // Parse the stream backwards with a scratch polluted before every
        // packet: each parse must fully overwrite whatever was there.
        let mut scratch = PacketScratch::new();
        for p in (0..bs.num_packets()).rev() {
            pollute(&mut scratch);
            bs.view_into(p, &mut scratch);
            prop_assert_eq!(
                scratch_fields(&scratch),
                bitreader_oracle(&bs, p),
                "packet {} parsed into a dirty scratch", p
            );
        }
        // And parsing the same packet twice is idempotent.
        if bs.num_packets() > 0 {
            bs.view_into(0, &mut scratch);
            let first = scratch_fields(&scratch);
            bs.view_into(0, &mut scratch);
            prop_assert_eq!(scratch_fields(&scratch), first);
        }
    }

    /// A long-lived [`BatchScratch`] streamed through batches of
    /// wildly varying size (growing, shrinking, B = 1) and different
    /// matrices must behave exactly like a fresh scratch every time:
    /// stale lanes from a larger previous batch, stale segment programs
    /// and stale decoded values must never reach a later result.
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
            // Alternate matrices so a stale carry/segment program from
            // one stream would corrupt the next.
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
