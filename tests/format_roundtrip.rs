//! Property-based round-trip tests for the storage formats.

use proptest::prelude::*;
use tkspmv_fixed::{F32, Q1_19, Q1_24, Q1_31};
use tkspmv_sparse::{BsCsr, Csr, PacketLayout};

/// Strategy: a random sparse matrix as sorted unique triplets with
/// values in the unsigned datapath domain (0, 1].
fn arb_matrix() -> impl Strategy<Value = Csr> {
    (1usize..40, 1usize..200).prop_flat_map(|(rows, cols)| {
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

fn assert_csr_close(a: &Csr, b: &Csr, tol: f32) {
    assert_eq!(a.num_rows(), b.num_rows());
    assert_eq!(a.num_cols(), b.num_cols());
    assert_eq!(a.row_ptr(), b.row_ptr());
    assert_eq!(a.col_idx(), b.col_idx());
    for (x, y) in a.values().iter().zip(b.values()) {
        assert!((x - y).abs() <= tol, "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bscsr_roundtrip_q20(csr in arb_matrix()) {
        let layout = PacketLayout::solve(csr.num_cols(), 20).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout);
        // 20-bit grid: half-ulp error.
        assert_csr_close(&csr, &bs.decode::<Q1_19>(), 1.0 / (1 << 19) as f32);
    }

    #[test]
    fn bscsr_roundtrip_q25(csr in arb_matrix()) {
        let layout = PacketLayout::solve(csr.num_cols(), 25).unwrap();
        let bs = BsCsr::encode::<Q1_24>(&csr, layout);
        assert_csr_close(&csr, &bs.decode::<Q1_24>(), 1.0 / (1 << 24) as f32);
    }

    #[test]
    fn bscsr_roundtrip_q32_and_f32(csr in arb_matrix()) {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        // Q1.31 quantisation error is below f32 resolution here.
        let bs = BsCsr::encode::<Q1_31>(&csr, layout);
        assert_csr_close(&csr, &bs.decode::<Q1_31>(), 2e-7);
        // F32 is bit-exact.
        let bs = BsCsr::encode::<F32>(&csr, layout);
        prop_assert_eq!(&csr, &bs.decode::<F32>());
    }

    #[test]
    fn bscsr_entry_stream_matches_csr(csr in arb_matrix()) {
        // Each row stores max(1, nnz) entries (a placeholder for an
        // empty row), and rows rebuilt from packet metadata alone give
        // back the source CSR.
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        let stored: usize = (0..csr.num_rows()).map(|r| csr.row_nnz(r).max(1)).sum();
        prop_assert_eq!(bs.stored_entries(), stored as u64);
        prop_assert_eq!(bs.logical_nnz(), csr.nnz() as u64);
        prop_assert_eq!(&csr, &bs.decode::<F32>());
    }

    #[test]
    fn mtx_write_read_roundtrip(csr in arb_matrix()) {
        // MatrixMarket text is a lossless carrier for f32 values (Rust
        // prints round-trippable float literals).
        let mut buf = Vec::new();
        tkspmv_sparse::io::write_mtx(&mut buf, &csr).expect("write to Vec");
        let back = tkspmv_sparse::io::read_mtx(buf.as_slice()).expect("parse own output");
        prop_assert_eq!(&csr, &back);
    }

    #[test]
    fn packet_count_matches_layout_arithmetic(csr in arb_matrix()) {
        let layout = PacketLayout::solve(csr.num_cols(), 20).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout);
        prop_assert_eq!(
            bs.num_packets() as u64,
            layout.packets_for(bs.stored_entries())
        );
        prop_assert_eq!(bs.size_bytes(), bs.num_packets() as u64 * 64);
    }
}
