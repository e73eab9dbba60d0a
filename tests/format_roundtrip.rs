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
        // Row/col reconstruction from packet metadata alone must agree
        // with the source CSR (ignoring placeholder entries).
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        let mut decoded: Vec<(u32, u32)> = Vec::new();
        let mut per_row = vec![0u32; csr.num_rows()];
        for (r, c, _) in bs.entries() {
            per_row[r as usize] += 1;
            decoded.push((r, c));
        }
        // Each row contributed max(1, nnz) entries (placeholders for
        // empty rows).
        for (r, &count) in per_row.iter().enumerate() {
            prop_assert_eq!(count as usize, csr.row_nnz(r).max(1));
        }
        // Non-placeholder entries appear in CSR order.
        let expected: Vec<(u32, u32)> = (0..csr.num_rows())
            .flat_map(|r| csr.row(r).map(move |(c, _)| (r as u32, c)))
            .collect();
        let real: Vec<(u32, u32)> = decoded
            .into_iter()
            .filter(|&(r, c)| !(csr.row_nnz(r as usize) == 0 && c == 0))
            .collect();
        prop_assert_eq!(real, expected);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_writer_reader_inverse(fields in proptest::collection::vec((0u64..u64::MAX, 1u32..33), 1..20)) {
        use tkspmv_sparse::{BitReader, BitWriter};
        let total: u32 = fields.iter().map(|&(_, bits)| bits).sum();
        prop_assume!(total <= 512);
        let masked: Vec<(u64, u32)> = fields
            .iter()
            .map(|&(v, bits)| (v & ((1u64 << bits) - 1), bits))
            .collect();
        let mut w = BitWriter::new();
        for &(v, bits) in &masked {
            w.write(v, bits);
        }
        let packet = w.finish();
        let mut r = BitReader::new(&packet);
        for &(v, bits) in &masked {
            prop_assert_eq!(r.read(bits), v);
        }
    }
}
