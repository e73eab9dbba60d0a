//! Snapshot persistence properties, across every backend family:
//!
//! 1. **Round trip** — `PreparedMatrix::load` of a saved snapshot
//!    answers queries element-wise identical to the fresh `prepare` it
//!    was saved from. For the accelerator that means the *encoded*
//!    BS-CSR partitions survive the disk trip bit-exactly (the load
//!    skips the encode entirely); for the CSR-backed baselines the
//!    source matrix does.
//! 2. **Robustness** — a damaged snapshot (truncated, bit-flipped,
//!    version-skewed, precision-skewed) fails with the *right* typed
//!    [`SnapshotError`], never a panic, a wrap, or a silent mis-load.

use std::sync::Arc;

use proptest::prelude::*;
use tkspmv::backend::{BackendStats, PreparedMatrix, TopKBackend};
use tkspmv::{Accelerator, PrunedBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::PruneBits;
use tkspmv_sparse::codec::crc32;
use tkspmv_sparse::snapshot::{SnapshotError, PRUNE_SECTION_VERSION, SNAPSHOT_VERSION};
use tkspmv_sparse::{Csr, DenseVector};

fn small_accelerator() -> Arc<dyn TopKBackend> {
    Arc::new(
        Accelerator::builder()
            .cores(4)
            .k(8)
            .build()
            .expect("small design builds"),
    )
}

/// Every backend family in the workspace, including the staged prune +
/// rescore pipeline (whose snapshots carry a companion section) around
/// both payload kinds of inner backend.
fn all_backends() -> Vec<Arc<dyn TopKBackend>> {
    vec![
        small_accelerator(),
        Arc::new(CpuTopK::new(2)),
        Arc::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F32)),
        Arc::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F16).with_zero_cost_sort()),
        Arc::new(
            PrunedBackend::new(Arc::new(CpuTopK::new(2)), PruneBits::Eight, 4)
                .expect("factor 4 is valid"),
        ),
        pruned_accelerator(),
    ]
}

/// The staged pipeline around the accelerator: it persists the source
/// CSR (not the inner backend's encoded partitions) plus the companion.
fn pruned_accelerator() -> Arc<dyn TopKBackend> {
    Arc::new(
        PrunedBackend::new(small_accelerator(), PruneBits::Eight, 4).expect("factor 4 is valid"),
    )
}

fn save_to_vec(backend: &dyn TopKBackend, prepared: &PreparedMatrix) -> Vec<u8> {
    let mut buf = Vec::new();
    prepared.save(backend, &mut buf).expect("snapshot saves");
    buf
}

/// A deterministic snapshot of `backend` for the corruption table tests.
fn snapshot_bytes(backend: Arc<dyn TopKBackend>) -> (Arc<dyn TopKBackend>, Vec<u8>) {
    let csr = tkspmv_sparse::gen::SyntheticConfig {
        num_rows: 200,
        num_cols: 128,
        avg_nnz_per_row: 10,
        distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
        seed: 7,
    }
    .generate();
    let prepared = backend.prepare(&csr).expect("prepare");
    let bytes = save_to_vec(backend.as_ref(), &prepared);
    (backend, bytes)
}

fn accelerator_snapshot_bytes() -> (Arc<dyn TopKBackend>, Vec<u8>) {
    snapshot_bytes(small_accelerator())
}

/// Re-seals a patched snapshot so its CRC passes again — proving the
/// *semantic* layer (not just the checksum) catches the defect.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
}

#[test]
fn truncated_snapshots_fail_typed_at_every_cut() {
    // Both payload kinds: encoded partitions, and CSR + companion.
    for (backend, bytes) in [
        accelerator_snapshot_bytes(),
        snapshot_bytes(pruned_accelerator()),
    ] {
        // A dense sweep near the front (header fields) plus spread cuts
        // through the payload and the trailer.
        let mut cuts: Vec<usize> = (0..64).collect();
        cuts.extend([
            bytes.len() / 4,
            bytes.len() / 2,
            bytes.len() - 5,
            bytes.len() - 1,
        ]);
        for cut in cuts {
            match PreparedMatrix::load(backend.as_ref(), &bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!(
                    "{}: cut at {cut}: expected Truncated, got {other:?}",
                    backend.name()
                ),
            }
        }
    }
}

/// What the staged pipeline saves over an accelerator, it loads — and so
/// does the plain accelerator, which prepares the CSR payload and
/// ignores the companion.
#[test]
fn pruned_accelerator_snapshot_loads_on_both_backends() {
    let (staged, bytes) = snapshot_bytes(pruned_accelerator());
    let loaded = PreparedMatrix::load(staged.as_ref(), bytes.as_slice())
        .expect("the staged pipeline loads its own snapshot");
    let x = tkspmv_sparse::gen::query_vector(128, 3);
    let got = staged.query(&loaded, &x, 10).expect("staged query");
    assert!(
        matches!(got.stats, BackendStats::Pruned { pruned: true, .. }),
        "the companion must survive the round trip, got {:?}",
        got.stats
    );

    let plain = small_accelerator();
    let adopted = PreparedMatrix::load(plain.as_ref(), bytes.as_slice())
        .expect("the plain inner backend loads a pruned snapshot");
    let (_, own_bytes) = accelerator_snapshot_bytes();
    let own = PreparedMatrix::load(plain.as_ref(), own_bytes.as_slice()).expect("own snapshot");
    assert_eq!(
        plain.query(&adopted, &x, 10).expect("query").topk,
        plain.query(&own, &x, 10).expect("query").topk,
        "CSR-adopted and partition-adopted matrices must answer alike"
    );
}

#[test]
fn flipped_crc_byte_fails_the_checksum() {
    let (backend, mut bytes) = accelerator_snapshot_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    match PreparedMatrix::load(backend.as_ref(), bytes.as_slice()) {
        Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_version_fails_typed() {
    // A newer version, and version 1 (the pre-companion layout, which
    // no build writes any more): both are skew, neither is guessed at.
    for skewed in [SNAPSHOT_VERSION + 1, 1] {
        let (backend, mut bytes) = accelerator_snapshot_bytes();
        bytes[8..10].copy_from_slice(&skewed.to_le_bytes());
        match PreparedMatrix::load(backend.as_ref(), bytes.as_slice()) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, skewed);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("v{skewed}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn wrong_precision_tag_fails_typed() {
    // An unknown tag byte is detected even with a valid CRC.
    let (backend, mut bytes) = accelerator_snapshot_bytes();
    bytes[11] = 99;
    reseal(&mut bytes);
    assert!(matches!(
        PreparedMatrix::load(backend.as_ref(), bytes.as_slice()),
        Err(SnapshotError::UnknownPrecision { tag: 99 })
    ));
    // A known-but-wrong tag contradicts the layout's value width.
    let (backend, mut bytes) = accelerator_snapshot_bytes();
    bytes[11] = 3; // Fixed32 in a 20-bit stream
    reseal(&mut bytes);
    assert!(matches!(
        PreparedMatrix::load(backend.as_ref(), bytes.as_slice()),
        Err(SnapshotError::Invalid { .. })
    ));
    // And a backend of another precision is refused by family before the
    // payload is even adopted (the family string carries the precision).
    let (_, bytes) = accelerator_snapshot_bytes();
    let b32: Arc<dyn TopKBackend> = Arc::new(
        Accelerator::builder()
            .precision(tkspmv_fixed::Precision::Fixed32)
            .cores(4)
            .k(8)
            .build()
            .expect("32-bit design builds"),
    );
    assert!(matches!(
        PreparedMatrix::load(b32.as_ref(), bytes.as_slice()),
        Err(SnapshotError::FamilyMismatch { .. })
    ));
}

/// The deterministic collection the companion-section tests share, and
/// a CPU backend pair: the plain engine and the staged pipeline wrapped
/// around it (both write the same `cpu` header + CSR payload bytes —
/// the staged one just appends a companion section).
fn cpu_pair() -> (Arc<dyn TopKBackend>, PrunedBackend, Csr) {
    let cpu: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
    let staged =
        PrunedBackend::new(Arc::clone(&cpu), PruneBits::Eight, 4).expect("factor 4 is valid");
    let csr = tkspmv_sparse::gen::SyntheticConfig {
        num_rows: 200,
        num_cols: 128,
        avg_nnz_per_row: 10,
        distribution: tkspmv_sparse::gen::NnzDistribution::Uniform,
        seed: 7,
    }
    .generate();
    (cpu, staged, csr)
}

#[test]
fn companion_section_version_skew_fails_typed() {
    let (cpu, staged, csr) = cpu_pair();
    // Both backends serialize identical bytes up to the companion tag,
    // so the companion-free stream length locates the tag byte and the
    // section version field inside the companion-bearing stream.
    let len_none = save_to_vec(cpu.as_ref(), &cpu.prepare(&csr).expect("prepare")).len();
    let sp = staged.prepare(&csr).expect("staged prepare");
    let mut bytes = save_to_vec(&staged, &sp);
    assert!(
        bytes.len() > len_none,
        "companion section should be present"
    );
    assert_eq!(
        bytes[len_none - 5],
        1,
        "companion tag byte should read `prune`"
    );
    bytes[len_none - 4..len_none - 2].copy_from_slice(&0x7Fu16.to_le_bytes());
    reseal(&mut bytes);
    match PreparedMatrix::load(&staged, bytes.as_slice()) {
        Err(SnapshotError::UnsupportedCompanionVersion { found, supported }) => {
            assert_eq!(found, 0x7F);
            assert_eq!(supported, PRUNE_SECTION_VERSION);
        }
        other => panic!("expected UnsupportedCompanionVersion, got {other:?}"),
    }
}

#[test]
fn not_a_snapshot_fails_typed() {
    let (backend, _) = accelerator_snapshot_bytes();
    assert!(matches!(
        PreparedMatrix::load(backend.as_ref(), &b"%%MatrixMarket matrix"[..]),
        Err(SnapshotError::BadMagic { .. })
    ));
}

/// A random matrix, a few query vectors, and a coverable `k`.
fn arb_case() -> impl Strategy<Value = (Csr, Vec<DenseVector>, usize)> {
    (24usize..60, 8usize..48, 1usize..9).prop_flat_map(|(rows, cols, k)| {
        let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..150)
            .prop_map(move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i * 13 % 89) + 1) as f32 / 100.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid")
            });
        let queries = proptest::collection::vec(
            proptest::collection::vec(0.0f32..1.0, cols..=cols).prop_map(DenseVector::from_values),
            1..5,
        );
        (matrix, queries, Just(k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn save_load_answers_equal_fresh_prepare_for_every_backend(
        (csr, queries, k) in arb_case()
    ) {
        let k = k.min(csr.num_rows());
        for backend in all_backends() {
            let fresh = backend.prepare(&csr).expect("prepare");
            let bytes = save_to_vec(backend.as_ref(), &fresh);
            let loaded = PreparedMatrix::load(backend.as_ref(), bytes.as_slice())
                .expect("snapshot loads");
            prop_assert_eq!(loaded.family(), fresh.family());
            prop_assert_eq!(loaded.num_rows(), fresh.num_rows());
            prop_assert_eq!(loaded.num_cols(), fresh.num_cols());
            prop_assert_eq!(loaded.nnz(), fresh.nnz());
            for x in &queries {
                let a = backend.query(&fresh, x, k).expect("fresh query");
                let b = backend.query(&loaded, x, k).expect("loaded query");
                prop_assert_eq!(
                    &a.topk, &b.topk,
                    "{}: loaded snapshot diverged from fresh prepare", backend.name()
                );
            }
        }
    }
}
