//! Hostile-frame tests of the fabric wire protocol: a corruption table
//! over every framing failure mode, checked twice — once against the
//! decoder directly (the typed `WireError` the client library reports)
//! and once against a live node over TCP (the node answers corruption
//! with one typed error frame, closes the connection, and keeps serving
//! everyone else).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tkspmv::backend::QueryTier;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::wire::{
    encode_frame, read_frame, read_response, Frame, FrameKind, Request, Response, HEADER_LEN,
    MAX_BODY_LEN, WIRE_VERSION,
};
use tkspmv_fabric::{DeltaCollection, NodeClient, NodeServer, RpcError, WireError};
use tkspmv_obs::TraceId;
use tkspmv_serve::TopKService;
use tkspmv_sparse::Csr;

const DEADLINE: Duration = Duration::from_secs(10);

fn diag_node(rows: usize) -> NodeServer {
    let row_ptr = (0..=rows as u64).collect();
    let col_idx = (0..rows as u32).collect();
    let values = (0..rows).map(|r| 1.0 + r as f32).collect();
    let csr = Csr::from_parts(rows, rows, row_ptr, col_idx, values).expect("valid csr");
    let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
        .build(&csr)
        .expect("service");
    let collection = Arc::new(DeltaCollection::new(service, csr, 0));
    NodeServer::spawn(collection, "127.0.0.1:0").expect("bind")
}

fn healthy_query_frame() -> Vec<u8> {
    let (kind, body) = Request::Query {
        x: vec![0.25; 8],
        k: 3,
        tier: QueryTier::Exact,
        trace: TraceId::ZERO,
    }
    .encode();
    encode_frame(kind, &body)
}

/// One corruption-table row: a name, a mutation of a healthy frame,
/// and the typed error the decoder must report.
type CorruptionRow = (&'static str, Vec<u8>, fn(&WireError) -> bool);

fn corruption_table() -> Vec<CorruptionRow> {
    let healthy = healthy_query_frame();
    let mut rows: Vec<CorruptionRow> = Vec::new();

    let mut bad_magic = healthy.clone();
    bad_magic[0] = b'Z';
    rows.push((
        "bad magic",
        bad_magic,
        |e| matches!(e, WireError::BadMagic { found } if found[0] == b'Z'),
    ));

    let mut skew = healthy.clone();
    skew[4..6].copy_from_slice(&9u16.to_le_bytes());
    rows.push(("version skew", skew, |e| {
        matches!(
            e,
            WireError::VersionSkew {
                found: 9,
                expected: WIRE_VERSION
            }
        )
    }));

    // Version 1 (these bodies minus the trace fields) has no writer
    // left; it is skew like any other version.
    let mut v1 = healthy.clone();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    rows.push(("version 1", v1, |e| {
        matches!(
            e,
            WireError::VersionSkew {
                found: 1,
                expected: WIRE_VERSION
            }
        )
    }));

    let mut unknown_kind = healthy.clone();
    unknown_kind[6] = 0xAB;
    rows.push(("unknown kind", unknown_kind, |e| {
        matches!(e, WireError::UnknownKind { kind: 0xAB })
    }));

    let mut oversized = healthy.clone();
    oversized[8..12].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
    rows.push(("oversized length prefix", oversized, |e| {
        matches!(e, WireError::FrameTooLarge { len, max } if *len == MAX_BODY_LEN + 1 && *max == MAX_BODY_LEN)
    }));

    rows.push((
        "truncated header",
        healthy[..HEADER_LEN - 4].to_vec(),
        |e| matches!(e, WireError::Truncated { .. }),
    ));

    rows.push(("truncated body", healthy[..HEADER_LEN + 3].to_vec(), |e| {
        matches!(e, WireError::Truncated { .. })
    }));

    rows.push((
        "truncated CRC trailer",
        healthy[..healthy.len() - 1].to_vec(),
        |e| matches!(e, WireError::Truncated { .. }),
    ));

    let mut flipped = healthy.clone();
    let mid = HEADER_LEN + (flipped.len() - HEADER_LEN - 4) / 2;
    flipped[mid] ^= 0x40;
    rows.push(("flipped body bit", flipped, |e| {
        matches!(e, WireError::CrcMismatch { .. })
    }));

    let mut flipped_crc = healthy;
    let last = flipped_crc.len() - 1;
    flipped_crc[last] ^= 0x01;
    rows.push(("flipped CRC byte", flipped_crc, |e| {
        matches!(e, WireError::CrcMismatch { .. })
    }));

    rows
}

#[test]
fn every_corruption_is_a_distinct_typed_error() {
    for (name, bytes, check) in corruption_table() {
        match read_frame(&mut bytes.as_slice()) {
            Err(e) => assert!(check(&e), "{name}: wrong error {e:?}"),
            Ok(f) => panic!("{name}: decoded as {f:?}"),
        }
    }
}

#[test]
fn forged_element_counts_fail_typed_without_the_allocation() {
    // Each body declares astronomically more elements than it carries;
    // decoding must fail on the count check, not attempt the reserve.
    let forged: Vec<(&str, FrameKind, Vec<u8>)> = vec![
        (
            "topk entries",
            FrameKind::TopK,
            u32::MAX.to_le_bytes().to_vec(),
        ),
        (
            "append ids",
            FrameKind::AppendOk,
            u32::MAX.to_le_bytes().to_vec(),
        ),
        ("query values", FrameKind::Query, {
            let mut b = vec![];
            b.extend_from_slice(&3u32.to_le_bytes()); // k
            b.push(0); // exact tier
            b.extend_from_slice(&u32::MAX.to_le_bytes()); // dim
            b
        }),
        (
            "append rows",
            FrameKind::Append,
            u32::MAX.to_le_bytes().to_vec(),
        ),
    ];
    for (name, kind, body) in forged {
        let frame = Frame {
            version: WIRE_VERSION,
            kind,
            body,
        };
        let failed = match kind {
            FrameKind::Query | FrameKind::Append => Request::decode(&frame).is_err(),
            _ => Response::decode(&frame).is_err(),
        };
        assert!(failed, "{name}: forged count decoded");
    }
}

#[test]
fn live_node_answers_corruption_typed_and_keeps_serving() {
    let node = diag_node(6);
    for (name, bytes, _) in corruption_table() {
        let mut raw = TcpStream::connect(node.local_addr()).expect("connect");
        raw.set_read_timeout(Some(DEADLINE)).expect("timeout");
        raw.write_all(&bytes).expect("write");
        let truncated = name.starts_with("truncated");
        if truncated {
            // A truncated frame only manifests when the stream closes.
            raw.shutdown(std::net::Shutdown::Write).expect("half-close");
            // The node sees EOF mid-frame and hangs up without a frame —
            // there is no request to answer. Read must not hang.
            match read_response(&mut raw) {
                Err(_) => {}
                Ok(resp) => panic!("{name}: node answered {resp:?} to silence"),
            }
        } else {
            match read_response(&mut raw).unwrap_or_else(|e| panic!("{name}: no answer: {e}")) {
                Response::Error(RpcError::BadRequest { detail }) => {
                    assert!(!detail.is_empty(), "{name}: empty detail");
                }
                other => panic!("{name}: unexpected {other:?}"),
            }
        }
        // The node survives every corrupted connection: a healthy
        // client still gets ranked answers.
        let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
        let mut x = vec![0.0f32; 6];
        x[4] = 1.0;
        let entries = client
            .query(&x, 1, QueryTier::Exact, DEADLINE)
            .unwrap_or_else(|e| panic!("after {name}: healthy query failed: {e}"));
        assert_eq!(entries[0], (4, 5.0), "after {name}");
    }
    node.shutdown();
}

#[test]
fn version_skew_detail_names_both_versions() {
    let node = diag_node(3);
    let mut raw = TcpStream::connect(node.local_addr()).expect("connect");
    raw.set_read_timeout(Some(DEADLINE)).expect("timeout");
    let mut bytes = healthy_query_frame();
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    raw.write_all(&bytes).expect("write");
    match read_response(&mut raw).expect("typed answer") {
        Response::Error(RpcError::BadRequest { detail }) => {
            assert!(detail.contains("v7"), "{detail}");
            assert!(detail.contains("v2"), "{detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    node.shutdown();
}

#[test]
fn oversized_prefix_is_rejected_without_draining_the_body() {
    // Send only the hostile header — if the node tried to read (or
    // preallocate) the declared 4 GiB body it would block forever; the
    // typed rejection must come back immediately.
    let node = diag_node(3);
    let mut raw = TcpStream::connect(node.local_addr()).expect("connect");
    raw.set_read_timeout(Some(DEADLINE)).expect("timeout");
    let mut header = healthy_query_frame()[..HEADER_LEN].to_vec();
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&header).expect("write");
    match read_response(&mut raw).expect("typed answer") {
        Response::Error(RpcError::BadRequest { detail }) => {
            assert!(detail.contains("cap"), "{detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    node.shutdown();
}
