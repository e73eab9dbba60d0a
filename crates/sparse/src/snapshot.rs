//! Persisted index snapshots: a versioned, checksummed binary container
//! for encoded collections.
//!
//! The paper's premise is that the BS-CSR encode + HBM placement is a
//! one-time cost amortised over many queries — but a cost paid from raw
//! CSR on *every process start* is not amortised at all. A [`Snapshot`]
//! captures a backend's prepared form on disk so a server restart (or a
//! replica fleet) pays the encode once and `load`s thereafter:
//!
//! ```text
//! offset  field
//! 0       magic "TKSPSNAP" (8 bytes)
//! 8       format version (u16 LE)
//! 10      payload kind    (u8: 0 = CSR arrays, 1 = BS-CSR partitions)
//! 11      precision tag   (u8: 0 = none, else Precision)
//! 12      family length   (u16 LE) + family UTF-8 bytes
//! ..      num_rows, num_cols, nnz (u64 LE each)
//! ..      payload (see [`SnapshotPayload`])
//! ..      companion tag   (u8: 0 = none, 1 = prune index; v2+ only)
//! ..      companion section (tag 1 only, self-versioned; see below)
//! end-4   CRC-32 (IEEE) of every preceding byte (u32 LE)
//! ```
//!
//! Everything is little-endian. Reading verifies the magic, version,
//! tags, structural invariants of the payload (including a full
//! [`BsCsr::validate`] pass per partition, exactly as a host validates
//! data read back from device memory), and the CRC trailer; every
//! failure mode is a distinct [`SnapshotError`] so callers can tell a
//! truncated copy from a corrupted one from a version skew.
//!
//! The optional **companion section** after the payload is a low-bit
//! [`PruneIndex`] for the staged prune + rescore query pipeline. It
//! carries its own version field ([`PRUNE_SECTION_VERSION`]) so the
//! companion codec can evolve independently of the container; a skewed
//! companion version fails with
//! [`SnapshotError::UnsupportedCompanionVersion`].
//!
//! **Versions.** This build writes and reads exactly
//! [`SNAPSHOT_VERSION`]. Any other version — including version 1, which
//! predates the companion tag and has no writer left — fails with
//! [`SnapshotError::UnsupportedVersion`]; re-`prepare` and save again.
//!
//! The bytes are read and written through [`crate::codec`]: streaming,
//! O(chunk) memory beyond the decoded arrays, every byte hashed as it
//! passes.
//!
//! # Example
//!
//! ```
//! use tkspmv_sparse::snapshot::{Snapshot, SnapshotPayload};
//! use tkspmv_sparse::Csr;
//!
//! let csr = Csr::from_triplets(2, 4, &[(0, 1, 0.5), (1, 3, 0.25)])?;
//! let snap = Snapshot {
//!     family: "cpu".to_string(),
//!     num_rows: 2,
//!     num_cols: 4,
//!     nnz: 2,
//!     payload: SnapshotPayload::Csr(csr),
//!     companion: None,
//! };
//! let mut buf = Vec::new();
//! snap.write_to(&mut buf)?;
//! let back = Snapshot::read_from(buf.as_slice())?;
//! assert_eq!(back.family, "cpu");
//! assert_eq!(back.nnz, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{BufWriter, Read, Write};

use tkspmv_fixed::{Precision, PruneBits};

use crate::bscsr::BsCsr;
use crate::codec::{write_le, CodecError, CrcIo, Reader};
use crate::csr::Csr;
use crate::layout::PacketLayout;
use crate::packet::Packet512;
use crate::prune::PruneIndex;

/// The 8-byte magic every snapshot stream starts with.
const SNAPSHOT_MAGIC: [u8; 8] = *b"TKSPSNAP";

/// The one snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Version of the companion prune-index section codec, carried inside
/// the section so it can evolve independently of the container format.
pub const PRUNE_SECTION_VERSION: u16 = 1;

/// Packets per bulk read of a partition's stream (256 KiB): the load
/// path exists to beat re-encoding, and a 1M-nnz collection is ~70k
/// packets. Also caps what a hostile packet count reserves up front.
const PACKETS_PER_CHUNK: usize = 4_096;

/// Why a snapshot could not be written, read, or accepted.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Underlying I/O failure (other than a short read, which is
    /// reported as [`SnapshotError::Truncated`]).
    Io(std::io::Error),
    /// The stream does not start with the magic `"TKSPSNAP"` — not a
    /// snapshot at all.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version recorded in the stream.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The stream ended before the named section was complete.
    Truncated {
        /// Which section the short read happened in.
        section: &'static str,
    },
    /// The CRC-32 trailer does not match the bytes read — the snapshot
    /// is corrupt (bit rot, torn write, tampering).
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the stream.
        computed: u32,
    },
    /// The precision tag is not one this build knows.
    UnknownPrecision {
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload-kind tag is not one this build knows.
    UnknownPayloadKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The companion-section tag is not one this build knows.
    UnknownCompanionTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The companion prune-index section was written by an incompatible
    /// section codec version (the container itself is fine).
    UnsupportedCompanionVersion {
        /// Section version recorded in the stream.
        found: u16,
        /// Section version this build supports.
        supported: u16,
    },
    /// The snapshot belongs to a different backend family than the one
    /// trying to consume it.
    FamilyMismatch {
        /// Family recorded in the snapshot.
        snapshot: String,
        /// Family of the consuming backend.
        backend: String,
    },
    /// The stream decoded but violates a structural invariant (lengths
    /// that do not add up, an invalid packet stream, a header that
    /// contradicts the payload).
    Invalid {
        /// Which invariant failed.
        detail: String,
    },
    /// The snapshot itself is well-formed, but the backend refused to
    /// restore it (wrong precision, infeasible design, wrong payload
    /// shape for that engine).
    Rejected {
        /// The backend's explanation.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a tkspmv snapshot (magic {found:02x?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in the {section} section")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#010x}, stream hashes to {computed:#010x}"
            ),
            SnapshotError::UnknownPrecision { tag } => {
                write!(f, "unknown precision tag {tag} in snapshot header")
            }
            SnapshotError::UnknownPayloadKind { kind } => {
                write!(f, "unknown payload kind {kind} in snapshot header")
            }
            SnapshotError::UnknownCompanionTag { tag } => {
                write!(f, "unknown companion section tag {tag} in snapshot")
            }
            SnapshotError::UnsupportedCompanionVersion { found, supported } => write!(
                f,
                "companion prune-index section version {found} is not supported \
                 (this build reads {supported})"
            ),
            SnapshotError::FamilyMismatch { snapshot, backend } => write!(
                f,
                "snapshot belongs to backend family `{snapshot}`, not `{backend}`"
            ),
            SnapshotError::Invalid { detail } => {
                write!(f, "structurally invalid snapshot: {detail}")
            }
            SnapshotError::Rejected { detail } => {
                write!(f, "backend rejected the snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => SnapshotError::Io(e),
            CodecError::Truncated { what } => SnapshotError::Truncated { section: what },
            CodecError::Malformed { detail } => SnapshotError::Invalid { detail },
        }
    }
}

impl SnapshotError {
    fn invalid(detail: impl Into<String>) -> Self {
        SnapshotError::Invalid {
            detail: detail.into(),
        }
    }
}

/// The backend-specific body of a snapshot.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotPayload {
    /// Raw CSR arrays — the prepared form of the exact baselines, which
    /// keep the source matrix and re-prepare from it for free.
    Csr(Csr),
    /// Encoded per-core BS-CSR packet streams — the accelerator's
    /// prepared form, loadable without re-running the layout solve and
    /// encode.
    BsCsrPartitions {
        /// Numeric precision the partitions were encoded with.
        precision: Precision,
        /// The packet layout shared by every partition.
        layout: PacketLayout,
        /// `(first_row, packets)` per core, in ascending row order.
        partitions: Vec<(u64, BsCsr)>,
    },
}

impl SnapshotPayload {
    /// The payload-kind tag written to the header.
    fn kind_tag(&self) -> u8 {
        match self {
            SnapshotPayload::Csr(_) => 0,
            SnapshotPayload::BsCsrPartitions { .. } => 1,
        }
    }

    /// The precision tag written to the header (0 = none).
    fn precision_tag(&self) -> u8 {
        match self {
            SnapshotPayload::Csr(_) => 0,
            SnapshotPayload::BsCsrPartitions { precision, .. } => precision_to_tag(*precision),
        }
    }

    /// The encoding precision, if the payload carries one.
    pub fn precision(&self) -> Option<Precision> {
        match self {
            SnapshotPayload::Csr(_) => None,
            SnapshotPayload::BsCsrPartitions { precision, .. } => Some(*precision),
        }
    }
}

/// A persisted prepared collection: identity header plus payload.
///
/// Built by `PreparedMatrix::save` in the core crate and consumed by
/// `PreparedMatrix::load`; the struct and codec live here so the format
/// sits next to the formats it serialises.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Compatibility family of the backend that prepared the collection
    /// (e.g. `fpga-20b`, `cpu`, `gpu`).
    pub family: String,
    /// Rows (embeddings) in the collection.
    pub num_rows: u64,
    /// Columns (embedding dimension).
    pub num_cols: u64,
    /// Logical non-zeros.
    pub nnz: u64,
    /// The backend-specific body.
    pub payload: SnapshotPayload,
    /// Optional low-bit companion prune index, built at prepare time
    /// for the staged prune + rescore pipeline. `None` for backends that
    /// do not keep one — loading then leaves pruning unavailable.
    pub companion: Option<PruneIndex>,
}

impl Snapshot {
    /// Serialises the snapshot, appending the CRC-32 trailer.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on write failure, [`SnapshotError::Invalid`]
    /// if the in-memory snapshot violates format limits (e.g. a family
    /// string longer than a `u16` length field).
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), SnapshotError> {
        // Buffered above the hasher, so the CRC sees chunks, not fields.
        let mut w =
            BufWriter::with_capacity(crate::PACKET_BYTES * PACKETS_PER_CHUNK, CrcIo::new(writer));
        w.write_all(&SNAPSHOT_MAGIC)?;
        write_le(&mut w, &[SNAPSHOT_VERSION])?;
        w.write_all(&[self.payload.kind_tag(), self.payload.precision_tag()])?;
        let family_len = u16::try_from(self.family.len())
            .map_err(|_| SnapshotError::invalid("family name longer than 65535 bytes"))?;
        write_le(&mut w, &[family_len])?;
        w.write_all(self.family.as_bytes())?;
        write_le(&mut w, &[self.num_rows, self.num_cols, self.nnz])?;
        match &self.payload {
            SnapshotPayload::Csr(csr) => write_csr(&mut w, csr)?,
            SnapshotPayload::BsCsrPartitions {
                layout, partitions, ..
            } => write_partitions(&mut w, *layout, partitions)?,
        }
        match &self.companion {
            None => w.write_all(&[0])?,
            Some(index) => {
                w.write_all(&[1])?;
                write_prune_index(&mut w, index)?;
            }
        }
        let hashed = w.into_inner().map_err(|e| e.into_error())?;
        let crc = hashed.crc();
        // The trailer is not covered by itself: written unhashed.
        let mut sink = hashed.into_inner();
        write_le(&mut sink, &[crc])?;
        Ok(sink.flush()?)
    }

    /// Deserialises and fully verifies a snapshot: magic, version, tags,
    /// payload structure (including per-partition [`BsCsr::validate`]),
    /// header/payload consistency, and the CRC-32 trailer.
    ///
    /// # Errors
    ///
    /// The [`SnapshotError`] variant naming the first defect found.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, SnapshotError> {
        let mut hashed = CrcIo::new(reader);
        let mut r = Reader::new(&mut hashed);
        let magic = r.fixed("magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = r.u16("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let kind = r.u8("payload kind")?;
        let precision_tag = r.u8("precision tag")?;
        let family_len = r.u16("family")? as usize;
        let family = r.string(family_len, "family")?;
        let num_rows = r.u64("header")?;
        let num_cols = r.u64("header")?;
        let nnz = r.u64("header")?;

        let payload = match kind {
            0 => {
                if precision_tag != 0 {
                    return Err(SnapshotError::invalid(
                        "CSR payload must not carry a precision tag",
                    ));
                }
                SnapshotPayload::Csr(read_csr(&mut r, num_rows, num_cols, nnz)?)
            }
            1 => {
                let precision = tag_to_precision(precision_tag)?;
                let (layout, partitions) = read_partitions(&mut r, precision)?;
                SnapshotPayload::BsCsrPartitions {
                    precision,
                    layout,
                    partitions,
                }
            }
            other => return Err(SnapshotError::UnknownPayloadKind { kind: other }),
        };

        let companion = match r.u8("companion tag")? {
            0 => None,
            1 => Some(read_prune_index(&mut r)?),
            tag => return Err(SnapshotError::UnknownCompanionTag { tag }),
        };

        let computed = hashed.crc();
        // The trailer is not covered by itself: read it unhashed.
        let stored = Reader::new(hashed.into_inner()).u32("checksum trailer")?;
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let snapshot = Snapshot {
            family,
            num_rows,
            num_cols,
            nnz,
            payload,
            companion,
        };
        snapshot.check_header_payload_consistency()?;
        Ok(snapshot)
    }

    /// Cross-checks the identity header against the decoded payload.
    fn check_header_payload_consistency(&self) -> Result<(), SnapshotError> {
        let (rows, cols, nnz) = match &self.payload {
            SnapshotPayload::Csr(csr) => (
                csr.num_rows() as u64,
                csr.num_cols() as u64,
                csr.nnz() as u64,
            ),
            SnapshotPayload::BsCsrPartitions { partitions, .. } => {
                let mut next_row = 0u64;
                let mut nnz = 0u64;
                let mut cols = 0u64;
                for (i, (first_row, part)) in partitions.iter().enumerate() {
                    if *first_row != next_row {
                        return Err(SnapshotError::invalid(format!(
                            "partition {i} starts at row {first_row}, expected {next_row}"
                        )));
                    }
                    if i == 0 {
                        cols = part.num_cols() as u64;
                    } else if part.num_cols() as u64 != cols {
                        return Err(SnapshotError::invalid(format!(
                            "partition {i} has {} columns, partition 0 has {cols}",
                            part.num_cols()
                        )));
                    }
                    next_row += part.num_rows() as u64;
                    nnz += part.logical_nnz();
                }
                (next_row, cols, nnz)
            }
        };
        if (rows, cols, nnz) != (self.num_rows, self.num_cols, self.nnz) {
            return Err(SnapshotError::invalid(format!(
                "header declares {}x{} with {} nnz, payload holds {rows}x{cols} with {nnz} nnz",
                self.num_rows, self.num_cols, self.nnz
            )));
        }
        if let Some(index) = &self.companion {
            if (
                index.num_rows() as u64,
                index.num_cols() as u64,
                index.nnz(),
            ) != (self.num_rows, self.num_cols, self.nnz)
            {
                return Err(SnapshotError::invalid(format!(
                    "companion prune index covers {}x{} with {} nnz, snapshot is {}x{} with {}",
                    index.num_rows(),
                    index.num_cols(),
                    index.nnz(),
                    self.num_rows,
                    self.num_cols,
                    self.nnz
                )));
            }
        }
        Ok(())
    }
}

fn write_csr(w: &mut impl Write, csr: &Csr) -> Result<(), SnapshotError> {
    write_le(w, csr.row_ptr())?;
    write_le(w, csr.col_idx())?;
    csr.values()
        .iter()
        .try_for_each(|v| write_le(w, &[v.to_bits()]))?;
    Ok(())
}

fn read_csr<R: Read>(
    r: &mut Reader<R>,
    num_rows: u64,
    num_cols: u64,
    nnz: u64,
) -> Result<Csr, SnapshotError> {
    let rows = usize::try_from(num_rows)
        .ok()
        .filter(|&n| n < usize::MAX)
        .ok_or_else(|| SnapshotError::invalid("row count does not fit this platform"))?;
    let cols = usize::try_from(num_cols)
        .map_err(|_| SnapshotError::invalid("column count does not fit this platform"))?;
    let entries = usize::try_from(nnz)
        .map_err(|_| SnapshotError::invalid("nnz does not fit this platform"))?;
    let row_ptr = r.array(rows + 1, "CSR row pointers")?;
    let col_idx = r.array(entries, "CSR column indices")?;
    let values = r
        .array::<u32>(entries, "CSR values")?
        .into_iter()
        .map(f32::from_bits)
        .collect();
    Csr::from_parts(rows, cols, row_ptr, col_idx, values)
        .map_err(|e| SnapshotError::invalid(format!("CSR payload invalid: {e}")))
}

fn write_partitions(
    w: &mut impl Write,
    layout: PacketLayout,
    partitions: &[(u64, BsCsr)],
) -> Result<(), SnapshotError> {
    let count = u32::try_from(partitions.len())
        .map_err(|_| SnapshotError::invalid("more than u32::MAX partitions"))?;
    let header = [
        count,
        layout.entries_per_packet(),
        layout.ptr_bits(),
        layout.idx_bits(),
        layout.value_bits(),
    ];
    write_le(w, &header)?;
    for (first_row, part) in partitions {
        if part.layout() != layout {
            return Err(SnapshotError::invalid(
                "partition layout differs from the snapshot layout",
            ));
        }
        let header = [
            *first_row,
            part.num_rows() as u64,
            part.num_cols() as u64,
            part.stored_entries(),
            part.logical_nnz(),
            part.num_packets() as u64,
        ];
        write_le(w, &header)?;
        part.packets()
            .iter()
            .try_for_each(|packet| write_le(w, packet.words()))?;
    }
    Ok(())
}

fn read_partitions<R: Read>(
    r: &mut Reader<R>,
    precision: Precision,
) -> Result<(PacketLayout, Vec<(u64, BsCsr)>), SnapshotError> {
    let count = r.u32("partition count")? as usize;
    let b = r.u32("packet layout")?;
    let ptr_bits = r.u32("packet layout")?;
    let idx_bits = r.u32("packet layout")?;
    let value_bits = r.u32("packet layout")?;
    let layout = PacketLayout::from_parts(b, ptr_bits, idx_bits, value_bits)
        .map_err(|e| SnapshotError::invalid(format!("packet layout invalid: {e}")))?;
    if layout.value_bits() != precision.value_bits() {
        return Err(SnapshotError::invalid(format!(
            "layout stores {}-bit values but precision {} needs {}",
            layout.value_bits(),
            precision.label(),
            precision.value_bits()
        )));
    }
    let mut partitions = Vec::with_capacity(count.min(PACKETS_PER_CHUNK));
    for i in 0..count {
        let first_row = r.u64("partition header")?;
        let num_rows = usize::try_from(r.u64("partition header")?)
            .map_err(|_| SnapshotError::invalid("partition row count overflow"))?;
        let num_cols = usize::try_from(r.u64("partition header")?)
            .map_err(|_| SnapshotError::invalid("partition column count overflow"))?;
        let stored_entries = r.u64("partition header")?;
        let logical_nnz = r.u64("partition header")?;
        let num_packets = usize::try_from(r.u64("partition header")?)
            .map_err(|_| SnapshotError::invalid("partition packet count overflow"))?;
        let mut packets = Vec::with_capacity(num_packets.min(PACKETS_PER_CHUNK));
        while packets.len() < num_packets {
            let take = (num_packets - packets.len()).min(PACKETS_PER_CHUNK);
            let flat = r.array::<u64>(8 * take, "packet stream")?;
            packets.extend(flat.chunks_exact(8).map(|packet| {
                let mut words = [0u64; 8];
                words.copy_from_slice(packet);
                Packet512::from_words(words)
            }));
        }
        let part = BsCsr::from_parts(
            layout,
            packets,
            num_rows,
            num_cols,
            stored_entries,
            logical_nnz,
        )
        .map_err(|e| SnapshotError::invalid(format!("partition {i} invalid: {e}")))?;
        partitions.push((first_row, part));
    }
    Ok((layout, partitions))
}

fn write_prune_index(w: &mut impl Write, index: &PruneIndex) -> Result<(), SnapshotError> {
    write_le(w, &[PRUNE_SECTION_VERSION])?;
    w.write_all(&[index.bits().bits() as u8])?;
    let shape = [
        index.num_rows() as u64,
        index.num_cols() as u64,
        index.nnz(),
    ];
    write_le(w, &shape)?;
    write_le(w, index.row_ptr())?;
    write_le(w, index.col_idx())?;
    w.write_all(index.packed())?;
    Ok(())
}

fn read_prune_index<R: Read>(r: &mut Reader<R>) -> Result<PruneIndex, SnapshotError> {
    let section_version = r.u16("companion section")?;
    if section_version != PRUNE_SECTION_VERSION {
        return Err(SnapshotError::UnsupportedCompanionVersion {
            found: section_version,
            supported: PRUNE_SECTION_VERSION,
        });
    }
    let bits = match r.u8("companion section")? {
        4 => PruneBits::Four,
        8 => PruneBits::Eight,
        tag => {
            return Err(SnapshotError::invalid(format!(
                "companion prune index declares unknown width {tag} bits"
            )))
        }
    };
    let num_rows = usize::try_from(r.u64("companion section")?)
        .map_err(|_| SnapshotError::invalid("companion row count does not fit this platform"))?;
    let num_cols = usize::try_from(r.u64("companion section")?)
        .map_err(|_| SnapshotError::invalid("companion column count does not fit this platform"))?;
    let nnz = usize::try_from(r.u64("companion section")?)
        .map_err(|_| SnapshotError::invalid("companion nnz does not fit this platform"))?;
    let rows_plus_one = num_rows
        .checked_add(1)
        .ok_or_else(|| SnapshotError::invalid("companion row count overflow"))?;
    let row_ptr = r.array(rows_plus_one, "companion row pointers")?;
    let col_idx = r.array(nnz, "companion column indices")?;
    let packed_len = match bits {
        PruneBits::Eight => nnz,
        PruneBits::Four => nnz.div_ceil(2),
    };
    let packed = r.bytes(packed_len, "companion value stream")?;
    PruneIndex::from_parts(bits, num_rows, num_cols, row_ptr, col_idx, packed)
        .map_err(|e| SnapshotError::invalid(format!("companion prune index invalid: {e}")))
}

fn precision_to_tag(p: Precision) -> u8 {
    match p {
        Precision::Fixed20 => 1,
        Precision::Fixed25 => 2,
        Precision::Fixed32 => 3,
        Precision::Float32 => 4,
        Precision::Half16 => 5,
    }
}

fn tag_to_precision(tag: u8) -> Result<Precision, SnapshotError> {
    match tag {
        1 => Ok(Precision::Fixed20),
        2 => Ok(Precision::Fixed25),
        3 => Ok(Precision::Fixed32),
        4 => Ok(Precision::Float32),
        5 => Ok(Precision::Half16),
        other => Err(SnapshotError::UnknownPrecision { tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;
    use crate::gen::{NnzDistribution, SyntheticConfig};
    use tkspmv_fixed::Q1_19;

    fn sample_csr() -> Csr {
        SyntheticConfig {
            num_rows: 120,
            num_cols: 256,
            avg_nnz_per_row: 9,
            distribution: NnzDistribution::table3_gamma(),
            seed: 41,
        }
        .generate()
    }

    fn csr_snapshot() -> Snapshot {
        let csr = sample_csr();
        Snapshot {
            family: "cpu".to_string(),
            num_rows: csr.num_rows() as u64,
            num_cols: csr.num_cols() as u64,
            nnz: csr.nnz() as u64,
            payload: SnapshotPayload::Csr(csr),
            companion: None,
        }
    }

    fn csr_snapshot_with_companion(bits: PruneBits) -> Snapshot {
        let csr = sample_csr();
        let prune = PruneIndex::build(&csr, bits).unwrap();
        Snapshot {
            family: "cpu".to_string(),
            num_rows: csr.num_rows() as u64,
            num_cols: csr.num_cols() as u64,
            nnz: csr.nnz() as u64,
            payload: SnapshotPayload::Csr(csr),
            companion: Some(prune),
        }
    }

    fn bscsr_snapshot() -> Snapshot {
        let csr = sample_csr();
        let layout = PacketLayout::solve(csr.num_cols(), 20).unwrap();
        let partitions: Vec<(u64, BsCsr)> = csr
            .partition_rows(4)
            .into_iter()
            .map(|(first, part)| (first as u64, BsCsr::encode::<Q1_19>(&part, layout)))
            .collect();
        Snapshot {
            family: "fpga-20b".to_string(),
            num_rows: csr.num_rows() as u64,
            num_cols: csr.num_cols() as u64,
            nnz: csr.nnz() as u64,
            payload: SnapshotPayload::BsCsrPartitions {
                precision: Precision::Fixed20,
                layout,
                partitions,
            },
            companion: None,
        }
    }

    fn to_bytes(s: &Snapshot) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        buf
    }

    /// Recomputes the CRC trailer after test byte surgery.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The trailer's checksum is the canonical IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn csr_snapshot_round_trips() {
        let snap = csr_snapshot();
        let back = Snapshot::read_from(to_bytes(&snap).as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bscsr_snapshot_round_trips() {
        let snap = bscsr_snapshot();
        let back = Snapshot::read_from(to_bytes(&snap).as_slice()).unwrap();
        assert_eq!(back, snap);
        let SnapshotPayload::BsCsrPartitions { partitions, .. } = &back.payload else {
            panic!("payload kind changed in flight");
        };
        assert_eq!(partitions.len(), 4);
        for (_, part) in partitions {
            assert_eq!(part.validate(), Ok(()));
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_bytes(&csr_snapshot());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        // Version 1 (the pre-companion layout, no writer left) is skew
        // like any other.
        for skewed in [1u8, 0x7F] {
            let mut bytes = to_bytes(&csr_snapshot());
            bytes[8] = skewed; // version LE low byte
            match Snapshot::read_from(bytes.as_slice()) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, u16::from(skewed));
                    assert_eq!(supported, SNAPSHOT_VERSION);
                }
                other => panic!("v{skewed}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = to_bytes(&bscsr_snapshot());
        // Chop at a spread of prefixes including boundary-interesting
        // ones; every one must fail Truncated, never panic or mis-read.
        for cut in [
            0,
            1,
            7,
            8,
            9,
            12,
            20,
            40,
            bytes.len() / 2,
            bytes.len() - 5,
            bytes.len() - 1,
        ] {
            match Snapshot::read_from(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_byte_is_always_detected() {
        // A flip that breaks payload structure fails the structural
        // revalidation; one that decodes cleanly fails the CRC. Either
        // way corruption is a typed error, never a silent mis-read.
        for snap in [csr_snapshot(), bscsr_snapshot()] {
            let clean = to_bytes(&snap);
            for offset in [clean.len() / 3, clean.len() / 2, clean.len() - 8] {
                let mut bytes = clean.clone();
                bytes[offset] ^= 0x10;
                match Snapshot::read_from(bytes.as_slice()) {
                    Err(SnapshotError::ChecksumMismatch { .. })
                    | Err(SnapshotError::Invalid { .. }) => {}
                    other => panic!("flip at {offset}: expected detection, got {other:?}"),
                }
            }
        }
        // A flip inside the CSR value area decodes structurally clean, so
        // the CRC trailer is the layer that must catch it.
        let mut bytes = to_bytes(&csr_snapshot());
        let in_values = bytes.len() - 6;
        bytes[in_values] ^= 0x10;
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn flipped_trailer_byte_fails_the_checksum() {
        let mut bytes = to_bytes(&csr_snapshot());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unknown_precision_tag_is_typed() {
        let mut bytes = to_bytes(&bscsr_snapshot());
        bytes[11] = 99; // precision tag
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::UnknownPrecision { tag: 99 })
        ));
    }

    #[test]
    fn unknown_payload_kind_is_typed() {
        let mut bytes = to_bytes(&csr_snapshot());
        bytes[10] = 9; // payload kind
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::UnknownPayloadKind { kind: 9 })
        ));
    }

    #[test]
    fn header_payload_disagreement_is_invalid() {
        // The partitions decode cleanly and the CRC matches (the lie was
        // written and sealed), so the cross-check is the detecting layer.
        let mut snap = bscsr_snapshot();
        snap.nnz += 1;
        let bytes = to_bytes(&snap);
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::Invalid { .. })
        ));
        // For a CSR payload the header drives parsing, so a row-count lie
        // derails decoding instead — still a typed failure.
        let mut snap = csr_snapshot();
        snap.num_rows += 1;
        let bytes = to_bytes(&snap);
        match Snapshot::read_from(bytes.as_slice()) {
            Err(SnapshotError::Invalid { .. })
            | Err(SnapshotError::Truncated { .. })
            | Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected a typed failure, got {other:?}"),
        }
    }

    #[test]
    fn companion_round_trips_at_both_widths() {
        for bits in PruneBits::ALL {
            let snap = csr_snapshot_with_companion(bits);
            let back = Snapshot::read_from(to_bytes(&snap).as_slice()).unwrap();
            assert_eq!(back, snap);
            let index = back.companion.expect("companion survived the trip");
            assert_eq!(index.bits(), bits);
            assert_eq!(index.nnz(), snap.nnz);
        }
    }

    #[test]
    fn companion_section_version_skew_is_typed() {
        let len_none = to_bytes(&csr_snapshot()).len();
        let mut bytes = to_bytes(&csr_snapshot_with_companion(PruneBits::Eight));
        // The companion section version u16 sits right after the tag byte.
        assert_eq!(bytes[len_none - 5], 1, "companion tag byte located");
        bytes[len_none - 4..len_none - 2].copy_from_slice(&0x7Fu16.to_le_bytes());
        reseal(&mut bytes);
        match Snapshot::read_from(bytes.as_slice()) {
            Err(SnapshotError::UnsupportedCompanionVersion { found, supported }) => {
                assert_eq!(found, 0x7F);
                assert_eq!(supported, PRUNE_SECTION_VERSION);
            }
            other => panic!("expected UnsupportedCompanionVersion, got {other:?}"),
        }
    }

    #[test]
    fn unknown_companion_tag_is_typed() {
        let mut bytes = to_bytes(&csr_snapshot());
        let tag_at = bytes.len() - 5;
        bytes[tag_at] = 9;
        reseal(&mut bytes);
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::UnknownCompanionTag { tag: 9 })
        ));
    }

    #[test]
    fn companion_shape_disagreement_is_invalid() {
        // A companion built for a different matrix writes and seals
        // cleanly, so the header cross-check is the detecting layer.
        let mut snap = csr_snapshot_with_companion(PruneBits::Four);
        let smaller = Csr::from_triplets(1, 4, &[(0, 1, 0.5)]).unwrap();
        snap.companion = Some(PruneIndex::build(&smaller, PruneBits::Four).unwrap());
        let bytes = to_bytes(&snap);
        assert!(matches!(
            Snapshot::read_from(bytes.as_slice()),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The on-disk bytes of two fixed snapshots, as written by the
    /// commit before the codec extraction: "same format" is checked
    /// against the old writer's output, not against this one's.
    #[test]
    fn golden_bytes_match_the_pre_codec_writer() {
        let csr = Csr::from_triplets(2, 4, &[(0, 1, 0.5), (1, 3, 0.25)]).unwrap();
        let tiny = Snapshot {
            family: "cpu".to_string(),
            num_rows: 2,
            num_cols: 4,
            nnz: 2,
            payload: SnapshotPayload::Csr(csr),
            companion: None,
        };
        let golden = unhex(concat!(
            "544b5350534e4150020000000300637075020000000000000004000000000000",
            "0002000000000000000000000000000000010000000000000002000000000000",
            "0001000000030000000000003f0000803e005148181e",
        ));
        assert_eq!(to_bytes(&tiny), golden);
        assert_eq!(Snapshot::read_from(golden.as_slice()).unwrap(), tiny);

        let csr = Csr::from_triplets(
            3,
            8,
            &[(0, 1, 0.5), (0, 3, 0.25), (1, 0, 1.0), (2, 2, 0.75)],
        )
        .unwrap();
        let layout = PacketLayout::solve(8, 20).unwrap();
        let partitions = csr
            .partition_rows(2)
            .into_iter()
            .map(|(first, part)| (first as u64, BsCsr::encode::<Q1_19>(&part, layout)))
            .collect();
        let with_companion = Snapshot {
            family: "fpga-20b".to_string(),
            num_rows: 3,
            num_cols: 8,
            nnz: 4,
            payload: SnapshotPayload::BsCsrPartitions {
                precision: Precision::Fixed20,
                layout,
                partitions,
            },
            companion: Some(PruneIndex::build(&csr, PruneBits::Four).unwrap()),
        };
        let golden = unhex(concat!(
            "544b5350534e4150020001010800667067612d32306203000000000000000800",
            "0000000000000400000000000000020000001200000005000000030000001400",
            "0000000000000000000002000000000000000800000000000000030000000000",
            "000003000000000000000100000000000000c500000000000000000000c80000",
            "0000000000000800400000100000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000200000000000000010000000000",
            "0000080000000000000001000000000000000100000000000000010000000000",
            "000003000000000000000000001000000000000000000c000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000010100040300000000000000080000000000000004000000000000000000",
            "0000020000000300000004000000010003000000020024682f3f08fe",
        ));
        assert_eq!(to_bytes(&with_companion), golden);
        assert_eq!(
            Snapshot::read_from(golden.as_slice()).unwrap(),
            with_companion
        );
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = SnapshotError::UnsupportedVersion {
            found: 3,
            supported: 1,
        };
        assert!(e.to_string().contains("version 3"));
        let e = SnapshotError::Truncated { section: "header" };
        assert!(e.to_string().contains("header"));
        let e = SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = SnapshotError::FamilyMismatch {
            snapshot: "cpu".into(),
            backend: "fpga-20b".into(),
        };
        assert!(e.to_string().contains("cpu") && e.to_string().contains("fpga-20b"));
    }
}
