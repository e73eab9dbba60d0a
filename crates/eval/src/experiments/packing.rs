//! Figure 3: packing density of naive COO vs optimised COO vs BS-CSR.

use tkspmv_sparse::{PacketLayout, PACKET_BITS, PACKET_BYTES};

use crate::report::{fnum, Table};

/// Packing characteristics of one format in a 512-bit packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingRow {
    /// Format name.
    format: &'static str,
    /// Non-zeros per packet.
    entries_per_packet: u32,
    /// Bits used of the 512.
    bits_used: u32,
    /// Operational intensity, nnz/byte.
    operational_intensity: f64,
    /// Gain over naive COO.
    gain_vs_naive: f64,
}

/// A COO packing whose entries are `entry_bits` wide: the row is always
/// a full 32-bit coordinate (the number of rows is unbounded), which is
/// exactly the redundancy BS-CSR removes.
fn coo_row(format: &'static str, entry_bits: u32, naive_entries: u32) -> PackingRow {
    let entries = PACKET_BITS as u32 / entry_bits;
    PackingRow {
        format,
        entries_per_packet: entries,
        bits_used: entries * entry_bits,
        operational_intensity: entries as f64 / PACKET_BYTES as f64,
        gain_vs_naive: entries as f64 / naive_entries as f64,
    }
}

/// Reproduces Figure 3's comparison for `M < 1024`, 20-bit values:
/// naive COO (32-bit row, column and value: 96 bits per entry),
/// optimised COO (32-bit row, 10-bit column, 20-bit value) and BS-CSR.
pub fn run() -> Vec<PackingRow> {
    #[expect(
        clippy::expect_used,
        reason = "invariant: the paper layout (m = 1024, 20-bit values) always solves"
    )]
    let bscsr = PacketLayout::solve(1024, 20).expect("paper layout fits");
    let naive = PACKET_BITS as u32 / 96;
    vec![
        coo_row("Naive COO", 96, naive),
        coo_row(
            "Optimized COO",
            32 + bscsr.idx_bits() + bscsr.value_bits(),
            naive,
        ),
        PackingRow {
            format: "BS-CSR",
            entries_per_packet: bscsr.entries_per_packet(),
            bits_used: bscsr.bits_used(),
            operational_intensity: bscsr.operational_intensity(),
            gain_vs_naive: bscsr.entries_per_packet() as f64 / naive as f64,
        },
    ]
}

/// Renders the Figure 3 comparison.
pub fn to_table(rows: &[PackingRow]) -> Table {
    let mut t = Table::new(vec![
        "Format",
        "Non-zeros / 512b packet",
        "Bits used",
        "OI (nnz/byte)",
        "Gain vs naive COO",
    ]);
    for r in rows {
        t.row(vec![
            r.format.to_string(),
            r.entries_per_packet.to_string(),
            r.bits_used.to_string(),
            fnum(r.operational_intensity, 3),
            format!("{:.1}x", r.gain_vs_naive),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_numbers() {
        let rows = run();
        // 5 / 8 / 15 entries; 480 / 496 / 511 bits.
        assert_eq!(rows[0].entries_per_packet, 5);
        assert_eq!(rows[0].bits_used, 480);
        assert_eq!(rows[1].entries_per_packet, 8);
        assert_eq!(rows[1].bits_used, 496);
        assert_eq!(rows[2].entries_per_packet, 15);
        assert_eq!(rows[2].bits_used, 511);
    }

    #[test]
    fn bscsr_gains_3x() {
        let rows = run();
        assert!((rows[2].gain_vs_naive - 3.0).abs() < 1e-12);
        assert!(rows[1].gain_vs_naive < rows[2].gain_vs_naive);
    }

    #[test]
    fn renders() {
        let t = to_table(&run());
        assert_eq!(t.len(), 3);
        assert!(t.to_markdown().contains("BS-CSR"));
    }
}
