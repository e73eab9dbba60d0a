//! URAM budget for query-vector replication (§IV-A).
//!
//! Each core performs `B` random reads of the query vector `x` per clock
//! cycle. A UltraRAM block has two read ports, so `x` must be replicated
//! `⌈B/2⌉` times per core. The paper bounds `x` at 80,000 entries in the
//! worst case (32-bit values, 32 cores, 8 replicas each) given ~90 MB...
//! in fact 960 URAM blocks × 288 Kb = 33.75 MB; the module exposes the
//! actual U280 budget and checks feasibility of a configuration.

/// URAM capacity accounting for one accelerator configuration.
///
/// # Example
///
/// ```
/// use tkspmv::hw::UramBudget;
///
/// let budget = UramBudget::alveo_u280();
/// // Paper's headline config: 32 cores, B = 15, 32-bit x entries ->
/// // room for vectors far beyond M = 1024.
/// let max = budget.max_vector_len(32, 15, 32);
/// assert!(max > 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UramBudget {
    /// Number of URAM blocks on the device.
    total_blocks: u32,
    /// Capacity of one block in bits (72 Kb × 4K words = 288 Kb).
    bits_per_block: u64,
    /// Read ports per block.
    read_ports_per_block: u32,
}

impl UramBudget {
    /// The Alveo U280 (`xcu280`) URAM budget: 960 blocks of 288 Kb.
    pub fn alveo_u280() -> Self {
        Self {
            total_blocks: 960,
            bits_per_block: 288 * 1024,
            read_ports_per_block: 2,
        }
    }

    /// Replicas of `x` needed per core for `b` random reads per cycle.
    fn replicas_for(&self, b: u32) -> u32 {
        b.div_ceil(self.read_ports_per_block)
    }

    /// URAM blocks needed by one core holding a vector of `m` entries of
    /// `value_bits` each, replicated for `b` reads/cycle.
    ///
    /// Each replica occupies a whole number of blocks (a URAM cannot be
    /// shared across replicas without losing its ports).
    pub(crate) fn blocks_per_core(&self, b: u32, value_bits: u32, m: usize) -> u64 {
        let bits_per_replica = m as u64 * value_bits as u64;
        let blocks_per_replica = bits_per_replica.div_ceil(self.bits_per_block).max(1);
        blocks_per_replica * self.replicas_for(b) as u64
    }

    /// Whether `cores` cores with packet capacity `b` and an
    /// `m`-entry × `value_bits` query vector fit the device.
    pub(crate) fn supports(&self, cores: u32, b: u32, value_bits: u32, m: usize) -> bool {
        self.blocks_per_core(b, value_bits, m) * cores as u64 <= self.total_blocks as u64
    }

    /// Largest query-vector length supported for a configuration.
    pub fn max_vector_len(&self, cores: u32, b: u32, value_bits: u32) -> usize {
        let replicas = self.replicas_for(b) as u64;
        let blocks_per_replica = self.total_blocks as u64 / (cores as u64 * replicas).max(1);
        (blocks_per_replica * self.bits_per_block / value_bits as u64) as usize
    }

    /// Fraction of URAM used by a configuration (the Table II URAM
    /// column).
    #[cfg(test)]
    fn utilization(&self, cores: u32, b: u32, value_bits: u32, m: usize) -> f64 {
        self.blocks_per_core(b, value_bits, m) as f64 * cores as f64 / self.total_blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_rule_matches_section_4a() {
        let u = UramBudget::alveo_u280();
        // B random accesses, 2 ports per URAM -> ceil(B/2) replicas.
        assert_eq!(u.replicas_for(15), 8);
        assert_eq!(u.replicas_for(11), 6);
        assert_eq!(u.replicas_for(2), 1);
        assert_eq!(u.replicas_for(1), 1);
    }

    #[test]
    fn paper_worst_case_is_feasible() {
        // §IV-A: "x can have size up to 80000 (assuming 32-bit values,
        // 32 cores, 8 replicas of x per core)".
        let u = UramBudget::alveo_u280();
        // 80000 entries * 32 bits = 2.56 Mb per replica = 9 blocks;
        // 9 * 8 replicas * 32 cores = 2304 blocks > 960. The paper's 90MB
        // figure overstates the device (33.75 MB); our model bounds the
        // worst case around 30k entries instead, which still covers every
        // realistic embedding size (M <= 1024).
        let max = u.max_vector_len(32, 15, 32);
        assert!(max >= 10_000, "max {max}");
        assert!(u.supports(32, 15, 32, 1024));
        assert!(u.supports(32, 15, 32, max));
        assert!(!u.supports(32, 15, 32, max * 3));
    }

    #[test]
    fn utilization_matches_table2_scale() {
        // Table II: 32 cores, 20-bit design -> 33% URAM with M = 1024.
        // One replica of 1024 x 20 bits fits one block; 8 replicas x 32
        // cores = 256 blocks = 26.7%. Within a few points of the paper
        // (which also buffers outputs in URAM).
        let u = UramBudget::alveo_u280();
        let util = u.utilization(32, 15, 20, 1024);
        assert!((0.2..0.4).contains(&util), "util {util}");
    }

    #[test]
    fn blocks_never_zero_for_nonempty_vector() {
        let u = UramBudget::alveo_u280();
        assert!(u.blocks_per_core(1, 20, 1) >= 1);
    }

    #[test]
    fn more_cores_reduce_max_vector() {
        let u = UramBudget::alveo_u280();
        assert!(u.max_vector_len(1, 15, 32) > u.max_vector_len(32, 15, 32));
    }
}
