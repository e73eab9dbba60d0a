//! The Top-K SpMV dataflow engine (Algorithm 1).
//!
//! [`run_core_batch_with_scratch`] is the engine's one entry point: a
//! functional emulation of one FPGA core's four-stage pipeline over a
//! BS-CSR packet stream, for a batch of resident queries (a single
//! query is a one-lane batch). [`crate::Accelerator::query_batch`] runs
//! it on `c` cores over a partitioned matrix and merges their
//! per-partition Top-k lists (§III-A). Packets are sliced straight into
//! the engine's chunk arrays by [`tkspmv_sparse::Packet512::decode_fields`];
//! a stream on the paper's M = 1024 layout
//! ([`tkspmv_sparse::PacketLayout::paper`]) is decoded with that layout
//! as a compile-time constant, any other with the same code and the
//! run-time value. Arithmetic is bit-exact with
//! respect to the selected [`tkspmv_fixed::SpmvScalar`]; cycle counts
//! come from the packet/burst model in [`tkspmv_hw`].

mod core_model;
mod multicore;

pub use core_model::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, CoreOutput, CoreStats, Fidelity,
};
pub(crate) use multicore::{run_multicore, MulticoreOutput};
