//! Kernel code generation (the paper's Triton-backend substitute).
//!
//! A scheduled SMG lowers to a [`KernelProgram`]: the fused subgraph,
//! its concrete [`crate::sched::FusedSchedule`], and the one lowered
//! [`Instr`] stream ([`instr`]) describing the kernel's loop structure —
//! loads, computes with their running aggregations, the intra-block
//! loops, split-K parks and combines, stores. The stream is built once
//! at construction and every consumer walks it:
//!
//! * [`exec`] runs it numerically over real tensors (this is how the
//!   test suite proves that every generated schedule, including the
//!   derived FlashAttention-style online softmax, is equivalent to the
//!   unfused reference) on the [`engine`]'s worker pool;
//! * [`trace`] replays it into the `sf-gpu-sim` profiler for the
//!   detailed cache/DRAM measurements, and prices it in closed form for
//!   the auto-tuner;
//! * [`emit`] prints it as pseudo-code;
//! * the verifier ([`crate::verify`]) proves it race- and barrier-free,
//!   so the proofs cover exactly what executes.

pub mod emit;
pub mod engine;
pub mod exec;
pub mod instr;
pub mod program;
pub mod trace;

pub use emit::emit_pseudocode;
pub use engine::{serial_cutoff, ExecEngine, WorkerPool, MIN_PARALLEL_WORK};
pub use exec::ExecOptions;
pub use instr::{
    lower_instructions, store_region, value_ranges, Accumulate, AxisWrite, Instr, MemSpace,
};
pub use program::KernelProgram;
pub use trace::{estimate_accumulate_cost, estimate_cost, trace_kernel};
