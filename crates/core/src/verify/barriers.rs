//! Barrier/race and bounds analysis (`MEM302`, `BAR401`, `BND402`).
//!
//! [`check_instructions`] walks a kernel's stored instruction stream
//! ([`crate::codegen::KernelProgram::instrs`], the one the interpreter
//! executes) with two abstract states:
//!
//! * a **placement set** per value — which memory tiers it has been
//!   written to so far (kernel inputs start in global memory, staged
//!   loads add shared — streamed loads read global in place — and
//!   computes add their write tier). A read from a tier absent
//!   from the set is `MEM302`: the generated kernel would read garbage.
//! * a **dirty set** of shared buffers written since the last barrier.
//!   Shared stores are cooperative — the element a thread reads may
//!   have been written by a different thread — so a read of a dirty
//!   shared buffer is a read-after-write race (`BAR401`). Barriers
//!   clear the set; loop back-edges additionally check that nothing
//!   left dirty at the end of a body is read at its top (wrap-around).
//!
//! [`check_bounds`] validates the schedule's tile restrictions
//! symbolically (`BND402`): every restricted dimension must exist, and
//! its block size must be in `1..=extent` — a larger tile would index
//! past the dimension's end, a duplicate restriction would double-slice
//! it.

use super::{DiagCode, Diagnostic, Span};
use crate::codegen::{Instr, KernelProgram, MemSpace};
use crate::smg::DimId;
use sf_ir::{ValueId, ValueKind};
use std::collections::BTreeSet;

/// Runs the symbolic tile-bounds check over one kernel's schedule.
pub fn check_bounds(kp: &KernelProgram) -> Vec<Diagnostic> {
    let smg = &kp.schedule.smg;
    let ndims = smg.dims.len();
    let mut diags = Vec::new();
    let mut seen: Vec<DimId> = Vec::new();

    let mut entries: Vec<(DimId, usize, &str)> = kp
        .schedule
        .spatial
        .iter()
        .map(|&(d, b)| (d, b, "spatial"))
        .collect();
    if let Some(t) = &kp.schedule.temporal {
        entries.push((t.plan.dim, t.block, "temporal"));
    }

    for (d, block, which) in entries {
        let span = Span::Schedule { dim: d, block };
        if d.0 >= ndims {
            diags.push(Diagnostic::new(
                DiagCode::BndTileOutOfBounds,
                span,
                format!("{which} restriction names unknown dimension d{}", d.0),
            ));
            continue;
        }
        let extent = smg.dims[d.0].extent;
        if block == 0 {
            diags.push(Diagnostic::new(
                DiagCode::BndTileOutOfBounds,
                span,
                format!(
                    "{which} block size 0 on dimension {} — empty tiles",
                    smg.dims[d.0].name
                ),
            ));
        } else if block > extent {
            diags.push(Diagnostic::new(
                DiagCode::BndTileOutOfBounds,
                span,
                format!(
                    "{which} block size {block} exceeds the extent {extent} of \
                     dimension {} — tile indexing runs out of bounds",
                    smg.dims[d.0].name
                ),
            ));
        }
        if seen.contains(&d) {
            diags.push(Diagnostic::new(
                DiagCode::BndTileOutOfBounds,
                span,
                format!(
                    "dimension {} is restricted more than once",
                    smg.dims[d.0].name
                ),
            ));
        }
        seen.push(d);
    }
    diags
}

const PLACED_GLOBAL: u8 = 1;
const PLACED_SHARED: u8 = 2;
const PLACED_REGISTER: u8 = 4;

/// Runs the barrier/race and placement scan over a lowered instruction
/// stream.
///
/// Exposed separately from [`verify_kernel`](super::verify_kernel) so
/// tests can corrupt a stream (drop a barrier, drop a load) and check
/// the analyzer catches it.
pub fn check_instructions(kp: &KernelProgram, instrs: &[Instr]) -> Vec<Diagnostic> {
    let g = &kp.graph;
    let n = g.values().len();
    let mut diags = Vec::new();

    let mut placed = vec![0u8; n];
    for (vi, v) in g.values().iter().enumerate() {
        if matches!(v.kind, ValueKind::Input | ValueKind::Weight) {
            placed[vi] |= PLACED_GLOBAL;
        }
    }
    let mut dirty: BTreeSet<ValueId> = BTreeSet::new();
    let mut loop_stack: Vec<usize> = Vec::new();

    for (i, ins) in instrs.iter().enumerate() {
        match ins {
            // Only staged (shared) loads are placements and shared writes;
            // a streamed load reads global memory in place.
            Instr::LoadBlock {
                value,
                space: MemSpace::Shared,
            }
            | Instr::LoadTile {
                value,
                space: MemSpace::Shared,
            } => {
                if value.0 < n {
                    placed[value.0] |= PLACED_SHARED;
                    dirty.insert(*value);
                }
            }
            Instr::Barrier => dirty.clear(),
            Instr::LoopBegin { .. } => loop_stack.push(i),
            Instr::LoopEnd { .. } => {
                let start = loop_stack.pop().unwrap_or(0);
                // Wrap-around: a buffer left dirty at the loop end is
                // re-read at the top of the next iteration.
                for &v in &dirty {
                    let read_in_body = instrs[start..i].iter().any(|x| {
                        matches!(x, Instr::Compute { reads, .. }
                            if reads.iter().any(|&(rv, sp)| rv == v && sp == MemSpace::Shared))
                    });
                    if read_in_body {
                        diags.push(Diagnostic::new(
                            DiagCode::BarMissingBarrier,
                            Span::Instr(i),
                            format!(
                                "shared '{}' is still dirty at the loop back-edge and is \
                                 read at the top of the next iteration — missing barrier",
                                name(kp, v)
                            ),
                        ));
                    }
                }
                dirty.clear();
            }
            Instr::LoadBlock { .. } | Instr::LoadTile { .. } => {}
            Instr::Compute {
                op, reads, write, ..
            } => {
                for &(v, space) in reads {
                    if v.0 >= n {
                        continue;
                    }
                    let bit = match space {
                        MemSpace::Global => PLACED_GLOBAL,
                        MemSpace::Shared => PLACED_SHARED,
                        MemSpace::Register => PLACED_REGISTER,
                    };
                    if placed[v.0] & bit == 0 {
                        diags.push(Diagnostic::new(
                            DiagCode::MemReadUnplaced,
                            Span::Instr(i),
                            format!(
                                "op #{} reads '{}' from {} but the value was never \
                                 placed there",
                                op.0,
                                name(kp, v),
                                space_name(space)
                            ),
                        ));
                    } else if space == MemSpace::Shared && dirty.contains(&v) {
                        diags.push(Diagnostic::new(
                            DiagCode::BarMissingBarrier,
                            Span::Instr(i),
                            format!(
                                "op #{} reads shared '{}' that another thread may still \
                                 be writing — no barrier since the write",
                                op.0,
                                name(kp, v)
                            ),
                        ));
                    }
                }
                let (wv, wspace) = *write;
                if wv.0 < n {
                    placed[wv.0] |= match wspace {
                        MemSpace::Global => PLACED_GLOBAL,
                        MemSpace::Shared => PLACED_SHARED,
                        MemSpace::Register => PLACED_REGISTER,
                    };
                    if wspace == MemSpace::Shared {
                        dirty.insert(wv);
                    }
                }
            }
            // Stores (and partial-state parks) read the thread-private
            // register copy; the combine phase runs after the phase-1
            // drain on finalized slots. Nothing to check here —
            // footprints are the race prover's concern, the combine
            // algebra SLC104's.
            Instr::Store { .. } | Instr::StorePartial { .. } | Instr::Combine { .. } => {}
        }
    }
    diags
}

fn name(kp: &KernelProgram, v: ValueId) -> String {
    if v.0 < kp.graph.values().len() {
        kp.graph.value_name(v).to_string()
    } else {
        format!("%{}", v.0)
    }
}

fn space_name(s: MemSpace) -> &'static str {
    match s {
        MemSpace::Global => "global memory",
        MemSpace::Shared => "shared memory",
        MemSpace::Register => "registers",
    }
}
