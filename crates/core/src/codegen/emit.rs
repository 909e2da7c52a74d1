//! Pseudo-code emission for scheduled kernels.
//!
//! Prints a kernel's stored instruction stream
//! ([`KernelProgram::instrs`]) as the Triton-style pseudo-code of the
//! paper's Figs. 6 and 7, one line per instruction — the parallel block
//! loop, loads, the intra-block loop with running aggregations and
//! update functions, split-K parks and combines, the post-loop epilogue
//! and the stores. Barriers are implied by the `smem` placements and
//! not printed. Intended for humans: debugging schedules,
//! documentation, and golden tests that pin down the shape of generated
//! code.

use super::instr::{Instr, MemSpace};
use super::program::KernelProgram;
use crate::sched::MemLevel;
use crate::slicer::FactorForm;
use sf_ir::OpKind;
use std::fmt::Write as _;

/// Renders the kernel as indented pseudo-code.
pub fn emit_pseudocode(kp: &KernelProgram) -> String {
    let g = &kp.graph;
    let s = &kp.schedule;
    let mut out = String::new();
    let name = |v: sf_ir::ValueId| g.value(v).name.clone();

    let _ = writeln!(out, "// kernel {} — grid {} block(s)", kp.name, s.grid());
    let _ = writeln!(out, "parallel_for block in SMG_blocks {{");
    let mut depth = 1;
    let mut folding = false;
    for ins in &kp.instrs {
        let pad = "    ".repeat(depth);
        match ins {
            Instr::LoadBlock { value, space } => {
                let n = name(*value);
                let _ = match space {
                    MemSpace::Shared => writeln!(out, "{pad}{n} = load_block({n})        // smem"),
                    _ => writeln!(out, "{pad}{n} = stream({n})            // global"),
                };
            }
            Instr::LoadTile { value, space } => {
                let n = name(*value);
                let _ = match space {
                    MemSpace::Shared => writeln!(out, "{pad}{n} = load_tile({n})"),
                    _ => writeln!(out, "{pad}{n} = stream_tile({n})"),
                };
            }
            Instr::Barrier => {}
            Instr::Compute {
                op,
                write: (v, _),
                accumulate: Some(acc),
                ..
            } => {
                let target = name(*v);
                let partial = expr(kp, op.0);
                if acc.update.is_empty() {
                    let _ = writeln!(out, "{pad}{target} = aggr({target}_old, {partial})");
                } else {
                    let upd = acc
                        .update
                        .iter()
                        .map(|f| {
                            let dep = name(g.ops()[f.dep.0].output);
                            match f.form {
                                FactorForm::ExpNeg => format!("exp({dep}_old - {dep})"),
                                FactorForm::Recip => format!("{dep}_old/{dep}"),
                                FactorForm::Value => format!("{dep}/{dep}_old"),
                            }
                        })
                        .collect::<Vec<_>>()
                        .join(" * ");
                    let _ = writeln!(
                        out,
                        "{pad}{target} = aggr({target}_old * {upd}, {partial})  // UTA"
                    );
                }
            }
            Instr::Compute { op, .. } => {
                let _ = writeln!(out, "{pad}{}", op_line(kp, op.0));
            }
            Instr::LoopBegin { phase: 1 } => {
                if let Some(t) = &s.temporal {
                    let _ = writeln!(
                        out,
                        "{pad}// intra-block loop over dim {} in tiles of {}",
                        s.smg.dims[t.plan.dim.0].name, t.block
                    );
                    match &t.split {
                        None => {
                            let _ = writeln!(out, "{pad}for intra_block in Block {{");
                        }
                        Some(sp) => {
                            let _ = writeln!(
                                out,
                                "{pad}// split-K: {} parallel partitions, each owning a contiguous tile range",
                                sp.partitions
                            );
                            let _ = writeln!(
                                out,
                                "{pad}parallel_for p: for intra_block in partition(p) {{"
                            );
                        }
                    }
                }
                depth += 1;
            }
            Instr::LoopBegin { .. } => {
                let _ = writeln!(out, "{pad}for intra_block in Block {{  // phase 2");
                depth += 1;
            }
            Instr::LoopEnd { .. } => {
                depth -= 1;
                let _ = writeln!(out, "{}}}", "    ".repeat(depth));
            }
            Instr::Store { value, .. } if depth > 1 => {
                let _ = writeln!(out, "{pad}store_tile({})", name(*value));
            }
            Instr::Store { value, .. } => {
                let _ = writeln!(out, "{pad}store({})", name(*value));
            }
            Instr::StorePartial { value, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}park_partial({})   // one state per partition",
                    name(*value)
                );
            }
            Instr::Combine {
                op,
                partitions,
                combine,
                rescaled,
            } => {
                if !std::mem::replace(&mut folding, true) {
                    let _ = writeln!(
                        out,
                        "{pad}// combine dispatch: fold {partitions} partials in partition order"
                    );
                }
                let target = name(g.ops()[op.0].output);
                let rescaled = if *rescaled { ", rescaled" } else { "" };
                let _ = writeln!(
                    out,
                    "{pad}{target} = combine_{}({target}[0..{partitions}]{rescaled})",
                    combine.name()
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// `dst = op(args)` with the memory level as a comment.
fn op_line(kp: &KernelProgram, oi: usize) -> String {
    let g = &kp.graph;
    let op = &g.ops()[oi];
    let level = match kp.schedule.level(op.output) {
        MemLevel::Register => "reg",
        MemLevel::Shared => "smem",
        MemLevel::Global => "global",
    };
    format!(
        "{} = {}   // {}",
        g.value(op.output).name,
        expr(kp, oi),
        level
    )
}

fn expr(kp: &KernelProgram, oi: usize) -> String {
    let g = &kp.graph;
    let op = &g.ops()[oi];
    let a = |i: usize| g.value(op.inputs[i]).name.clone();
    match &op.kind {
        OpKind::Gemm { .. } => format!("gemm({}, {})", a(0), a(1)),
        OpKind::Unary(u) => format!("{}({})", u.name(), a(0)),
        OpKind::Binary(b) => format!("{}({}, {})", b.name(), a(0), a(1)),
        OpKind::Scalar { op: b, value } => format!("{}({}, {value})", b.name(), a(0)),
        OpKind::Reduce { op: r, dim } => format!("{}({}, dim={dim})", r.name(), a(0)),
        OpKind::Broadcast { dim, .. } => format!("broadcast({}, dim={dim})", a(0)),
        OpKind::LayoutBarrier => format!("reshape({})", a(0)),
    }
}
