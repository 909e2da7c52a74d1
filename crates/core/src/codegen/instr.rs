//! The lowered instruction stream: the one description of a kernel's
//! loop structure.
//!
//! [`lower_instructions`] turns a scheduled kernel into a linear stream
//! — block- and tile-scoped global loads, block-wide barriers,
//! per-operator computes (running aggregations carry their
//! [`Accumulate`] algebra), the intra-block loop boundaries, split-K
//! partial parks and combines, and the final stores.
//! [`KernelProgram::new`] lowers once and stores the stream; every
//! consumer walks that stored stream:
//!
//! * the interpreter ([`exec`](super::exec)) runs it over real tensors;
//! * the profiler replay and the analytic cost model
//!   ([`trace`](super::trace)) replay its loads, computes and stores;
//! * the pseudo-code printer ([`emit`](super::emit)) prints it;
//! * the verifier ([`crate::verify`]) proves its barrier discipline,
//!   placements, split-K algebra and block-disjoint writes.
//!
//! The geometry the consumers share lives here too: the spatial block
//! enumeration ([`blocks`]), the tile restriction ([`tile_restrict`])
//! and the one range fact mapping a value and a restriction to per-axis
//! ranges ([`value_ranges`], whose symbolic form is [`store_region`]).
//!
//! Barrier discipline mirrors real cooperative kernels: any write that
//! lands in shared memory — a staged load or a compute producing a
//! block-visible intermediate — is followed by a block barrier before
//! other threads may read the buffer.

use super::program::KernelProgram;
use crate::error::{Result, SfError};
use crate::sched::{MemLevel, OpRole};
use crate::slicer::{merge_op, AggKind, UpdateFactor};
use crate::smg::DimId;
use sf_ir::{Graph, OpId, OpKind, ValueId, ValueKind};
use sf_tensor::ops::{BinaryOp, ReduceOp};
use sf_tensor::InlineVec;

/// Where an operand access lands in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSpace {
    /// Off-chip global memory (visible to every block).
    Global,
    /// Shared memory (visible within one block, requires barriers).
    Shared,
    /// Registers (private to one thread).
    Register,
}

/// Symbolic write interval of one stored-output axis as a function of
/// the spatial block index — the region algebra of the disjoint-write
/// prover ([`crate::verify::races`], DESIGN.md §3h). It is the symbolic
/// form of [`value_ranges`]: an axis that follows a spatially restricted
/// dimension receives the block's tile, every other axis is written in
/// full by every block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisWrite {
    /// Block `i` along `dim` writes `[i*block, min(i*block + span, clamp))`
    /// of an axis whose storage extent is `extent`.
    ///
    /// The lowering always emits `span == block` and
    /// `clamp == extent == smg.extent(dim)`; the prover re-checks those
    /// equalities rather than assuming them, so a corrupted stream (or a
    /// seeded mutation) is caught instead of trusted.
    Tiled {
        /// The partitioned global dimension.
        dim: DimId,
        /// Tile stride: block `i` starts at `i * block`.
        block: usize,
        /// Tile width actually written from the start offset.
        span: usize,
        /// Upper clamp applied to the tile end (the partitioned extent).
        clamp: usize,
        /// Declared storage extent of the axis.
        extent: usize,
    },
    /// Every block writes the whole axis `[0, extent)`. Harmless only
    /// when no other block coordinate varies, or when some *other* axis
    /// of the same store is tiled on every multi-block dimension. A
    /// phase-2 store writes one tile of the sliced axis per iteration;
    /// across its iterations the block covers the whole axis, which is
    /// exactly this per-block over-approximation.
    Full {
        /// Declared storage extent of the axis.
        extent: usize,
    },
    /// The axis cannot be expressed in the affine form (broken
    /// axis↔dimension alignment metadata). Forces `RACE505`.
    Opaque,
}

/// The running-aggregation algebra of a sliced reduction's phase-1
/// compute (paper Fig. 7): each tile's partial merges into the running
/// state, UTA reductions first rescale the old state.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulate {
    /// The associative merge of the running state and a tile partial.
    pub combine: BinaryOp,
    /// UTA update factors applied to the old state before merging
    /// (empty for Simple Aggregate).
    pub update: Vec<UpdateFactor>,
    /// Mean reductions accumulate raw sums: `Some(n)` divides the folded
    /// state by `n` when the post-loop segment begins (after the loop
    /// and any split-K combine).
    pub finalize_div: Option<usize>,
}

/// One instruction of the lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Block-scoped load of a global tile, once per block before the
    /// intra-block loop. `Shared` when the value is staged cooperatively
    /// into shared memory (a shared write, followed by a barrier),
    /// `Global` when it is streamed.
    LoadBlock {
        /// The loaded global value.
        value: ValueId,
        /// Where the loaded tile lives.
        space: MemSpace,
    },
    /// Tile-scoped load of a loop-varying global, once per iteration of
    /// the enclosing intra-block loop; spaces as for
    /// [`Instr::LoadBlock`].
    LoadTile {
        /// The loaded, loop-varying global value.
        value: ValueId,
        /// Where the loaded tile lives.
        space: MemSpace,
    },
    /// Block-wide barrier (`__syncthreads`).
    Barrier,
    /// One operator evaluation: operand reads at their memory spaces,
    /// one output write.
    Compute {
        /// The evaluated operator.
        op: OpId,
        /// Operand reads (UTA updates additionally read their dependency
        /// accumulators).
        reads: Vec<(ValueId, MemSpace)>,
        /// The produced value and where it lands.
        write: (ValueId, MemSpace),
        /// For a sliced reduction in the phase-1 loop: evaluate the tile
        /// partial and merge it into the running state (which persists
        /// across iterations). `None` evaluates the op on the current
        /// block or tile. Boxed: every compiled kernel keeps its stream,
        /// and few computes accumulate.
        accumulate: Option<Box<Accumulate>>,
    },
    /// Start of the intra-block loop (`phase` 1 or 2).
    LoopBegin {
        /// 1 for the aggregation pass, 2 for the re-streaming pass.
        phase: u8,
    },
    /// End of the intra-block loop.
    LoopEnd {
        /// Matches the corresponding [`Instr::LoopBegin`].
        phase: u8,
    },
    /// Store of an output tile back to global memory.
    Store {
        /// The stored output value.
        value: ValueId,
        /// Per-axis symbolic write footprint in the spatial block index.
        region: Vec<AxisWrite>,
    },
    /// Split-K phase-1 tail: each partition parks one sliced
    /// reduction's partial aggregate state in its partition-indexed
    /// scratch slot. The partition axis is encoded as a tiling of the
    /// sliced dimension (partition `p` owns tiles `[p·per, (p+1)·per)`),
    /// so the race prover's Tiled algebra discharges slot disjointness
    /// with the same rules as output scatters. The slot is worker
    /// scratch, not a published output: it never enters the prover's
    /// readback set.
    StorePartial {
        /// The sliced reduction's output (the partial state).
        value: ValueId,
        /// Per-axis footprint in the (spatial block × partition) index.
        region: Vec<AxisWrite>,
    },
    /// Split-K combine phase: after the phase-1 pool drain, folds one
    /// sliced reduction's `partitions` partial states pairwise in fixed
    /// partition order. The consecutive `Combine`s form one segment:
    /// each fold step applies every `Combine` in stream order. `SLC104`
    /// re-checks this instruction against the combine algebra
    /// independently re-derived from the graph, and the interpreter
    /// folds with exactly these fields.
    Combine {
        /// The combined sliced reduction.
        op: OpId,
        /// Number of partition states folded — must cover the
        /// schedule's full partition count.
        partitions: usize,
        /// The associative merge operator.
        combine: BinaryOp,
        /// Whether both sides are rescaled by the reduction's UTA
        /// update factors before merging.
        rescaled: bool,
    },
}

/// Restriction of one block or tile: `dim -> [start, end)` for every
/// partitioned dimension (inline up to four dimensions).
pub type Restrict = InlineVec<(DimId, (usize, usize)), 4>;

/// Per-axis `[start, end)` ranges of one value (inline up to rank 4).
pub type Ranges = InlineVec<(usize, usize), 4>;

/// How one axis of a value is accessed under a restriction.
#[derive(Default)]
enum AxisAccess<'r, R> {
    /// The whole axis `[0, extent)`.
    Full(usize),
    /// The axis (of declared `extent`) follows the restricted dimension
    /// of this `restrict` entry.
    Restricted(usize, &'r (DimId, R)),
    /// Broken axis↔dimension alignment metadata.
    #[default]
    Broken,
}

// Copy by hand: the derive would demand `R: Copy`, but the payload is
// only ever borrowed.
impl<R> Clone for AxisAccess<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for AxisAccess<'_, R> {}

/// The one range fact of the lowering: an axis of `v` follows a
/// restricted dimension iff it is aligned to that dimension and its
/// declared extent equals the dimension's global extent; every other
/// axis is accessed in full. Generic over the restriction payload so the
/// concrete ranges ([`value_ranges`]) and the symbolic footprints
/// ([`store_region`]) are two projections of the same derivation.
fn axis_access<'r, R>(
    kp: &KernelProgram,
    v: ValueId,
    restrict: &'r [(DimId, R)],
) -> InlineVec<AxisAccess<'r, R>, 4> {
    let smg = &kp.schedule.smg;
    let dims = kp.graph.shape(v).dims();
    let axes = match smg.value_axes.get(v.0) {
        Some(a) if a.len() == dims.len() => a,
        _ => return (0..dims.len().max(1)).map(|_| AxisAccess::Broken).collect(),
    };
    dims.iter()
        .zip(axes)
        .map(|(&e, &d)| {
            if d.0 >= smg.dims.len() {
                return AxisAccess::Broken;
            }
            match restrict.iter().find(|(rd, _)| *rd == d) {
                Some(entry) if e == smg.extent(d) => AxisAccess::Restricted(e, entry),
                _ => AxisAccess::Full(e),
            }
        })
        .collect()
}

/// Per-axis `[start, end)` ranges of `v` under `restrict`, clamped to the
/// axis extent. Exec reads and scatters and the profiler's tile accesses
/// all go through this function.
pub fn value_ranges(
    kp: &KernelProgram,
    v: ValueId,
    restrict: &[(DimId, (usize, usize))],
) -> Result<Ranges> {
    axis_access(kp, v, restrict)
        .iter()
        .map(|&a| match a {
            AxisAccess::Full(e) => Ok((0, e)),
            AxisAccess::Restricted(e, &(_, (s, t))) => Ok((s.min(e), t.min(e))),
            AxisAccess::Broken => Err(SfError::Codegen(format!(
                "'{}' has broken axis alignment metadata",
                kp.graph.value(v).name
            ))),
        })
        .collect()
}

/// Symbolic write footprint of storing `v` under `kp`'s schedule: the
/// symbolic form of [`value_ranges`] over the spatial block index.
/// Broken alignment metadata (rank mismatch, dangling dimension ids)
/// degrades to [`AxisWrite::Opaque`], which the prover reports as
/// `RACE505`.
pub fn store_region(kp: &KernelProgram, v: ValueId) -> Vec<AxisWrite> {
    let s = &kp.schedule;
    axis_access(kp, v, &s.spatial)
        .iter()
        .map(|&a| match a {
            AxisAccess::Full(extent) => AxisWrite::Full { extent },
            AxisAccess::Restricted(extent, &(dim, block)) => AxisWrite::Tiled {
                dim,
                block,
                span: block,
                clamp: s.smg.extent(dim),
                extent,
            },
            AxisAccess::Broken => AxisWrite::Opaque,
        })
        .collect()
}

/// Symbolic write footprint of one partition's partial-state slot under
/// a split-K schedule.
///
/// The first axis is the partition index, encoded as a tiling of the
/// sliced dimension: partition `p` covers tiles `[p·per, (p+1)·per)`,
/// i.e. elements `[p·per·tb, min((p+1)·per·tb, extent))`, so distinct
/// partitions own disjoint intervals exactly like spatial blocks along
/// a tiled output axis. The remaining axes are the state's own
/// footprint in the spatial block index ([`store_region`]). A schedule
/// without temporal slicing has no partial states; the footprint
/// degrades to [`AxisWrite::Opaque`].
pub fn partial_region(kp: &KernelProgram, v: ValueId) -> Vec<AxisWrite> {
    let s = &kp.schedule;
    let Some(t) = &s.temporal else {
        return vec![AxisWrite::Opaque];
    };
    let dim = t.plan.dim;
    let extent = if dim.0 < s.smg.dims.len() {
        s.smg.extent(dim)
    } else {
        return vec![AxisWrite::Opaque];
    };
    let n_tiles = extent.div_ceil(t.block.max(1));
    let per = n_tiles.div_ceil(t.partitions());
    let stride = per * t.block;
    let mut region = vec![AxisWrite::Tiled {
        dim,
        block: stride,
        span: stride,
        clamp: extent,
        extent,
    }];
    region.extend(store_region(kp, v));
    region
}

/// The spatial block restrictions of `kp`, first spatial dimension
/// fastest — the grid every consumer walks.
pub fn blocks(kp: &KernelProgram) -> Vec<Restrict> {
    let s = &kp.schedule;
    let counts: Vec<usize> = s
        .spatial
        .iter()
        .map(|&(d, b)| s.smg.extent(d).div_ceil(b))
        .collect();
    let mut out = Vec::with_capacity(counts.iter().product::<usize>().max(1));
    let mut idx = vec![0usize; s.spatial.len()];
    loop {
        out.push(
            s.spatial
                .iter()
                .zip(&idx)
                .map(|(&(d, b), &i)| (d, (i * b, (i * b + b).min(s.smg.extent(d)))))
                .collect(),
        );
        // Advance the multi-index; a full carry wraps to the start.
        let mut carry = true;
        for (i, c) in idx.iter_mut().zip(&counts) {
            if carry {
                *i += 1;
                carry = *i == *c;
                if carry {
                    *i = 0;
                }
            }
        }
        if carry {
            return out;
        }
    }
}

/// The restriction of tile `tile` of the intra-block loop inside the
/// block restricted by `spatial`.
pub fn tile_restrict(kp: &KernelProgram, spatial: &Restrict, tile: usize) -> Restrict {
    let mut r = spatial.clone();
    if let Some(t) = &kp.schedule.temporal {
        let extent = kp.schedule.smg.extent(t.plan.dim);
        let start = tile * t.block;
        r.push((t.plan.dim, (start, (start + t.block).min(extent))));
    }
    r
}

/// Index of the [`Instr::LoopEnd`] closing the loop opened at `begin`.
pub fn loop_end(instrs: &[Instr], begin: usize) -> Result<usize> {
    let mut depth = 0usize;
    for (i, ins) in instrs.iter().enumerate().skip(begin) {
        match ins {
            Instr::LoopBegin { .. } => depth += 1,
            Instr::LoopEnd { .. } => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            _ => {}
        }
    }
    Err(SfError::Codegen(format!(
        "loop at instr #{begin} is never closed"
    )))
}

/// Memory space an operand of `kp` is read from.
fn read_space(kp: &KernelProgram, v: ValueId) -> MemSpace {
    match kp.graph.value(v).kind {
        ValueKind::Input | ValueKind::Weight => load_space(kp, v),
        ValueKind::Intermediate => match kp.schedule.level(v) {
            MemLevel::Shared => MemSpace::Shared,
            // Global-level intermediates (kernel outputs) stream back
            // through registers; reads of them inside the kernel see the
            // register copy.
            MemLevel::Register | MemLevel::Global => MemSpace::Register,
        },
    }
}

/// Where a load of global `v` lands: staged values are copied into
/// shared memory, the rest are streamed.
fn load_space(kp: &KernelProgram, v: ValueId) -> MemSpace {
    if kp.schedule.is_staged(v) {
        MemSpace::Shared
    } else {
        MemSpace::Global
    }
}

/// Memory space an op output of `kp` is written to.
fn write_space(kp: &KernelProgram, v: ValueId) -> MemSpace {
    match kp.schedule.level(v) {
        MemLevel::Shared => MemSpace::Shared,
        MemLevel::Register | MemLevel::Global => MemSpace::Register,
    }
}

/// Appends op `oi` as a [`Instr::Compute`], with a trailing barrier when
/// the result is published to shared memory.
fn push_compute(
    kp: &KernelProgram,
    out: &mut Vec<Instr>,
    oi: usize,
    accumulate: Option<Box<Accumulate>>,
) {
    let op = &kp.graph.ops()[oi];
    // A UTA update additionally reads the accumulators of the earlier
    // sliced reductions it rescales by (paper Fig. 7, right).
    let reads: Vec<(ValueId, MemSpace)> = op
        .inputs
        .iter()
        .map(|&i| (i, read_space(kp, i)))
        .chain(
            accumulate
                .iter()
                .flat_map(|a| &a.update)
                .filter_map(|f| kp.graph.ops().get(f.dep.0))
                .map(|dep| (dep.output, MemSpace::Register)),
        )
        .collect();
    let w = write_space(kp, op.output);
    out.push(Instr::Compute {
        op: OpId(oi),
        reads,
        write: (op.output, w),
        accumulate,
    });
    if w == MemSpace::Shared {
        out.push(Instr::Barrier);
    }
}

/// Appends one load per global read by `ops` (value order) that `pick`
/// selects, followed by a barrier when any of them is staged into
/// shared memory.
fn push_loads(
    kp: &KernelProgram,
    out: &mut Vec<Instr>,
    ops: &[usize],
    tile: bool,
    pick: impl Fn(ValueId) -> bool,
) {
    let g = &kp.graph;
    let mut read = vec![false; g.values().len()];
    for &oi in ops {
        for &i in &g.ops()[oi].inputs {
            read[i.0] = true;
        }
    }
    let mut shared = false;
    for (vi, v) in g.values().iter().enumerate() {
        let id = ValueId(vi);
        if read[vi] && matches!(v.kind, ValueKind::Input | ValueKind::Weight) && pick(id) {
            let space = load_space(kp, id);
            shared |= space == MemSpace::Shared;
            out.push(if tile {
                Instr::LoadTile { value: id, space }
            } else {
                Instr::LoadBlock { value: id, space }
            });
        }
    }
    if shared {
        out.push(Instr::Barrier);
    }
}

/// Ops transitively needed to compute the given values.
fn needed_by(graph: &Graph, targets: &[ValueId]) -> Vec<bool> {
    let mut needed_vals = vec![false; graph.values().len()];
    for &t in targets {
        needed_vals[t.0] = true;
    }
    let mut needed_ops = vec![false; graph.ops().len()];
    for (oi, op) in graph.ops().iter().enumerate().rev() {
        if needed_vals[op.output.0] {
            needed_ops[oi] = true;
            for &i in &op.inputs {
                needed_vals[i.0] = true;
            }
        }
    }
    needed_ops
}

/// Lowers a kernel into its linear instruction stream.
///
/// Without temporal slicing: block-scoped loads, every op, every store.
/// With it: block-scoped loads of the non-varying globals; the phase-1
/// loop (tile loads, the ops feeding the sliced reductions, which
/// accumulate); split-K parks and combines; the post-loop epilogue; the
/// optional phase-2 re-streaming loop with its per-tile stores; and the
/// stores of the outputs that do not span the sliced dimension.
pub fn lower_instructions(kp: &KernelProgram) -> Vec<Instr> {
    let g = &kp.graph;
    let s = &kp.schedule;
    let mut out = Vec::new();
    let store = |out: &mut Vec<Instr>, o: ValueId| {
        out.push(Instr::Store {
            value: o,
            region: store_region(kp, o),
        })
    };

    let Some(t) = &s.temporal else {
        let all: Vec<usize> = (0..g.ops().len()).collect();
        push_loads(kp, &mut out, &all, false, |_| true);
        for oi in all {
            push_compute(kp, &mut out, oi, None);
        }
        for &o in g.outputs() {
            store(&mut out, o);
        }
        out.shrink_to_fit();
        return out;
    };

    let varying = |v: ValueId| s.smg.value_has_dim(g, v, t.plan.dim);
    let reductions: Vec<ValueId> = t
        .plan
        .sliced
        .iter()
        .map(|sl| g.ops()[sl.op.0].output)
        .collect();
    let needed_phase1 = needed_by(g, &reductions);
    let needed_output = needed_by(g, g.outputs());
    let ops = |keep: &dyn Fn(usize) -> bool| {
        (0..g.ops().len())
            .filter(|&oi| keep(oi))
            .collect::<Vec<_>>()
    };
    let phase1 = ops(&|oi| needed_phase1[oi] && kp.roles[oi] != OpRole::PostLoop);
    let post = ops(&|oi| kp.roles[oi] == OpRole::PostLoop);
    let phase2 = if t.plan.two_phase {
        ops(&|oi| kp.roles[oi] == OpRole::InLoop && needed_output[oi])
    } else {
        Vec::new()
    };

    // Block scope: every non-varying global any segment reads.
    let all: Vec<usize> = phase1.iter().chain(&post).chain(&phase2).copied().collect();
    push_loads(kp, &mut out, &all, false, |v| !varying(v));

    out.push(Instr::LoopBegin { phase: 1 });
    push_loads(kp, &mut out, &phase1, true, varying);
    let extent = s.smg.extent(t.plan.dim);
    for &oi in &phase1 {
        let accumulate = t.plan.sliced.iter().find(|sl| sl.op.0 == oi).map(|sl| {
            let kind = &g.ops()[oi].kind;
            Box::new(Accumulate {
                combine: merge_op(kind).unwrap_or(BinaryOp::Add),
                update: match &sl.agg {
                    AggKind::Simple => Vec::new(),
                    AggKind::Uta(factors) => factors.clone(),
                },
                finalize_div: matches!(
                    kind,
                    OpKind::Reduce {
                        op: ReduceOp::Mean,
                        ..
                    }
                )
                .then_some(extent),
            })
        });
        push_compute(kp, &mut out, oi, accumulate);
    }
    out.push(Instr::LoopEnd { phase: 1 });

    // Split-K: each partition parks its partial aggregate states (the
    // phase-1 tail), then — after the pool drain — the combine phase
    // folds them in fixed partition order.
    if let Some(split) = &t.split {
        for &v in &reductions {
            out.push(Instr::StorePartial {
                value: v,
                region: partial_region(kp, v),
            });
        }
        for (sl, spec) in t.plan.sliced.iter().zip(&split.combine) {
            out.push(Instr::Combine {
                op: sl.op,
                partitions: split.partitions,
                combine: spec.op,
                rescaled: spec.rescale,
            });
        }
    }

    for &oi in &post {
        push_compute(kp, &mut out, oi, None);
    }
    if t.plan.two_phase {
        out.push(Instr::LoopBegin { phase: 2 });
        push_loads(kp, &mut out, &phase2, true, varying);
        for &oi in &phase2 {
            push_compute(kp, &mut out, oi, None);
        }
        for &o in g.outputs() {
            if varying(o) {
                store(&mut out, o);
            }
        }
        out.push(Instr::LoopEnd { phase: 2 });
    }
    for &o in g.outputs() {
        if !varying(o) {
            store(&mut out, o);
        }
    }
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{Compiler, FusionPolicy};
    use sf_gpu_sim::Arch;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha(l: usize) -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("Q", Shape::new(vec![256, 64]));
        let k = g.input("K", Shape::new(vec![l, 64]));
        let v = g.input("V", Shape::new(vec![l, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn temporal_mha_lowers_to_loop_with_barriers() {
        let g = mha(8192);
        let p = Compiler::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let instrs = lower_instructions(&p.kernels[0]);
        assert!(instrs.contains(&Instr::LoopBegin { phase: 1 }));
        assert!(instrs.contains(&Instr::LoopEnd { phase: 1 }));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Barrier)));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Store { .. })));
        // Every shared compute write is immediately followed by a
        // barrier (the cooperative publication rule).
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::Compute {
                write: (_, MemSpace::Shared),
                ..
            } = ins
            {
                assert_eq!(instrs.get(i + 1), Some(&Instr::Barrier), "at {i}");
            }
        }
    }

    #[test]
    fn flat_kernel_has_no_loop_markers() {
        let g = mha(64);
        let p = Compiler::with_policy(Arch::Hopper, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let kp = &p.kernels[0];
        if kp.schedule.temporal.is_none() {
            let instrs = lower_instructions(kp);
            assert!(!instrs.iter().any(|i| matches!(i, Instr::LoopBegin { .. })));
            let computes = instrs
                .iter()
                .filter(|i| matches!(i, Instr::Compute { .. }))
                .count();
            assert_eq!(computes, kp.graph.ops().len());
        }
    }

    #[test]
    fn stored_stream_is_the_lowering() {
        let p = Compiler::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&mha(8192))
            .unwrap();
        for kp in &p.kernels {
            assert_eq!(kp.instrs, lower_instructions(kp), "{}", kp.name);
        }
    }
}
