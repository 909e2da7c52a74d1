//! The interpreter of the lowered instruction stream.
//!
//! Runs a kernel's stored stream ([`KernelProgram::instrs`]) over real
//! tensors the way a GPU runs the kernel: every spatial block walks the
//! stream. The stream splits at its phase-1 loop into three segments:
//!
//! * the *head* — the block-scoped loads and the phase-1 loop, run over
//!   one split-K partition's tile range (every tile when unsplit); the
//!   running aggregates it leaves behind are the partition's state
//!   (under split-K, exactly the values its `StorePartial`s park);
//! * the *combine* segment — folds the partition states left to right
//!   in partition order, each step applying every [`Instr::Combine`]
//!   with its own `combine` and `rescaled` fields, the fields `SLC104`
//!   proves;
//! * the *tail* — mean finalisation ([`Accumulate::finalize_div`]), the
//!   post-loop epilogue, the phase-2 loop and the stores.
//!
//! A kernel without temporal slicing is all tail. The serial path, the
//! pooled block path and the split-K path (a fan-out over
//! (block × partition) heads, then one over blocks for combine and
//! tail) run the same three functions. Per-block values live in dense
//! slot arrays indexed by `ValueId`: computed values and running
//! aggregates, the pre-tile UTA dependency values, and the loaded global
//! tiles (zero-copy [`TensorView`]s of the bindings). A value read
//! before the stream computed or loaded it is a typed error, so the
//! interpreter runs exactly the stream it is given.
//!
//! This interpreter is the correctness oracle of the whole compiler: the
//! test suites compare its results (to float tolerance) against the
//! unfused reference execution of the same graph.
//!
//! Spatial blocks are the unit of parallelism. The race prover
//! ([`crate::verify::races`]) shows that blocks write disjoint regions
//! of every output, so the block loop fans out over the persistent
//! [`ExecEngine`] worker pool — each worker with its own thread-pinned
//! [`ScratchPool`] — and the result stays bit-identical to serial
//! execution regardless of completion order. The same disjointness
//! makes output writes lock-free: workers scatter tiles through
//! pre-partitioned [`sf_tensor::TensorViewMut`] regions of the shared
//! output buffers ([`OutputSlot`]) without any mutex; a debug-build
//! claim bitmap asserts that no two scatters ever touch the same
//! element, and outputs are published only when every element was
//! written. Intermediate buffers are recycled through the worker's pool
//! — which persists across calls — so steady-state execution does not
//! allocate. Kernels whose total work is under
//! [`super::engine::serial_cutoff`] skip the pool and run inline on the
//! caller's thread.

use super::engine::{serial_cutoff, ExecEngine};
use super::instr::{blocks, loop_end, tile_restrict, value_ranges, Accumulate, Instr, Restrict};
use super::program::KernelProgram;
use crate::error::{Result, SfError};
use crate::resilience::{panic_payload, FaultInjector, FaultKind};
use crate::slicer::{FactorForm, UpdateFactor};
use sf_ir::{Graph, OpId, OpKind, ValueId};
use sf_tensor::ops::{viewed, BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{Dims, ScratchPool, Shape, Tensor, TensorView, TensorViewMut};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::ops::Range;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Options for the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Worker threads for the spatial block loop; `0` selects the
    /// machine's available parallelism (capped at 8, matching the
    /// compile session's worker default).
    pub threads: usize,
}

impl ExecOptions {
    /// Options pinned to an explicit worker count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions { threads }
    }

    /// Resolves the effective worker count.
    ///
    /// The auto-detected machine parallelism is cached for the process:
    /// `available_parallelism` consults cgroup limits on Linux, which is
    /// file I/O expensive enough to show up on sub-millisecond kernels.
    pub fn effective_threads(&self) -> usize {
        static AUTO: OnceLock<usize> = OnceLock::new();
        if self.threads > 0 {
            self.threads
        } else {
            *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        }
    }
}

/// A full output tensor shared lock-free across block workers.
///
/// The race prover guarantees that distinct blocks (and distinct
/// temporal tiles within a block) scatter into *disjoint* element
/// regions of every output, so no synchronization is needed on the
/// write path: each scatter goes through a [`TensorViewMut`] carved out
/// of the buffer with [`OutputSlot::region_mut`]. The data pointer is
/// captured once at construction — no `&mut Tensor` is ever formed
/// while workers hold region views, so views never alias a Rust unique
/// reference.
///
/// Every hand-out counts the elements it claims; an output is published
/// only when the count covers the whole buffer, so a gap (a dropped
/// store) is an error, not a silently zero region. Debug builds also
/// keep a per-element claim bitmap and assert at hand-out that no
/// element is ever claimed twice, so there a full count means every
/// element was written exactly once. (Release builds cannot tell an
/// overlap from a write; only kernels the race prover could not prove
/// run serially and may overwrite, in program order.)
struct OutputSlot {
    value: ValueId,
    name: String,
    cell: UnsafeCell<Tensor>,
    base: *mut f32,
    len: usize,
    strides: Dims,
    written: AtomicUsize,
    #[cfg(debug_assertions)]
    claimed: Vec<AtomicU8>,
}

// SAFETY: workers only touch the buffer through disjoint `region_mut`
// views (asserted in debug builds); the tensor itself is only moved
// out after every worker has finished.
unsafe impl Send for OutputSlot {}
// SAFETY: shared access is read-only metadata, the atomic element
// counter, plus `region_mut`, whose handed-out views are pairwise
// disjoint — proven statically per kernel by
// `verify::races::prove_disjoint` (kernels it cannot prove run on the
// serial path) and re-checked dynamically by the debug claim bitmap. No
// `&self` method forms a second reference to a region in flight.
unsafe impl Sync for OutputSlot {}

impl OutputSlot {
    fn new(value: ValueId, name: String, tensor: Tensor) -> Self {
        let len = tensor.shape().volume();
        let strides = tensor.shape().strides();
        let cell = UnsafeCell::new(tensor);
        // SAFETY: the slot was just constructed, so `cell` is exclusively
        // owned here — capturing the data pointer cannot race. Every
        // later region view derives from this one base pointer.
        let base = unsafe { (*cell.get()).data_mut().as_mut_ptr() };
        OutputSlot {
            value,
            name,
            cell,
            base,
            len,
            strides,
            written: AtomicUsize::new(0),
            #[cfg(debug_assertions)]
            claimed: (0..len).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Hands out the mutable strided view of the `[start, end)` region,
    /// claiming its elements. The count is read only after every worker
    /// finished (the dispatch drain orders it), so it needs no stronger
    /// ordering than `Relaxed`.
    fn region_mut(&self, ranges: &[(usize, usize)]) -> TensorViewMut<'_> {
        debug_assert_eq!(ranges.len(), self.strides.len());
        let offset: usize = ranges
            .iter()
            .zip(&self.strides)
            .map(|(&(s, _), &st)| s * st)
            .sum();
        let shape: Shape = ranges.iter().map(|&(s, t)| t - s).collect();
        self.written.fetch_add(shape.volume(), Ordering::Relaxed);
        #[cfg(debug_assertions)]
        self.claim(ranges, shape.dims());
        // SAFETY: `base + offset` addresses within the tensor buffer for
        // any in-bounds region; disjointness across concurrent callers
        // is the race prover's guarantee (checked above in debug).
        unsafe {
            TensorViewMut::from_raw_parts(
                self.base.add(offset),
                self.len - offset,
                shape,
                self.strides.clone(),
            )
        }
    }

    /// Marks every element of the region as written, panicking if any
    /// element was already claimed by an earlier region.
    #[cfg(debug_assertions)]
    fn claim(&self, ranges: &[(usize, usize)], dims: &[usize]) {
        let volume: usize = dims.iter().product();
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..volume {
            let abs: usize = ranges
                .iter()
                .zip(&self.strides)
                .zip(&idx)
                .map(|((&(s, _), &st), &i)| (s + i) * st)
                .sum();
            assert_eq!(
                self.claimed[abs].swap(1, Ordering::Relaxed),
                0,
                "overlapping output write in '{}' at element {abs}",
                self.name
            );
            for ax in (0..dims.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < dims[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
    }

    /// The finished output, or an internal error when some element was
    /// never written.
    fn into_parts(self, kernel: &str) -> Result<(String, Tensor)> {
        let written = self.written.into_inner();
        if written < self.len {
            return Err(SfError::Internal {
                pass: format!("exec:{kernel}"),
                payload: format!(
                    "output '{}' has {written} of {} elements written",
                    self.name, self.len
                ),
            });
        }
        Ok((self.name, self.cell.into_inner()))
    }
}

/// Publishes a kernel's finished outputs into `env` — all of them or,
/// when any is incomplete, none.
fn publish(
    kp: &KernelProgram,
    env: &mut HashMap<String, Tensor>,
    slots: Vec<OutputSlot>,
) -> Result<()> {
    let outputs = slots
        .into_iter()
        .map(|s| s.into_parts(&kp.name))
        .collect::<Result<Vec<_>>>()?;
    env.extend(outputs);
    Ok(())
}

/// Dense per-value slots indexed by `ValueId`.
type Slots = Vec<Option<Tensor>>;

fn empty_slots(n: usize) -> Slots {
    (0..n).map(|_| None).collect()
}

fn recycle_all(slots: Slots, pool: &mut ScratchPool) {
    for t in slots.into_iter().flatten() {
        pool.recycle_tensor(t);
    }
}

/// Per-block interpreter state.
struct Frame<'e> {
    /// Computed values and running aggregates.
    vals: Slots,
    /// Pre-tile values of UTA dependencies, read by later updates in
    /// the same tile.
    prev: Slots,
    /// Loaded global tiles: zero-copy views of the bindings.
    loads: Vec<Option<TensorView<'e>>>,
}

impl<'e> Frame<'e> {
    fn new(n: usize) -> Self {
        Frame {
            vals: empty_slots(n),
            prev: empty_slots(n),
            loads: (0..n).map(|_| None).collect(),
        }
    }

    /// The current tile of `v`: a computed value, else a loaded one.
    fn get(&self, graph: &Graph, v: ValueId) -> Result<TensorView<'_>> {
        if let Some(t) = self.vals.get(v.0).and_then(Option::as_ref) {
            return Ok(t.view());
        }
        if let Some(l) = self.loads.get(v.0).and_then(Option::as_ref) {
            return Ok(l.clone());
        }
        Err(SfError::Codegen(format!(
            "'{}' is read before the stream computes or loads it",
            graph.value(v).name
        )))
    }

    fn recycle_prev(&mut self, pool: &mut ScratchPool) {
        for t in self.prev.iter_mut().filter_map(Option::take) {
            pool.recycle_tensor(t);
        }
    }

    fn recycle(self, pool: &mut ScratchPool) {
        recycle_all(self.vals, pool);
        recycle_all(self.prev, pool);
    }
}

/// One execution of one kernel: its stream cut into segments, its block
/// grid and the shared output slots.
struct Run<'a> {
    kp: &'a KernelProgram,
    /// Full view of every global the stream loads, by `ValueId`,
    /// resolved once per run: tile loads only slice it.
    globals: Vec<Option<TensorView<'a>>>,
    outputs: Vec<OutputSlot>,
    blocks: Vec<Restrict>,
    /// Block-scoped loads ahead of the phase-1 loop.
    prologue: &'a [Instr],
    /// The phase-1 loop body (`None` without temporal slicing).
    phase1: Option<&'a [Instr]>,
    /// The `StorePartial` and `Combine` run after the phase-1 loop.
    combine: &'a [Instr],
    /// Everything after: epilogue, phase-2 loop, stores.
    tail: &'a [Instr],
    /// Split-K partitions of the phase-1 loop (1 when unsplit).
    partitions: usize,
    /// Values whose pre-tile state a UTA update reads.
    uta_deps: Vec<bool>,
}

impl<'a> Run<'a> {
    fn new(kp: &'a KernelProgram, env: &'a HashMap<String, Tensor>) -> Result<Self> {
        let g = &kp.graph;
        let instrs = kp.instrs.as_slice();
        let (prologue, phase1, combine, tail) = match instrs
            .iter()
            .position(|i| *i == Instr::LoopBegin { phase: 1 })
        {
            None => (&instrs[..0], None, &instrs[..0], instrs),
            Some(begin) => {
                let end = loop_end(instrs, begin)?;
                let parks = instrs[end + 1..]
                    .iter()
                    .take_while(|i| matches!(i, Instr::StorePartial { .. } | Instr::Combine { .. }))
                    .count();
                (
                    &instrs[..begin],
                    Some(&instrs[begin + 1..end]),
                    &instrs[end + 1..end + 1 + parks],
                    &instrs[end + 1 + parks..],
                )
            }
        };
        let mut globals = vec![None; g.values().len()];
        for ins in instrs {
            if let Instr::LoadBlock { value, .. } | Instr::LoadTile { value, .. } = ins {
                if globals[value.0].is_none() {
                    globals[value.0] = Some(global_view(g, env, *value)?);
                }
            }
        }
        let mut uta_deps = vec![false; g.values().len()];
        for ins in phase1.unwrap_or_default() {
            if let Instr::Compute {
                accumulate: Some(acc),
                ..
            } = ins
            {
                for f in &acc.update {
                    if let Some(dep) = g.ops().get(f.dep.0) {
                        uta_deps[dep.output.0] = true;
                    }
                }
            }
        }
        Ok(Run {
            kp,
            globals,
            outputs: g
                .outputs()
                .iter()
                .map(|&o| {
                    OutputSlot::new(
                        o,
                        g.value(o).name.clone(),
                        Tensor::zeros(g.shape(o).clone(), g.dtype()),
                    )
                })
                .collect(),
            blocks: blocks(kp),
            prologue,
            phase1,
            combine,
            tail,
            partitions: kp.schedule.temporal.as_ref().map_or(1, |t| t.partitions()),
            uta_deps,
        })
    }

    /// Runs every block in order on the caller's thread, each behind
    /// its own panic-isolation boundary.
    fn serial(&self, pool: &mut ScratchPool, faults: Option<&FaultInjector>) -> Result<()> {
        let n = self.blocks.len();
        for bi in 0..n {
            isolate(self.kp, "block", bi, || {
                fire(self.kp, faults, "block", bi, n);
                self.block(bi, pool)
            })?;
        }
        Ok(())
    }

    /// One whole block: the head of every partition, then the tail.
    fn block(&self, bi: usize, pool: &mut ScratchPool) -> Result<()> {
        self.finish(bi, pool, |p, pool| self.head(bi, p, pool))
    }

    /// The head of block `bi` over partition `p`'s tile range, returning
    /// the partition state.
    fn head(&self, bi: usize, p: usize, pool: &mut ScratchPool) -> Result<Slots> {
        let n = self.kp.graph.values().len();
        let mut f = Frame::new(n);
        let spatial = &self.blocks[bi];
        self.exec(&mut f, self.prologue, spatial, pool)?;
        if let (Some(body), Some(t)) = (self.phase1, &self.kp.schedule.temporal) {
            let (lo, hi) = t.partition_tiles(self.kp.schedule.intra_blocks() as usize, p);
            self.tile_loop(&mut f, body, spatial, lo..hi, pool)?;
        }
        let mut state = std::mem::take(&mut f.vals);
        f.recycle(pool);
        if self
            .combine
            .iter()
            .any(|i| matches!(i, Instr::StorePartial { .. }))
        {
            // Under split-K the partition state is exactly what the
            // stream parks.
            let mut parked = empty_slots(n);
            for ins in self.combine {
                if let Instr::StorePartial { value, .. } = ins {
                    parked[value.0] = state[value.0].take();
                }
            }
            recycle_all(state, pool);
            state = parked;
        }
        Ok(state)
    }

    /// The rest of block `bi`: folds its partition states, taken in
    /// partition order from `state_of`, then finalizes means and runs the
    /// tail segment.
    fn finish(
        &self,
        bi: usize,
        pool: &mut ScratchPool,
        mut state_of: impl FnMut(usize, &mut ScratchPool) -> Result<Slots>,
    ) -> Result<()> {
        let mut state = state_of(0, pool)?;
        for p in 1..self.partitions {
            let right = state_of(p, pool)?;
            state = self.fold(state, right, pool)?;
        }
        let spatial = &self.blocks[bi];
        let mut f = Frame::new(self.kp.graph.values().len());
        f.vals = state;
        for ins in self.phase1.unwrap_or_default() {
            if let Instr::Compute {
                write: (v, _),
                accumulate: Some(acc),
                ..
            } = ins
            {
                // Same scalar division the reference `binary_scalar(Div)`
                // performs.
                if let (Some(n), Some(state)) = (acc.finalize_div, f.vals[v.0].as_mut()) {
                    for x in state.data_mut() {
                        *x /= n as f32;
                    }
                }
            }
        }
        // Re-bind the block-scoped loads the epilogue and phase 2 read.
        self.exec(&mut f, self.prologue, spatial, pool)?;
        self.exec(&mut f, self.tail, spatial, pool)?;
        f.recycle(pool);
        Ok(())
    }

    /// Folds partition state `right` into `acc`, the fold of the
    /// partitions before it (partitions fold left to right in partition
    /// order — the fixed combine order that keeps results reproducible).
    ///
    /// The step applies every `Combine` of the segment, in stream (plan,
    /// i.e. topological) order: a plain merge, or — when `rescaled` —
    /// both sides first rescaled by the reduction's UTA update factors
    /// against the already-folded dependency values (a partition's state
    /// is not expressed against the combined factor values, so both
    /// sides need it). For attention this computes the FlashDecoding
    /// fixup `o = o_a·(s_a/s)·e^(m_a−m) + o_b·(s_b/s)·e^(m_b−m)`.
    fn fold(&self, acc: Slots, right: Slots, pool: &mut ScratchPool) -> Result<Slots> {
        let g = &self.kp.graph;
        let mut merged = empty_slots(acc.len());
        for ins in self.combine {
            let Instr::Combine {
                op,
                partitions,
                combine,
                rescaled,
            } = ins
            else {
                continue;
            };
            if *partitions != self.partitions {
                return Err(SfError::Codegen(format!(
                    "combine of op #{} folds {partitions} of {} partition states",
                    op.0, self.partitions
                )));
            }
            let out = g
                .ops()
                .get(op.0)
                .ok_or_else(|| SfError::Codegen(format!("combine of unknown op #{}", op.0)))?
                .output;
            let (Some(l), Some(r)) = (acc[out.0].as_ref(), right[out.0].as_ref()) else {
                return Err(SfError::Codegen("partition state missing aggregate".into()));
            };
            let m = if *rescaled {
                let update = self.update_of(*op);
                let l = apply_update(g, l, update, &acc, &merged, pool)?;
                let r = apply_update(g, r, update, &right, &merged, pool)?;
                let m = viewed::binary(*combine, &l.view(), &r.view(), pool)?;
                pool.recycle_tensor(l);
                pool.recycle_tensor(r);
                m
            } else {
                viewed::binary(*combine, &l.view(), &r.view(), pool)?
            };
            merged[out.0] = Some(m);
        }
        recycle_all(acc, pool);
        recycle_all(right, pool);
        Ok(merged)
    }

    /// The UTA update factors of sliced reduction `op`'s phase-1 compute.
    fn update_of(&self, op: OpId) -> &'a [UpdateFactor] {
        self.phase1
            .unwrap_or_default()
            .iter()
            .find_map(|i| match i {
                Instr::Compute {
                    op: o,
                    accumulate: Some(acc),
                    ..
                } if *o == op => Some(acc.update.as_slice()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Walks one straight-line segment (nested loops iterate every tile)
    /// under `restrict`.
    fn exec(
        &self,
        f: &mut Frame<'a>,
        instrs: &[Instr],
        restrict: &Restrict,
        pool: &mut ScratchPool,
    ) -> Result<()> {
        let g = &self.kp.graph;
        let mut i = 0;
        while i < instrs.len() {
            match &instrs[i] {
                Instr::LoadBlock { value, .. } | Instr::LoadTile { value, .. } => {
                    f.loads[value.0] = Some(self.load(*value, restrict)?);
                }
                Instr::Barrier => {}
                Instr::Compute {
                    op,
                    write: (v, _),
                    accumulate,
                    ..
                } => {
                    let out = match accumulate {
                        None => eval_op(self.kp, op.0, restrict, pool, &|x| f.get(g, x))?,
                        Some(acc) => self.accumulate(f, *op, *v, acc, pool)?,
                    };
                    f.vals[v.0] = Some(out);
                }
                Instr::LoopBegin { .. } => {
                    let end = loop_end(instrs, i)?;
                    let tiles = 0..self.kp.schedule.intra_blocks() as usize;
                    self.tile_loop(f, &instrs[i + 1..end], restrict, tiles, pool)?;
                    i = end;
                }
                Instr::Store { value, .. } => {
                    let tile = f.vals[value.0].as_ref().ok_or_else(|| {
                        SfError::Codegen(format!(
                            "stored '{}' was never computed",
                            g.value(*value).name
                        ))
                    })?;
                    self.scatter(*value, restrict, tile)?;
                }
                other => {
                    return Err(SfError::Codegen(format!(
                        "instruction out of place in its segment: {other:?}"
                    )))
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// Runs a loop body once per tile in `tiles`. Values the body
    /// computes die with their iteration; running aggregates persist.
    fn tile_loop(
        &self,
        f: &mut Frame<'a>,
        body: &[Instr],
        spatial: &Restrict,
        tiles: Range<usize>,
        pool: &mut ScratchPool,
    ) -> Result<()> {
        for tile in tiles {
            let restrict = tile_restrict(self.kp, spatial, tile);
            f.recycle_prev(pool);
            self.exec(f, body, &restrict, pool)?;
            for ins in body {
                if let Instr::Compute {
                    write: (v, _),
                    accumulate: None,
                    ..
                } = ins
                {
                    if let Some(t) = f.vals[v.0].take() {
                        pool.recycle_tensor(t);
                    }
                }
            }
        }
        f.recycle_prev(pool);
        for ins in body {
            if let Instr::LoadTile { value, .. } = ins {
                f.loads[value.0] = None;
            }
        }
        Ok(())
    }

    /// Merges one tile's partial of sliced reduction `op` into its
    /// running state `v`.
    fn accumulate(
        &self,
        f: &mut Frame<'a>,
        op: OpId,
        v: ValueId,
        acc: &Accumulate,
        pool: &mut ScratchPool,
    ) -> Result<Tensor> {
        let g = &self.kp.graph;
        let partial = eval_partial(g, op.0, pool, &|x| f.get(g, x))?;
        let Some(old) = f.vals[v.0].take() else {
            return Ok(partial);
        };
        let merged = if acc.update.is_empty() {
            viewed::binary(acc.combine, &old.view(), &partial.view(), pool)?
        } else {
            let updated = apply_update(g, &old, &acc.update, &f.prev, &f.vals, pool)?;
            let m = viewed::binary(acc.combine, &updated.view(), &partial.view(), pool)?;
            pool.recycle_tensor(updated);
            m
        };
        pool.recycle_tensor(partial);
        // Later UTA updates in this tile read the dependency's pre-tile
        // value from `prev`.
        if self.uta_deps[v.0] {
            f.prev[v.0] = Some(old);
        } else {
            pool.recycle_tensor(old);
        }
        Ok(merged)
    }

    /// Zero-copy view of global `v`'s tile under `restrict`.
    fn load(&self, v: ValueId, restrict: &Restrict) -> Result<TensorView<'a>> {
        let full = self.globals[v.0].as_ref().ok_or_else(|| {
            SfError::Codegen(format!(
                "'{}' is loaded but was never resolved",
                self.kp.graph.value(v).name
            ))
        })?;
        Ok(full.slice(&value_ranges(self.kp, v, restrict)?)?)
    }

    /// Writes a tile into its disjoint region of the shared output buffer.
    ///
    /// Lock-free: the destination region is handed out as a
    /// [`TensorViewMut`] over the slot's storage
    /// ([`OutputSlot::region_mut`]); the view's dense-suffix copy
    /// decomposes the region into contiguous runs copied slice-to-slice.
    fn scatter(&self, v: ValueId, restrict: &Restrict, tile: &Tensor) -> Result<()> {
        let slot = self.outputs.iter().find(|s| s.value == v).ok_or_else(|| {
            SfError::Codegen(format!(
                "stores '{}', which is not a kernel output",
                self.kp.graph.value(v).name
            ))
        })?;
        let ranges = value_ranges(self.kp, v, restrict)?;
        let region = ranges.iter().map(|&(s, t)| t - s);
        if !region.clone().eq(tile.shape().dims().iter().copied()) {
            return Err(SfError::Codegen(format!(
                "scatter shape mismatch: tile {:?} vs region {:?}",
                tile.shape().dims(),
                region.collect::<Vec<_>>()
            )));
        }
        slot.region_mut(&ranges)
            .copy_from_dense(tile.data())
            .map_err(Into::into)
    }
}

/// The full view of global `v`'s binding under its declared shape.
fn global_view<'e>(
    graph: &Graph,
    env: &'e HashMap<String, Tensor>,
    v: ValueId,
) -> Result<TensorView<'e>> {
    let value = graph.value(v);
    let full = env
        .get(&value.name)
        .ok_or_else(|| SfError::Codegen(format!("missing binding '{}'", value.name)))?;
    if full.shape() != &value.shape {
        // The binding was materialized upstream of a layout barrier and
        // carries the producing kernel's layout; view it under this
        // segment's declared shape.
        return Ok(full.view_reshaped(value.shape.clone())?);
    }
    Ok(full.view())
}

/// Runs one work item behind a panic-isolation boundary: a panic (a
/// backend bug, an injected crash) becomes [`SfError::Internal`] instead
/// of unwinding through the caller.
fn isolate(
    kp: &KernelProgram,
    label: &str,
    i: usize,
    item: impl FnOnce() -> Result<()>,
) -> Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(item)).unwrap_or_else(|payload| {
        Err(SfError::Internal {
            pass: format!("exec:{} {label} {i}", kp.name),
            payload: panic_payload(payload),
        })
    })
}

/// Fires any armed exec-block fault for item `i` of `n` (inside the
/// isolation boundary, so an injected crash is caught like a real one).
fn fire(kp: &KernelProgram, faults: Option<&FaultInjector>, label: &str, i: usize, n: usize) {
    if let Some(inj) = faults {
        if inj.fire_block(&kp.name, i, n) == Some(FaultKind::CrashWorker) {
            panic!("injected worker crash at kernel '{}' {label} {i}", kp.name);
        }
    }
}

/// Executes one kernel serially with an explicit scratch pool,
/// publishing outputs into `env` on success. This is the in-worker
/// path of [`crate::pipeline::CompiledProgram::execute_many`]: batch
/// items already occupy the pool's workers, so their kernels must not
/// re-enter the pool.
pub(crate) fn execute_kernel_pooled(
    kp: &KernelProgram,
    env: &mut HashMap<String, Tensor>,
    pool: &mut ScratchPool,
    faults: Option<&FaultInjector>,
) -> Result<()> {
    let run = Run::new(kp, env)?;
    run.serial(pool, faults)?;
    publish(kp, env, run.outputs)
}

impl ExecEngine {
    /// Executes one kernel on this engine: serially on the caller's
    /// thread when a single worker is requested or the kernel is under
    /// the [`serial_cutoff`], otherwise fanned out over the persistent
    /// worker pool. Every block runs behind a panic-isolation boundary,
    /// so a failure surfaces as a typed error; outputs are published
    /// into `env` only after every block succeeded, which is what makes
    /// the reference fallback of
    /// [`CompiledProgram::execute_resilient`](crate::pipeline::CompiledProgram::execute_resilient)
    /// see exactly the inputs this kernel saw. Results are bit-identical
    /// for every worker count and across the serial/pooled/split paths.
    pub fn execute_kernel(
        &self,
        kp: &KernelProgram,
        env: &mut HashMap<String, Tensor>,
        opts: &ExecOptions,
        faults: Option<&FaultInjector>,
    ) -> Result<()> {
        let run = Run::new(kp, env)?;
        let n_blocks = run.blocks.len();
        let threads = opts.effective_threads();
        let workers = threads.min(n_blocks).max(1);
        let total_work: usize = kp
            .graph
            .outputs()
            .iter()
            .map(|&o| kp.graph.shape(o).volume())
            .sum();
        // A split-K schedule's unit of parallelism is the (spatial block
        // × partition) pair, and its real work includes the sliced
        // reduction extent that the output volume hides (a decode kernel
        // writes one row but reads the whole KV cache), so the cutoff is
        // taken on those.
        let split_work = total_work.saturating_mul(
            kp.schedule
                .temporal
                .as_ref()
                .map_or(1, |t| kp.schedule.smg.extent(t.plan.dim)),
        );
        if !kp.disjoint.is_proven() {
            // The static prover could not discharge disjointness for
            // this kernel (RACE505 or worse), so the lock-free fan-out is
            // not justified: fall back to the serial path, where block
            // writes are ordered by program order and the region
            // hand-out is trivially sound. Results stay bit-identical —
            // the serial path runs the same blocks in the same order.
            self.note_race_fallback();
            self.with_serial_scratch(|pool| run.serial(pool, faults))?;
        } else if run.partitions > 1
            && threads > 1
            && !serial_cutoff(n_blocks * run.partitions, split_work)
        {
            self.execute_split(&run, threads, faults)?;
        } else if workers == 1 || serial_cutoff(n_blocks, total_work) {
            self.with_serial_scratch(|pool| run.serial(pool, faults))?;
        } else {
            self.fan_out(kp, "block", workers, n_blocks, &|bi, pool| {
                fire(kp, faults, "block", bi, n_blocks);
                run.block(bi, pool)
            })?;
        }
        publish(kp, env, run.outputs)
    }

    /// Executes a split-K kernel as two pool dispatches. The first fans
    /// the (spatial block × partition) grid over the workers: each item
    /// runs the head over its partition's tile range and parks the
    /// state in its own slot. The second folds each block's partition
    /// states in partition order — the fixed combine order that keeps
    /// outputs bit-identical at every thread count and to the serial
    /// path — and runs the tail. Every slot has one writer and, after
    /// the first dispatch drained, one reader, so its lock is never
    /// contended.
    fn execute_split(
        &self,
        run: &Run<'_>,
        threads: usize,
        faults: Option<&FaultInjector>,
    ) -> Result<()> {
        let kp = run.kp;
        let (n_blocks, parts) = (run.blocks.len(), run.partitions);
        let items = n_blocks * parts;
        let partials: Vec<Mutex<Option<Slots>>> = (0..items).map(|_| Mutex::new(None)).collect();
        let slot = |i: usize| partials[i].lock().unwrap_or_else(PoisonError::into_inner);
        self.fan_out(
            kp,
            "split item",
            threads.min(items),
            items,
            &|item, pool| {
                fire(kp, faults, "split item", item, items);
                let state = run.head(item / parts, item % parts, pool)?;
                *slot(item) = Some(state);
                Ok(())
            },
        )?;
        self.fan_out(
            kp,
            "combine block",
            threads.min(n_blocks),
            n_blocks,
            &|bi, pool| {
                run.finish(bi, pool, |p, _| {
                    slot(bi * parts + p)
                        .take()
                        .ok_or_else(|| SfError::Internal {
                            pass: format!("exec:{} combine block {bi}", kp.name),
                            payload: format!("phase-1 state missing for partition {p}"),
                        })
                })
            },
        )
    }

    /// Fans work items `0..n` out over `workers` pool workers: a chunked
    /// atomic work queue (coarse enough to amortize the atomic, fine
    /// enough to balance items of uneven cost), each item behind its own
    /// panic-isolation boundary, and the failure of the earliest item
    /// reported independent of worker scheduling.
    fn fan_out(
        &self,
        kp: &KernelProgram,
        label: &str,
        workers: usize,
        n: usize,
        item: &(dyn Fn(usize, &mut ScratchPool) -> Result<()> + Sync),
    ) -> Result<()> {
        let chunk = n.div_ceil(workers * 4).max(1);
        let next = AtomicUsize::new(0);
        let failures: Mutex<Vec<(usize, SfError)>> = Mutex::new(Vec::new());
        let panicked = self.run_dispatch(workers, &|pool: &mut ScratchPool| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return;
            }
            for i in start..(start + chunk).min(n) {
                if let Err(e) = isolate(kp, label, i, || item(i, pool)) {
                    failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, e));
                    return;
                }
            }
        });
        if panicked {
            // Items are isolated individually; reaching here means a
            // panic escaped that boundary (a queue bug).
            return Err(SfError::Internal {
                pass: format!("exec:{}", kp.name),
                payload: format!(
                    "worker panicked outside {} isolation",
                    label.replace(' ', "-")
                ),
            });
        }
        let failures = failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match failures.into_iter().min_by_key(|&(i, _)| i) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// Evaluates one operator on the current block or tile.
fn eval_op<'a>(
    kp: &KernelProgram,
    op_idx: usize,
    restrict: &Restrict,
    pool: &mut ScratchPool,
    get: &dyn Fn(ValueId) -> Result<TensorView<'a>>,
) -> Result<Tensor> {
    let op = &kp.graph.ops()[op_idx];
    let out = match &op.kind {
        OpKind::Gemm { transpose_b } => {
            let a = get(op.inputs[0])?;
            let b = get(op.inputs[1])?;
            viewed::matmul(&a, &b, *transpose_b, pool)?
        }
        OpKind::Unary(u) => viewed::unary(*u, &get(op.inputs[0])?, pool),
        OpKind::Binary(b) => {
            let x = get(op.inputs[0])?;
            let y = get(op.inputs[1])?;
            viewed::binary(*b, &x, &y, pool)?
        }
        OpKind::Scalar { op: b, value } => {
            viewed::binary_scalar(*b, &get(op.inputs[0])?, *value, pool)
        }
        OpKind::Reduce { op: r, dim } => viewed::reduce(*r, &get(op.inputs[0])?, *dim, pool)?,
        OpKind::Broadcast { dim, .. } => {
            // The broadcast target extent is the output's tile extent.
            let (s, t) = value_ranges(kp, op.output, restrict)?[*dim];
            viewed::broadcast_to(&get(op.inputs[0])?, *dim, t - s, pool)?
        }
        OpKind::LayoutBarrier => {
            return Err(SfError::Codegen("layout barrier inside a kernel".into()))
        }
    };
    Ok(out)
}

/// Evaluates the partial result of a sliced reduction on one tile.
///
/// Mean reductions accumulate raw sums (finalized after the loop).
fn eval_partial<'a>(
    graph: &Graph,
    op_idx: usize,
    pool: &mut ScratchPool,
    get: &dyn Fn(ValueId) -> Result<TensorView<'a>>,
) -> Result<Tensor> {
    let op = &graph.ops()[op_idx];
    match &op.kind {
        OpKind::Gemm { transpose_b } => {
            let a = get(op.inputs[0])?;
            let b = get(op.inputs[1])?;
            Ok(viewed::matmul(&a, &b, *transpose_b, pool)?)
        }
        OpKind::Reduce { op: r, dim: axis } => {
            let kind = if *r == ReduceOp::Mean {
                ReduceOp::Sum
            } else {
                *r
            };
            Ok(viewed::reduce(kind, &get(op.inputs[0])?, *axis, pool)?)
        }
        other => Err(SfError::Codegen(format!(
            "op {} cannot be a sliced reduction",
            other.name()
        ))),
    }
}

/// Applies the UTA update function: multiplies the old accumulator by
/// `Π g(dep_old, dep_new)`.
///
/// `prev` holds the dependencies' old values, `current` their new ones.
fn apply_update(
    graph: &Graph,
    old_acc: &Tensor,
    factors: &[UpdateFactor],
    prev: &[Option<Tensor>],
    current: &[Option<Tensor>],
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let mut result: Option<Tensor> = None;
    for f in factors {
        let dep_out = graph.ops()[f.dep.0].output;
        let old = prev[dep_out.0]
            .as_ref()
            .ok_or_else(|| SfError::Codegen("missing old dependency value".into()))?;
        let new = current[dep_out.0]
            .as_ref()
            .ok_or_else(|| SfError::Codegen("missing new dependency value".into()))?;
        let g = match f.form {
            FactorForm::Recip => viewed::binary(BinaryOp::Div, &old.view(), &new.view(), pool)?,
            FactorForm::ExpNeg => {
                let diff = viewed::binary(BinaryOp::Sub, &old.view(), &new.view(), pool)?;
                let exp = viewed::unary(UnaryOp::Exp, &diff.view(), pool);
                pool.recycle_tensor(diff);
                exp
            }
            FactorForm::Value => viewed::binary(BinaryOp::Div, &new.view(), &old.view(), pool)?,
        };
        let next = match result.take() {
            None => viewed::binary(BinaryOp::Mul, &old_acc.view(), &g.view(), pool)?,
            Some(r) => {
                let m = viewed::binary(BinaryOp::Mul, &r.view(), &g.view(), pool)?;
                pool.recycle_tensor(r);
                m
            }
        };
        pool.recycle_tensor(g);
        result = Some(next);
    }
    Ok(result.unwrap_or_else(|| old_acc.clone()))
}
