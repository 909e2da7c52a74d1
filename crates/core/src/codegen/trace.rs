//! Access-stream replay and analytic cost estimation.
//!
//! [`trace_kernel`] replays a kernel's stored instruction stream
//! ([`KernelProgram::instrs`]) block by block into the `sf-gpu-sim`
//! [`Profiler`]: every load and store becomes a tile access, every
//! compute its flops, every loop iteration its overhead — yielding
//! L1/L2 miss counts and DRAM traffic. [`estimate_cost`] computes the
//! same quantities in closed form (without cache simulation) from the
//! same stream's per-scope loads and phase membership; the auto-tuner
//! uses it to rank configurations cheaply (paper §6.5: configurations
//! are measured, with an early-quit cutoff). Split-K partial parks and
//! combines are not replayed: the cost model prices them in closed form.

use super::instr::{blocks, loop_end, tile_restrict, value_ranges, Instr, Restrict};
use super::program::KernelProgram;
use crate::sched::MemLevel;
use crate::smg::DimId;
use sf_gpu_sim::{BufId, KernelCost, Profiler};
use sf_ir::{ValueId, ValueKind};
use std::collections::HashMap;

/// Flop-equivalent cost of one intra-block loop iteration (loop control,
/// barrier synchronization, pipeline drain). Gives the tuner a realistic
/// preference for larger temporal tiles instead of tying on traffic.
pub const TILE_OVERHEAD_FLOPS: u64 = 4096;

/// Replays one kernel's access stream into the profiler.
///
/// `bufs` maps value names to their global buffers; `replay_instances` is
/// how many instances to simulate in detail (the caller scales counters
/// up for the rest), `total_instances` sets the true grid size used for
/// occupancy/timing.
pub fn trace_kernel(
    kp: &KernelProgram,
    profiler: &mut Profiler,
    bufs: &HashMap<String, BufId>,
    replay_instances: usize,
    total_instances: u64,
) {
    let s = &kp.schedule;
    let smem = s.smem_per_block(&kp.graph);
    let regs = s.regs_per_block(&kp.graph);
    profiler.begin_kernel(&kp.name, s.grid() * total_instances, smem, regs);
    let grid = blocks(kp);
    for inst in 0..replay_instances as u64 {
        for spatial in &grid {
            profiler.begin_block();
            let mut replay = Replay {
                kp,
                profiler: &mut *profiler,
                bufs,
                inst,
            };
            replay.run(&kp.instrs, spatial);
        }
    }
    profiler.end_kernel();
}

/// One block's replay of the stream into the profiler.
struct Replay<'a> {
    kp: &'a KernelProgram,
    profiler: &'a mut Profiler,
    bufs: &'a HashMap<String, BufId>,
    inst: u64,
}

impl Replay<'_> {
    fn run(&mut self, instrs: &[Instr], restrict: &Restrict) {
        let mut i = 0;
        while i < instrs.len() {
            match &instrs[i] {
                Instr::LoadBlock { value, .. } | Instr::LoadTile { value, .. } => {
                    self.access(*value, restrict, false)
                }
                Instr::Compute { op, .. } => {
                    let sizes: Vec<(DimId, usize)> =
                        restrict.iter().map(|&(d, (s, t))| (d, t - s)).collect();
                    self.profiler.flops(crate::sched::memory::tile_flops(
                        &self.kp.graph,
                        &self.kp.schedule.smg,
                        op.0,
                        &sizes,
                    ));
                }
                Instr::Store { value, .. } => self.access(*value, restrict, true),
                Instr::LoopBegin { .. } => {
                    let Ok(end) = loop_end(instrs, i) else { return };
                    for tile in 0..self.kp.schedule.intra_blocks() as usize {
                        self.profiler.flops(TILE_OVERHEAD_FLOPS);
                        self.run(&instrs[i + 1..end], &tile_restrict(self.kp, restrict, tile));
                    }
                    i = end;
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// One tile access of global `v`: rows of the restricted 2-D view, or
    /// one contiguous run for other ranks.
    fn access(&mut self, v: ValueId, restrict: &Restrict, write: bool) {
        let graph = &self.kp.graph;
        let value = graph.value(v);
        let Some(&buf) = self.bufs.get(&value.name) else {
            return;
        };
        let Ok(ranges) = value_ranges(self.kp, v, restrict) else {
            return;
        };
        let esz = graph.dtype().size_bytes() as u64;
        let global = matches!(value.kind, ValueKind::Input | ValueKind::Weight)
            || self.kp.schedule.level(v) == MemLevel::Global;
        let base = if global {
            self.inst * (value.shape.volume() as u64 * esz)
        } else {
            0
        };
        let (off, row_bytes, rows, stride) = match ranges[..] {
            [(r0, r1), (c0, c1)] => {
                let cols = value.shape.dims()[1] as u64;
                (
                    (r0 as u64 * cols + c0 as u64) * esz,
                    (c1 - c0) as u64 * esz,
                    (r1 - r0) as u64,
                    cols * esz,
                )
            }
            _ => {
                let vol: u64 = ranges.iter().map(|&(s, t)| (t - s) as u64).product();
                (0, vol * esz, 1, 0)
            }
        };
        if write {
            self.profiler
                .store_tile(buf, base + off, row_bytes, rows, stride);
        } else {
            self.profiler
                .load_tile(buf, base + off, row_bytes, rows, stride);
        }
    }
}

/// Closed-form cost estimate of one kernel (for the auto-tuner).
///
/// Uses raw global traffic (no cache simulation): `dram_read_bytes` is
/// approximated by the compulsory footprint of the loaded globals,
/// `l2_bytes` by the total requested read bytes. Every load of the
/// stream costs its footprint once per block (block scope) or once per
/// tile of its loop; phase-2 computes pay their flops a second time.
/// Rankings between configurations of the same kernel are preserved,
/// which is all the tuner needs.
pub fn estimate_cost(kp: &KernelProgram, total_instances: u64) -> KernelCost {
    let graph = &kp.graph;
    let s = &kp.schedule;
    let esz = graph.dtype().size_bytes() as u64;
    let grid = s.grid();
    let n_tiles = s.intra_blocks();
    let block_restrict = s.block_restrictions();

    let mut flops: u64 = (0..graph.ops().len())
        .map(|oi| crate::sched::memory::tile_flops(graph, &s.smg, oi, &[]))
        .sum();
    let mut read_per_block = 0u64;
    let mut write_per_block = 0u64;
    let mut compulsory = 0u64;
    let mut loaded = vec![false; graph.values().len()];
    let mut loops = 0u64;
    let mut phase = 0u8;
    for ins in &kp.instrs {
        match ins {
            Instr::LoadBlock { value, .. } | Instr::LoadTile { value, .. } => {
                if !std::mem::replace(&mut loaded[value.0], true) {
                    compulsory += graph.shape(*value).volume() as u64 * esz;
                }
                read_per_block += if phase == 0 {
                    s.smg.block_footprint(graph, *value, &s.spatial)
                } else {
                    s.smg.block_footprint(graph, *value, &block_restrict) * n_tiles
                };
            }
            Instr::Compute { op, .. } if phase == 2 => {
                // Recomputed in the phase-2 re-stream.
                flops += crate::sched::memory::tile_flops(graph, &s.smg, op.0, &[]);
            }
            Instr::Store { value, .. } => {
                write_per_block += s.smg.block_footprint(graph, *value, &s.spatial);
            }
            Instr::LoopBegin { phase: p } => {
                loops += 1;
                phase = *p;
            }
            Instr::LoopEnd { .. } => phase = 0,
            _ => {}
        }
    }
    flops += TILE_OVERHEAD_FLOPS * n_tiles * loops * grid;

    // Split-K: the tile loop runs as `partitions` independent grid
    // units (grid × P drives occupancy — the whole point of the split),
    // paid for by partial-state traffic (each sliced reduction's
    // accumulator is written per partition, re-read and folded by the
    // combine) plus per-partition loop setup. Where the grid already
    // saturates the machine the utilization term gains nothing and the
    // combine overhead makes split-K lose — exactly the tradeoff the
    // tuner should arbitrate.
    let partitions = s.temporal.as_ref().map_or(1, |t| t.partitions()) as u64;
    let mut l2_per_block = read_per_block + write_per_block;
    if partitions > 1 {
        let state_per_block = partial_state_per_block(kp);
        // P partial writes + P combine reads + 1 combined write.
        l2_per_block += state_per_block * (2 * partitions + 1);
        // Rescale-and-merge arithmetic over every partial element,
        // plus per-partition loop entry overhead.
        flops += (state_per_block / esz.max(1)) * partitions * 8 * grid;
        flops += TILE_OVERHEAD_FLOPS * partitions * grid;
    }

    KernelCost {
        name: kp.name.clone(),
        grid: grid * partitions * total_instances,
        flops: flops * total_instances,
        global_read_bytes: read_per_block * grid * total_instances,
        global_write_bytes: write_per_block * grid * total_instances,
        dram_read_bytes: (compulsory * total_instances)
            .min(read_per_block * grid * total_instances),
        dram_write_bytes: write_per_block * grid * total_instances,
        l2_bytes: l2_per_block * grid * total_instances,
        smem_per_block: s.smem_per_block(graph),
        regs_per_block: s.regs_per_block(graph),
    }
}

/// Bytes per block of the partial states the stream parks
/// (`StorePartial`) under split-K.
fn partial_state_per_block(kp: &KernelProgram) -> u64 {
    kp.instrs
        .iter()
        .map(|i| match i {
            Instr::StorePartial { value, .. } => {
                kp.schedule
                    .smg
                    .block_footprint(&kp.graph, *value, &kp.schedule.spatial)
            }
            _ => 0,
        })
        .sum()
}

/// Cost of a split-K candidate's **accumulate dispatch alone** — the
/// partial-accumulator launch, without the combine fold's traffic (the
/// P partial re-reads, the combined write) or its rescale-and-merge
/// arithmetic. For unsplit kernels this is the full cost.
///
/// The bounded tuner measures split candidates dispatch-by-dispatch
/// the way an on-GPU test run times the two launches; this is the
/// figure after the first launch. It never exceeds
/// [`estimate_cost`]'s total, so it is safe to early-quit on.
pub fn estimate_accumulate_cost(kp: &KernelProgram, total_instances: u64) -> KernelCost {
    let mut cost = estimate_cost(kp, total_instances);
    let s = &kp.schedule;
    let partitions = s.temporal.as_ref().map_or(1, |t| t.partitions()) as u64;
    if partitions > 1 {
        let esz = kp.graph.dtype().size_bytes() as u64;
        let state_per_block = partial_state_per_block(kp);
        let scale = s.grid() * total_instances;
        // Combine dispatch's share of the split overhead added by
        // estimate_cost: P partial reads + 1 combined write, and the
        // rescale-and-merge flops.
        cost.l2_bytes = cost
            .l2_bytes
            .saturating_sub(state_per_block * (partitions + 1) * scale);
        cost.flops = cost
            .flops
            .saturating_sub((state_per_block / esz.max(1)) * partitions * 8 * scale);
    }
    cost
}
