//! `exec-zoo`: the Fig.-10 subgraph zoo, compiled once, executed
//! round-robin in a seeded order by one caller on one exec thread.
//!
//! The timed loop runs one exec thread because a parallel dispatch on a
//! shared 2-vCPU host waits for the slower vCPU: at `nproc` threads the
//! zoo reads about 450 µs while other tenants leave the second vCPU free
//! and about 750 µs while they do not, and runs of the same code spread
//! past any bound. Every output is still checked bitwise against the
//! `nproc`-thread result, and the traced run times `nproc` threads too
//! (`exec_nproc_p50_us`, `codegen.nproc_dispatches`).
//!
//! Only `codegen` and `tensor` work inside the measured loop. The zoo
//! mixes dispatch-bound shapes (lstm64, the kv128 decode) with
//! compute-bound ones (mlp4x64, layernorm256x128) and holds both decode
//! shapes on which the simulator picks split-K.

use crate::common::{
    self, budget, timed_setup, us_between, Cfg, HostSpeed, Outcome, Samples, Timeline, Workload,
};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::rng::XorShiftRng;
use sf_tensor::{alloc_stats, compare, Tensor};
use spacefusion::codegen::{estimate_cost, ExecEngine, ExecOptions};
use spacefusion::pipeline::{CompileOptions, CompileSession, CompiledProgram};
use spacefusion::sched::SlicingOptions;
use spacefusion::serve::protocol::tensor_checksum;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The ten graphs `exec_bench` runs.
pub fn zoo() -> Vec<Graph> {
    vec![
        subgraphs::mlp_stack(4, 256, 64),
        subgraphs::lstm_cell(64, 64),
        subgraphs::softmax(256, 128),
        subgraphs::layernorm(256, 128),
        subgraphs::rmsnorm(256, 128),
        subgraphs::mha(1, 4, 64, 32),
        subgraphs::masked_mha(1, 4, 64, 32),
        subgraphs::mha_decode(1, 4, 128, 32),
        subgraphs::mha_decode(1, 4, 1024, 32),
        subgraphs::deep_reduce(64, 4096),
    ]
}

/// The seeded inputs of one run: a binding seed per zoo graph and the
/// generator that draws each round's order.
pub struct Plan {
    /// Binding seed per zoo graph.
    pub binding_seeds: Vec<u64>,
    order_rng: XorShiftRng,
}

impl Plan {
    /// The plan for a seed.
    pub fn new(seed: u64, graphs: usize) -> Plan {
        let mut rng = XorShiftRng::seed_from_u64(seed ^ 0xe8ec_2001);
        let binding_seeds = (0..graphs).map(|_| rng.next_u64() % 1_000_000).collect();
        Plan {
            binding_seeds,
            order_rng: rng,
        }
    }

    /// The next round's execution order, a permutation of the zoo.
    pub fn next_round(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.binding_seeds.len()).collect();
        stats::shuffle(&mut order, &mut self.order_rng);
        order
    }

    /// Digest of the binding seeds and the first `rounds` orders.
    pub fn digest(seed: u64, graphs: usize, rounds: usize) -> u64 {
        let mut plan = Plan::new(seed, graphs);
        let mut d = Digest::default();
        for s in &plan.binding_seeds {
            d.add(*s);
        }
        for _ in 0..rounds {
            for g in plan.next_round() {
                d.add(g as u64);
            }
        }
        d.0
    }
}

/// The compiled zoo with its bindings and expected output checksums.
struct Zoo {
    graphs: Vec<Graph>,
    programs: Vec<CompiledProgram>,
    bindings: Vec<HashMap<String, Tensor>>,
    expected: Vec<Vec<u64>>,
}

fn checksums(outs: &[Tensor]) -> Vec<u64> {
    outs.iter()
        .map(|t| tensor_checksum(t.shape().dims(), t.data()))
        .collect()
}

/// Compiles the zoo at default options on Ampere, draws the bindings
/// and runs each program once at `opts` (`nproc` threads).
fn setup(plan: &Plan, opts: &ExecOptions) -> Result<Zoo, String> {
    let graphs = zoo();
    let session = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let mut programs = Vec::new();
    let mut bindings = Vec::new();
    let mut expected = Vec::new();
    for (g, seed) in graphs.iter().zip(&plan.binding_seeds) {
        let p = session
            .compile(g)
            .map_err(|e| format!("compile {}: {e}", g.name()))?;
        let b = g.random_bindings(*seed);
        let out = p
            .execute_with(&b, opts)
            .map_err(|e| format!("execute {}: {e}", g.name()))?;
        expected.push(checksums(&out));
        programs.push(p);
        bindings.push(b);
    }
    Ok(Zoo {
        graphs,
        programs,
        bindings,
        expected,
    })
}

/// Outputs are bitwise equal at 1 and `nproc` threads and within the
/// fuzz oracle's derived tolerance of the `sf-ir` reference interpreter.
fn check_outputs(zoo: &Zoo, out: &mut Outcome) {
    let one = ExecOptions::with_threads(1);
    for (i, g) in zoo.graphs.iter().enumerate() {
        let name = g.name().to_string();
        match zoo.programs[i].execute_with(&zoo.bindings[i], &one) {
            Ok(t) => out.check(checksums(&t) == zoo.expected[i], || {
                format!("exec-zoo {name}: 1-thread outputs differ bitwise from nproc threads")
            }),
            Err(e) => out.check(false, || {
                format!("exec-zoo {name}: 1-thread run failed: {e}")
            }),
        }
        let tol = sf_fuzz::oracle::derive_tolerance(g);
        let fused = zoo.programs[i].execute_with(&zoo.bindings[i], &one);
        match (g.execute(&zoo.bindings[i]), fused) {
            (Ok(want), Ok(got)) => {
                for (w, t) in want.iter().zip(&got) {
                    let r = compare::compare_tensors(t, w, tol);
                    out.check(r.is_ok(), || {
                        format!("exec-zoo {name}: differs from the reference: {r:?}")
                    });
                }
            }
            (w, f) => out.check(false, || {
                format!(
                    "exec-zoo {name}: reference {:?} / fused {:?}",
                    w.err(),
                    f.err()
                )
            }),
        }
    }
}

/// Per-layer counters accumulated by a traced loop.
#[derive(Default)]
pub struct LayerCounts {
    flops: f64,
    bytes: f64,
    dispatches: u64,
    serial_runs: u64,
    race_fallbacks: u64,
    allocations: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Engine and allocator counters at the start of a measured stretch.
pub struct ExecProbe {
    engine: Arc<ExecEngine>,
    at: [u64; 6],
}

impl ExecProbe {
    /// Snapshots the counters of `engine` and the tensor allocator.
    pub fn start(engine: &Arc<ExecEngine>) -> ExecProbe {
        ExecProbe {
            engine: Arc::clone(engine),
            at: Self::read(engine),
        }
    }

    fn read(e: &ExecEngine) -> [u64; 6] {
        [
            e.dispatches(),
            e.serial_runs(),
            e.race_fallbacks(),
            alloc_stats::allocations(),
            alloc_stats::pool_hits(),
            alloc_stats::pool_misses(),
        ]
    }

    /// Adds the counter deltas since `start` to `counts`.
    pub fn finish(self, counts: &mut LayerCounts) {
        let now = Self::read(&self.engine);
        let d = |i: usize| now[i] - self.at[i];
        counts.dispatches += d(0);
        counts.serial_runs += d(1);
        counts.race_fallbacks += d(2);
        counts.allocations += d(3);
        counts.pool_hits += d(4);
        counts.pool_misses += d(5);
    }
}

/// Adds one execute's modelled flops and global bytes to `counts`.
pub fn add_cost(p: &CompiledProgram, counts: &mut LayerCounts) {
    for k in &p.kernels {
        let c = estimate_cost(k, p.instances as u64);
        counts.flops += c.flops as f64;
        counts.bytes += (c.global_read_bytes + c.global_write_bytes) as f64;
    }
}

/// One `execute` as `CompiledProgram::execute_with` performs it, with a
/// span around the bindings clone, each kernel and the output resolve.
pub fn execute_traced(
    p: &CompiledProgram,
    bindings: &HashMap<String, Tensor>,
    opts: &ExecOptions,
    tracer: &mut Tracer,
    id: u64,
    parent: Option<usize>,
) -> Result<Vec<Tensor>, String> {
    let root = tracer.open("codegen.execute", parent, id);
    let t = Instant::now();
    let mut env = bindings.clone();
    tracer.record("codegen.env_clone", t, Instant::now(), root, id);
    for k in &p.kernels {
        let split = k
            .schedule
            .temporal
            .as_ref()
            .is_some_and(|t| t.partitions() > 1);
        let t = Instant::now();
        p.engine()
            .execute_kernel(k, &mut env, opts, None)
            .map_err(|e| e.to_string())?;
        let name = if split {
            "codegen.split_kernel"
        } else {
            "codegen.kernel"
        };
        tracer.record(name, t, Instant::now(), root, id);
    }
    let t = Instant::now();
    let outs = p
        .outputs
        .iter()
        .map(|(n, shape)| {
            let t = env.get(n).ok_or_else(|| format!("missing output '{n}'"))?;
            if t.shape() == shape {
                Ok(t.clone())
            } else {
                t.reshape(shape.clone()).map_err(|e| e.to_string())
            }
        })
        .collect::<Result<Vec<_>, String>>();
    tracer.record("codegen.resolve", t, Instant::now(), root, id);
    tracer.close(root);
    outs
}

/// The `codegen.*` and `tensor.*` metrics, per traced execute; returns
/// the accounting line.
pub fn codegen_metrics(tracer: &Tracer, counts: &LayerCounts, out: &mut Outcome) -> String {
    let n = tracer.count("codegen.execute").max(1) as f64;
    let totals = tracer.totals();
    let tot = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    let kernel = tot("codegen.kernel") + tot("codegen.split_kernel");
    let (clone, resolve, wall) = (
        tot("codegen.env_clone"),
        tot("codegen.resolve"),
        tot("codegen.execute"),
    );
    out.metric("codegen.kernel_us", kernel / n, "us");
    out.metric(
        "codegen.split_kernel_us",
        tot("codegen.split_kernel") / n,
        "us",
    );
    out.metric("codegen.env_clone_us", clone / n, "us");
    out.metric("codegen.resolve_us", resolve / n, "us");
    out.metric(
        "codegen.gflops",
        counts.flops / kernel.max(1e-9) / 1e3,
        "GFLOP/s",
    );
    out.metric("codegen.dispatches", counts.dispatches as f64 / n, "count");
    out.metric(
        "codegen.serial_runs",
        counts.serial_runs as f64 / n,
        "count",
    );
    out.metric(
        "codegen.race_fallbacks",
        counts.race_fallbacks as f64 / n,
        "count",
    );
    out.metric("codegen.flops", counts.flops / n, "count");
    out.metric("codegen.bytes", counts.bytes / n, "B");
    out.metric("tensor.allocations", counts.allocations as f64 / n, "count");
    let takes = (counts.pool_hits + counts.pool_misses).max(1) as f64;
    out.metric(
        "tensor.pool_reuse_ratio",
        counts.pool_hits as f64 / takes,
        "ratio",
    );
    format!(
        "per execute kernel {:.1} + clone {:.1} + resolve {:.1} = {:.1} µs of {:.1} µs wall; covered {:.1}%",
        kernel / n,
        clone / n,
        resolve / n,
        (kernel + clone + resolve) / n,
        wall / n,
        100.0 * (kernel + clone + resolve) / wall.max(1e-9)
    )
}

/// `gpusim.*` from the cache-simulating profiler over `programs`.
pub fn gpusim_metrics<'a>(programs: impl Iterator<Item = &'a CompiledProgram>, out: &mut Outcome) {
    let (mut n, mut kernels, mut dram, mut l2_acc, mut l2_miss) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in programs {
        let r = p.profile(1);
        n += 1;
        kernels += r.stats.kernels;
        dram += r.stats.dram_total_bytes();
        l2_acc += r.stats.l2_accesses;
        l2_miss += r.stats.l2_misses;
    }
    let n = n.max(1) as f64;
    out.metric("gpusim.kernels", kernels as f64 / n, "count");
    out.metric("gpusim.dram_bytes", dram as f64 / n, "B");
    out.metric(
        "gpusim.l2_hit_ratio",
        1.0 - l2_miss as f64 / l2_acc.max(1) as f64,
        "ratio",
    );
}

/// The measured loop: seeded round-robin over the zoo for `seconds`,
/// appending each `execute`'s wall time to its graph's timeline and
/// probing the host after each round. Returns the execute count.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    zoo: &Zoo,
    plan: &mut Plan,
    seconds: f64,
    opts: &ExecOptions,
    (times, host): (&mut [Timeline], &mut HostSpeed),
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    out: &mut Outcome,
) -> u64 {
    let probe = ExecProbe::start(zoo.programs[0].engine());
    let end = Instant::now() + budget(seconds);
    let mut op = 0u64;
    while Instant::now() < end {
        for g in plan.next_round() {
            let p = &zoo.programs[g];
            op += 1;
            let id = (g as u64) << 32 | op;
            let t = Instant::now();
            let res = if tracer.enabled() {
                add_cost(p, counts);
                execute_traced(p, &zoo.bindings[g], opts, tracer, id, None)
            } else {
                p.execute_with(&zoo.bindings[g], opts)
                    .map_err(|e| e.to_string())
            };
            let us = common::us_since(t);
            out.attempted += 1;
            match res {
                Ok(o) => {
                    times[g].push(t, us);
                    let ok = checksums(&o) == zoo.expected[g];
                    out.check(ok, || {
                        format!(
                            "exec-zoo {}: outputs changed between runs",
                            zoo.graphs[g].name()
                        )
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    out.line(format!(
                        "exec-zoo {}: execute failed: {e}",
                        zoo.graphs[g].name()
                    ));
                }
            }
        }
        host.probe();
    }
    probe.finish(counts);
    op
}

/// `exec_p50_us`, `exec_p99_us` and `model_us` from per-graph samples.
///
/// At reference host speed: `exec_p50_us` is the geomean over graphs of
/// each graph's median; `exec_p99_us` is that geomean times the p99 of
/// every execute time relative to its graph's median, pooled over
/// graphs (one graph alone has too few samples for a p99).
fn e2e_metrics(
    zoo: &Zoo,
    (times, host): (&[Timeline], &HostSpeed),
    out: &mut Outcome,
) -> (f64, f64) {
    let whole: Vec<Samples> = times.iter().map(Timeline::all).collect();
    let scaled: Vec<Samples> = times.iter().map(|t| t.scaled(host)).collect();
    let medians: Vec<f64> = scaled.iter().map(Samples::p50).collect();
    let ratios = Samples(
        scaled
            .iter()
            .zip(&medians)
            .flat_map(|(s, m)| s.0.iter().map(move |v| v / m))
            .collect(),
    );
    let p50 = stats::geomean(&medians).unwrap_or(0.0);
    let p99 = p50 * ratios.tail().0;
    let models: Vec<f64> = zoo.programs.iter().map(common::model_us).collect();
    out.metric("exec_p50_us", p50, "us");
    out.metric("exec_p99_us", p99, "us");
    out.metric("model_us", stats::geomean(&models).unwrap_or(0.0), "sim_us");
    for (i, t) in whole.iter().enumerate() {
        out.line(format!(
            "  {:<28} {}   model {:.2} µs",
            zoo.graphs[i].name(),
            t.summary(),
            models[i]
        ));
    }
    let wall: Vec<f64> = whole.iter().map(Samples::p50).collect();
    out.line(format!(
        "  wall geomean p50 {:.1} µs; at reference host speed: geomean p50 {p50:.1} µs, pooled {} → p{} {p99:.1} µs; {}",
        stats::geomean(&wall).unwrap_or(0.0),
        ratios.0.len(),
        common::fmt_pct(ratios.tail().1),
        host.summary()
    ));
    (p50, p99)
}

/// exec-zoo between its measured slices.
pub struct ExecZoo {
    cfg: Cfg,
    primary: bool,
    zoo: Zoo,
    plan: Plan,
    opts: ExecOptions,
    par: ExecOptions,
    times: Vec<Timeline>,
    host: HostSpeed,
    executes: u64,
    seconds: f64,
    out: Outcome,
}

impl ExecZoo {
    /// Set-up (timed when `primary`) and the output checks.
    pub fn start(cfg: &Cfg, primary: bool) -> Result<ExecZoo, String> {
        let mut out = Outcome::default();
        let opts = ExecOptions::with_threads(1);
        let par = ExecOptions::with_threads(cfg.nproc);
        let graphs = zoo().len();
        let (zoo, setup_s) = timed_setup(primary, || setup(&Plan::new(cfg.seed, graphs), &par));
        let zoo = zoo.map_err(|e| format!("exec-zoo set-up: {e}"))?;
        if primary {
            out.metric("setup_s", setup_s, "s");
        }
        check_outputs(&zoo, &mut out);
        let mut out_digest = Digest::default();
        for e in zoo.expected.iter().flatten() {
            out_digest.add(*e);
        }
        out.line(format!(
            "exec-zoo: {graphs} graphs, one caller, {} exec thread(s) timed, {} in set-up and the checks; input digest {:016x}; output digest {:016x}",
            opts.effective_threads(),
            par.effective_threads(),
            Plan::digest(cfg.seed, graphs, 64),
            out_digest.0
        ));
        let begin = Instant::now();
        Ok(ExecZoo {
            cfg: *cfg,
            primary,
            times: vec![Timeline::new(begin); graphs],
            host: HostSpeed::new(begin, common::EXEC_SLOPE),
            plan: Plan::new(cfg.seed, graphs),
            zoo,
            opts,
            par,
            executes: 0,
            seconds: 0.0,
            out,
        })
    }
}

impl Workload for ExecZoo {
    fn measure(&mut self, seconds: f64) {
        self.executes += run_loop(
            &self.zoo,
            &mut self.plan,
            seconds,
            &self.opts,
            (&mut self.times, &mut self.host),
            &mut Tracer::new(false),
            &mut LayerCounts::default(),
            &mut self.out,
        );
        self.seconds += seconds;
        if self.primary && !self.out.metrics.contains_key("peak_rss_mib") {
            let rss = stats::peak_rss_mib("self").unwrap_or(0.0);
            self.out.metric("peak_rss_mib", rss, "MiB");
        }
    }

    fn finish(mut self: Box<Self>, trace: bool) -> Outcome {
        let mut out = std::mem::take(&mut self.out);
        out.line(format!(
            "exec-zoo{}: {} executes in {:.1} s",
            if trace { " (untraced)" } else { "" },
            self.executes,
            self.seconds
        ));
        let untraced = e2e_metrics(&self.zoo, (&self.times, &self.host), &mut out);
        if trace {
            let ExecZoo {
                cfg,
                zoo,
                mut plan,
                seconds,
                opts,
                par,
                ..
            } = *self;
            let opts = [opts, par];
            traced(&cfg, &zoo, &mut plan, seconds, &opts, untraced, &mut out);
        }
        out
    }
}

/// The traced run: the same loop with spans, the layer metrics, the
/// accounting check, the untraced loop once more at `nproc` threads
/// (`opts[1]`) and the model-vs-host table.
fn traced(
    cfg: &Cfg,
    zoo: &Zoo,
    plan: &mut Plan,
    seconds: f64,
    opts: &[ExecOptions; 2],
    untraced: (f64, f64),
    out: &mut Outcome,
) {
    let [opts, par] = opts;
    let mut tracer = Tracer::new(true);
    let mut counts = LayerCounts::default();
    let mut scratch = Outcome::default();
    let begin = Instant::now();
    let mut times = vec![Timeline::new(begin); zoo.programs.len()];
    let mut host = HostSpeed::new(begin, common::EXEC_SLOPE);
    let executes = run_loop(
        zoo,
        plan,
        seconds,
        opts,
        (&mut times, &mut host),
        &mut tracer,
        &mut counts,
        &mut scratch,
    );
    let (p50, p99) = e2e_metrics(zoo, (&times, &host), &mut scratch);
    out.attempted += scratch.attempted;
    out.failed += scratch.failed;
    out.problems.extend(scratch.problems);
    out.line(format!(
        "exec-zoo traced: {executes} executes; tracing overhead: exec_p50_us {:+.1} µs, exec_p99_us {:+.1} µs",
        p50 - untraced.0,
        p99 - untraced.1
    ));
    let accounting = codegen_metrics(&tracer, &counts, out);
    out.line(format!("exec-zoo accounting: {accounting}"));
    parallel_phase(zoo, plan, seconds / 2.0, par, out);
    gpusim_metrics(zoo.programs.iter(), out);
    model_vs_host(zoo, par, out);
    crate::write_trace(&tracer, "exec-zoo", cfg.seed, out);
}

/// The untraced loop at `nproc` exec threads: `exec_nproc_p50_us`
/// against the one-thread `exec_p50_us`, and the pool dispatches per
/// execute.
fn parallel_phase(zoo: &Zoo, plan: &mut Plan, seconds: f64, par: &ExecOptions, out: &mut Outcome) {
    let mut counts = LayerCounts::default();
    let mut scratch = Outcome::default();
    let begin = Instant::now();
    let mut times = vec![Timeline::new(begin); zoo.programs.len()];
    let mut host = HostSpeed::new(begin, common::EXEC_SLOPE);
    let executes = run_loop(
        zoo,
        plan,
        seconds,
        par,
        (&mut times, &mut host),
        &mut Tracer::new(false),
        &mut counts,
        &mut scratch,
    );
    let (p50, _) = e2e_metrics(zoo, (&times, &host), &mut scratch);
    out.attempted += scratch.attempted;
    out.failed += scratch.failed;
    out.problems.extend(scratch.problems);
    let dispatches = counts.dispatches as f64 / executes.max(1) as f64;
    out.line(format!(
        "exec-zoo at {} exec threads: {executes} executes; geomean p50 {p50:.1} µs at reference host speed; {dispatches:.1} pool dispatches per execute",
        par.effective_threads()
    ));
    out.metric("exec_nproc_p50_us", p50, "us");
    out.metric("codegen.nproc_dispatches", dispatches, "count");
}

/// Every zoo graph on which the tuner chose split-K, also compiled with
/// split-K disabled: host and model µs side by side, flagged where the
/// two orders disagree.
fn model_vs_host(zoo: &Zoo, opts: &ExecOptions, out: &mut Outcome) {
    let no_split = CompileSession::new(
        Arch::Ampere,
        CompileOptions {
            slicing: SlicingOptions {
                enable_split: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    out.line("model vs host (split-K chosen by the tuner, against split-K disabled):");
    out.line(format!(
        "  {:<28} {:>5} {:>12} {:>12} {:>11} {:>11}  orders",
        "graph", "split", "host split", "host serial", "model split", "model serial"
    ));
    const ROUNDS: usize = 200;
    for (i, g) in zoo.graphs.iter().enumerate() {
        let split = &zoo.programs[i];
        let factor = common::split_factor(split);
        if factor <= 1 {
            continue;
        }
        let serial = match no_split.compile(g) {
            Ok(p) => p,
            Err(e) => {
                out.check(false, || {
                    format!("{}: no-split compile failed: {e}", g.name())
                });
                continue;
            }
        };
        let b = &zoo.bindings[i];
        let (mut a, mut s) = (Vec::new(), Vec::new());
        for r in 0..ROUNDS {
            // Alternate which side runs first so drift biases neither.
            for side in [r % 2, 1 - r % 2] {
                let p = if side == 0 { split } else { &serial };
                let t = Instant::now();
                let ok = p.execute_with(b, opts).is_ok();
                let us = us_between(t, Instant::now());
                out.check(ok, || format!("{}: model-vs-host execute failed", g.name()));
                if side == 0 { &mut a } else { &mut s }.push(us);
            }
        }
        let (ha, hs) = (
            stats::median(&a).unwrap_or(0.0),
            stats::median(&s).unwrap_or(0.0),
        );
        let (ma, ms) = (common::model_us(split), common::model_us(&serial));
        let disagree = (ha < hs) != (ma < ms);
        out.line(format!(
            "  {:<28} {:>5} {:>9.1} µs {:>9.1} µs {:>8.2} µs {:>8.2} µs  {}",
            g.name(),
            factor,
            ha,
            hs,
            ma,
            ms,
            if disagree {
                "DISAGREE (model prefers one, host the other)"
            } else {
                "agree"
            }
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_reproducible_per_seed() {
        assert_eq!(Plan::digest(5, 10, 32), Plan::digest(5, 10, 32));
        assert_ne!(Plan::digest(5, 10, 32), Plan::digest(6, 10, 32));
        let mut p = Plan::new(9, 10);
        let mut r = p.next_round();
        r.sort();
        assert_eq!(r, (0..10).collect::<Vec<_>>());
    }
}
