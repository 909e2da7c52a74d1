//! `compile-models`: the distinct subprograms of the five evaluation
//! models at seq {128, 512}, on all three archs, under SpaceFusion,
//! TileGraph and MiOnly, compiled in a seeded order.
//!
//! Each graph compiles cold in a fresh `CompileSession`, then once more
//! warm in the same session, so the warm recompile reads the schedule
//! cache the cold compile wrote. Nothing executes.

use crate::common::{
    self, budget, timed_setup, us_between, Cfg, HostSpeed, Outcome, Timeline, Workload,
};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use sf_gpu_sim::Arch;
use sf_ir::dsl::print_graph;
use sf_ir::Graph;
use sf_tensor::rng::XorShiftRng;
use spacefusion::pipeline::{
    CollectingSink, CompileSession, CompiledProgram, EventDetail, FusionPolicy, PassId,
};
use spacefusion::verify::{self, VerifyConfig};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Policies compiled per graph.
const POLICIES: [FusionPolicy; 3] = [
    FusionPolicy::SpaceFusion,
    FusionPolicy::TileGraph,
    FusionPolicy::MiOnly,
];

/// One compile: a graph, an arch and a policy.
pub struct Item {
    graph: Arc<Graph>,
    arch: Arch,
    policy: FusionPolicy,
}

impl Item {
    fn label(&self) -> String {
        format!(
            "{}@{}/{}",
            self.graph.name(),
            self.arch.name(),
            self.policy.name()
        )
    }

    fn session(&self, sink: Option<Arc<CollectingSink>>) -> CompileSession {
        let s = CompileSession::new(self.arch, common::options(self.policy));
        match sink {
            Some(sink) => s.with_sink(sink),
            None => s,
        }
    }
}

/// The distinct subprograms of BERT, ALBERT, T5, ViT and Llama-2-7B at
/// batch 1, seq {128, 512}, × archs × policies, in a fixed order.
pub fn items() -> Vec<Item> {
    let mut seen = HashSet::new();
    let mut graphs = Vec::new();
    for model in sf_models::all_models() {
        for seq in [128, 512] {
            for w in model.subprograms(1, seq) {
                if seen.insert(print_graph(&w.graph)) {
                    graphs.push(Arc::new(w.graph));
                }
            }
        }
    }
    let mut out = Vec::new();
    for g in &graphs {
        for arch in Arch::all() {
            for policy in POLICIES {
                out.push(Item {
                    graph: Arc::clone(g),
                    arch,
                    policy,
                });
            }
        }
    }
    out
}

/// The seeded order of each pass over the items.
pub struct Plan {
    rng: XorShiftRng,
    n: usize,
}

impl Plan {
    /// The plan for a seed over `n` items.
    pub fn new(seed: u64, n: usize) -> Plan {
        Plan {
            rng: XorShiftRng::seed_from_u64(seed ^ 0xc0_3b11e),
            n,
        }
    }

    /// The next pass's order.
    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        stats::shuffle(&mut order, &mut self.rng);
        order
    }

    /// Digest of the first `passes` orders.
    pub fn digest(seed: u64, n: usize, passes: usize) -> u64 {
        let mut p = Plan::new(seed, n);
        let mut d = Digest::default();
        for _ in 0..passes {
            for i in p.next_pass() {
                d.add(i as u64);
            }
        }
        d.0
    }
}

/// Set-up: the item list, then one untimed-in-the-loop warm-up pass
/// that pins each item's expected schedule digest and model time.
struct Setup {
    items: Vec<Item>,
    programs: Vec<CompiledProgram>,
}

fn setup() -> Result<Setup, String> {
    let items = items();
    let programs = items
        .iter()
        .map(|it| {
            it.session(None)
                .compile(&it.graph)
                .map_err(|e| format!("{}: {e}", it.label()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { items, programs })
}

/// Per-layer totals from the compiler's pass events.
#[derive(Default)]
pub struct PassTotals {
    compiles: u64,
    configs: u64,
    evaluated: u64,
    pruned: u64,
    degradations: u64,
    probes: u64,
    hits: u64,
}

/// Span name of each pass that the layer metrics sum.
fn pass_span(p: PassId) -> Option<&'static str> {
    Some(match p {
        PassId::Segment => "pipeline.segment",
        PassId::Group => "pipeline.group",
        PassId::CacheLookup => "pipeline.cache_lookup",
        PassId::SmgBuild => "smg.build",
        PassId::SpatialSlice => "slicer.spatial",
        PassId::TemporalSlice => "slicer.temporal",
        PassId::EnumCfg => "sched.enum",
        PassId::Partition => "sched.partition",
        PassId::Tune => "tune",
        PassId::Emit => "pipeline.emit",
        PassId::Verify => "pipeline.verify",
        _ => return None,
    })
}

/// Layer spans of every pass event in `sink`, as children of `parent`.
pub fn record_passes(
    sink: &CollectingSink,
    end: Instant,
    parent: Option<usize>,
    id: u64,
    tracer: &mut Tracer,
    totals: &mut PassTotals,
) {
    totals.compiles += 1;
    for e in sink.take() {
        match e.detail {
            EventDetail::Candidates { generated } => totals.configs += generated as u64,
            EventDetail::Tune {
                evaluated, pruned, ..
            } => {
                totals.evaluated += evaluated as u64;
                totals.pruned += pruned as u64;
            }
            EventDetail::Cache { hit, .. } => {
                totals.probes += 1;
                totals.hits += hit as u64;
            }
            EventDetail::Degrade { .. } => totals.degradations += 1,
            _ => {}
        }
        if let Some(name) = pass_span(e.pass) {
            tracer.record_duration(name, end, e.duration_us, parent, id);
        }
    }
}

/// Pass-time and count metrics per compile, from spans and totals.
pub fn pass_metrics(tracer: &Tracer, totals: &PassTotals, out: &mut Outcome) -> f64 {
    let n = totals.compiles.max(1) as f64;
    let t = tracer.totals();
    let mut covered = 0.0;
    for (metric, span) in [
        ("pipeline.segment_us", "pipeline.segment"),
        ("pipeline.group_us", "pipeline.group"),
        ("pipeline.cache_lookup_us", "pipeline.cache_lookup"),
        ("smg.build_us", "smg.build"),
        ("slicer.spatial_us", "slicer.spatial"),
        ("slicer.temporal_us", "slicer.temporal"),
        ("sched.enum_us", "sched.enum"),
        ("sched.partition_us", "sched.partition"),
        ("tune.us", "tune"),
        ("pipeline.emit_us", "pipeline.emit"),
    ] {
        let v = t.get(span).copied().unwrap_or(0.0);
        covered += v;
        out.metric(metric, v / n, "us");
    }
    out.metric("sched.configs", totals.configs as f64 / n, "count");
    out.metric("tune.evaluated", totals.evaluated as f64 / n, "count");
    out.metric("tune.pruned", totals.pruned as f64 / n, "count");
    out.metric("pipeline.degradations", totals.degradations as f64, "count");
    out.metric(
        "pipeline.cache_hit_ratio",
        totals.hits as f64 / totals.probes.max(1) as f64,
        "ratio",
    );
    covered / n
}

/// Items compiled between two host probes (about 15 ms of compiling).
const ITEMS_PER_PROBE: usize = 8;

/// The measured loop: passes over the items in seeded order, each item
/// cold in a fresh session then warm in the same one, with a host probe
/// every `ITEMS_PER_PROBE` items. Appends to `cold` and `warm`; returns
/// the passes begun.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    s: &Setup,
    expected: &[u64],
    plan: &mut Plan,
    seconds: f64,
    (cold, warm, host): (&mut Timeline, &mut Timeline, &mut HostSpeed),
    tracer: &mut Tracer,
    totals: &mut PassTotals,
    out: &mut Outcome,
) -> usize {
    let end = Instant::now() + budget(seconds);
    let mut passes = 0;
    let mut op = 0u64;
    'run: loop {
        passes += 1;
        for (n, i) in plan.next_pass().into_iter().enumerate() {
            if Instant::now() >= end {
                break 'run;
            }
            if n % ITEMS_PER_PROBE == 0 {
                host.probe();
            }
            let it = &s.items[i];
            let sink = tracer.enabled().then(|| Arc::new(CollectingSink::new()));
            let session = it.session(sink.clone());
            for (kind, samples) in [
                ("pipeline.compile", &mut *cold),
                ("pipeline.recompile", &mut *warm),
            ] {
                op += 1;
                let id = (i as u64) << 32 | op;
                out.attempted += 1;
                let t = Instant::now();
                let res = session.compile(&it.graph);
                let done = Instant::now();
                samples.push(t, us_between(t, done));
                let root = tracer.record(kind, t, done, None, id);
                if let Some(sink) = &sink {
                    record_passes(sink, done, root, id, tracer, totals);
                }
                match res {
                    Ok(p) => {
                        let d = common::schedule_digest(&p);
                        out.check(d == expected[i], || {
                            format!("compile-models {}: schedule changed ({kind})", it.label())
                        });
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.line(format!("compile-models {}: {kind} failed: {e}", it.label()));
                    }
                }
            }
        }
    }
    passes
}

/// `compile_p50_us`, `compile_p99_us`, `recompile_p50_us` at reference
/// host speed.
fn window_metrics(cold: &Timeline, warm: &Timeline, host: &HostSpeed) -> (f64, f64, f64) {
    let c = cold.scaled(host);
    (c.p50(), c.tail().0, warm.scaled(host).p50())
}

/// compile-models between its measured slices.
pub struct Models {
    cfg: Cfg,
    primary: bool,
    setup: Setup,
    expected: Vec<u64>,
    models: Vec<f64>,
    plan: Plan,
    cold: Timeline,
    warm: Timeline,
    host: HostSpeed,
    passes: usize,
    seconds: f64,
    out: Outcome,
}

impl Models {
    /// Set-up (timed when `primary`), then verification and digests,
    /// which stay outside every timed region.
    pub fn start(cfg: &Cfg, primary: bool) -> Result<Models, String> {
        let mut out = Outcome::default();
        let (s, setup_s) = timed_setup(primary, setup);
        let s = s.map_err(|e| format!("compile-models set-up: {e}"))?;
        if primary {
            out.metric("setup_s", setup_s, "s");
        }
        let mut errors = 0;
        let mut schedules = Digest::default();
        let mut archs = BTreeSet::new();
        let expected: Vec<u64> = s
            .programs
            .iter()
            .zip(&s.items)
            .map(|(p, it)| {
                let diags = verify::verify_program(&p.kernels, &p.arch, &VerifyConfig::default());
                errors += verify::counts(&diags).0;
                archs.insert(it.arch.name());
                let d = common::schedule_digest(p);
                schedules.add(d);
                d
            })
            .collect();
        out.check(errors == 0, || {
            format!("compile-models: verifier reported {errors} error(s)")
        });
        out.line(format!(
            "compile-models: {} compiles per pass ({} archs x {} policies); input digest {:016x}; schedule digest {:016x}",
            s.items.len(),
            archs.len(),
            POLICIES.len(),
            Plan::digest(cfg.seed, s.items.len(), 2),
            schedules.0
        ));
        let begin = Instant::now();
        Ok(Models {
            cfg: *cfg,
            primary,
            models: s.programs.iter().map(common::model_us).collect(),
            plan: Plan::new(cfg.seed, s.items.len()),
            setup: s,
            expected,
            cold: Timeline::new(begin),
            warm: Timeline::new(begin),
            host: HostSpeed::new(begin, common::COMPILE_SLOPE),
            passes: 0,
            seconds: 0.0,
            out,
        })
    }
}

impl Workload for Models {
    fn measure(&mut self, seconds: f64) {
        self.passes += run_loop(
            &self.setup,
            &self.expected,
            &mut self.plan,
            seconds,
            (&mut self.cold, &mut self.warm, &mut self.host),
            &mut Tracer::new(false),
            &mut PassTotals::default(),
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
        let (p50, p99, re50) = window_metrics(&self.cold, &self.warm, &self.host);
        out.line(format!(
            "compile-models{}: {} pass(es); wall: cold {}; warm {}; at reference host speed: cold {}, warm p50 {re50:.1} µs; {}",
            if trace { " (untraced)" } else { "" },
            self.passes,
            self.cold.all().summary(),
            self.warm.all().summary(),
            self.cold.scaled(&self.host).summary(),
            self.host.summary(),
        ));
        out.metric("compile_p50_us", p50, "us");
        out.metric("compile_p99_us", p99, "us");
        out.metric("recompile_p50_us", re50, "us");
        out.metric(
            "model_us",
            stats::geomean(&self.models).unwrap_or(0.0),
            "sim_us",
        );
        if trace {
            self.traced((p50, re50), &mut out);
        }
        out
    }
}

impl Models {
    /// The traced phase: the same loop with pass spans, the layer
    /// metrics and the accounting against compile wall time.
    fn traced(&mut self, untraced: (f64, f64), out: &mut Outcome) {
        let seconds = self.seconds;
        let mut tracer = Tracer::new(true);
        let mut totals = PassTotals::default();
        let mut scratch = Outcome::default();
        let begin = Instant::now();
        let (mut tc, mut tw) = (Timeline::new(begin), Timeline::new(begin));
        let mut host = HostSpeed::new(begin, common::COMPILE_SLOPE);
        run_loop(
            &self.setup,
            &self.expected,
            &mut self.plan,
            seconds,
            (&mut tc, &mut tw, &mut host),
            &mut tracer,
            &mut totals,
            &mut scratch,
        );
        out.attempted += scratch.attempted;
        out.failed += scratch.failed;
        out.problems.extend(scratch.problems);
        let (t50, _, tr50) = window_metrics(&tc, &tw, &host);
        out.line(format!(
            "compile-models traced: cold {}; warm {}; tracing overhead: compile_p50_us {:+.1} µs, recompile_p50_us {:+.1} µs",
            tc.all().summary(),
            tw.all().summary(),
            t50 - untraced.0,
            tr50 - untraced.1
        ));
        let pass_us = pass_metrics(&tracer, &totals, out);
        let (tc, tw) = (tc.all(), tw.all());
        let wall = (tc.mean() * tc.0.len() as f64 + tw.mean() * tw.0.len() as f64)
            / totals.compiles.max(1) as f64;
        out.line(format!(
            "compile-models accounting: pass busy time {pass_us:.1} µs of {wall:.1} µs compile wall per compile; covered {:.1}% (passes of independent groups run on {} workers, so busy time can exceed wall)",
            100.0 * pass_us / wall.max(1e-9),
            self.cfg.nproc
        ));
        gpusim_metrics(&self.setup.programs, out);
        crate::write_trace(&tracer, "compile-models", self.cfg.seed, out);
    }
}

/// `gpusim.*` from the analytic cost model at the paper's shapes (the
/// cache-replaying profiler is too slow for model-sized graphs).
fn gpusim_metrics(programs: &[CompiledProgram], out: &mut Outcome) {
    let (mut kernels, mut dram, mut global) = (0u64, 0u64, 0u64);
    for p in programs {
        for k in &p.kernels {
            let c = spacefusion::codegen::estimate_cost(k, p.instances as u64);
            kernels += 1;
            dram += c.dram_read_bytes + c.dram_write_bytes;
            global += c.global_read_bytes + c.global_write_bytes;
        }
    }
    let n = programs.len().max(1) as f64;
    out.metric("gpusim.kernels", kernels as f64 / n, "count");
    out.metric("gpusim.dram_bytes", dram as f64 / n, "B");
    out.metric(
        "gpusim.l2_hit_ratio",
        1.0 - (dram as f64 / global.max(1) as f64).min(1.0),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_list_covers_distinct_graphs_archs_policies() {
        // 44 distinct subprograms (ViT's sequence is fixed, and a few
        // projections coincide across models) x 3 archs x 3 policies.
        assert_eq!(items().len(), 44 * 9);
    }

    #[test]
    fn plan_is_reproducible_per_seed() {
        assert_eq!(Plan::digest(1, 540, 2), Plan::digest(1, 540, 2));
        assert_ne!(Plan::digest(1, 540, 2), Plan::digest(2, 540, 2));
    }
}
