//! The repository benchmark: three workloads over the two user paths
//! (`CompiledProgram::execute` and an `sfc serve` request) and the
//! compiler behind them. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec-zoo|compile-models|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`). A failed correctness check makes `correct`
//! false and the exit code 1.

mod common;
mod compile;
mod exec;
mod serve;
mod stats;
mod trace;

use common::{Cfg, Outcome, Workload};
use spacefusion::serve::json::Json;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("exec_p50_us", "us"),
    ("model_us", "sim_us"),
    ("compile_p50_us", "us"),
    ("recompile_p50_us", "us"),
    ("serve_p50_us", "us"),
    ("serve_miss_p50_us", "us"),
    ("serve_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach reports 0. The workload's own end-to-end tail comes first:
/// on a shared 2-vCPU host a p99 moves too much from run to run to be
/// held to an end-to-end bound, so it is reported, unbounded, here.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("exec_p99_us", "us"),
    ("compile_p99_us", "us"),
    ("serve_p99_us", "us"),
    ("exec_nproc_p50_us", "us"),
    ("codegen.nproc_dispatches", "count"),
    ("codegen.kernel_us", "us"),
    ("codegen.split_kernel_us", "us"),
    ("codegen.env_clone_us", "us"),
    ("codegen.resolve_us", "us"),
    ("codegen.gflops", "GFLOP/s"),
    ("codegen.dispatches", "count"),
    ("codegen.serial_runs", "count"),
    ("codegen.race_fallbacks", "count"),
    ("codegen.flops", "count"),
    ("codegen.bytes", "B"),
    ("tensor.allocations", "count"),
    ("tensor.pool_reuse_ratio", "ratio"),
    ("gpusim.kernels", "count"),
    ("gpusim.dram_bytes", "B"),
    ("gpusim.l2_hit_ratio", "ratio"),
    ("pipeline.segment_us", "us"),
    ("pipeline.group_us", "us"),
    ("pipeline.cache_lookup_us", "us"),
    ("smg.build_us", "us"),
    ("slicer.spatial_us", "us"),
    ("slicer.temporal_us", "us"),
    ("sched.enum_us", "us"),
    ("sched.partition_us", "us"),
    ("tune.us", "us"),
    ("pipeline.emit_us", "us"),
    ("sched.configs", "count"),
    ("tune.evaluated", "count"),
    ("tune.pruned", "count"),
    ("pipeline.degradations", "count"),
    ("pipeline.cache_hit_ratio", "ratio"),
    ("ir.parse_us", "us"),
    ("serve.bucket_key_us", "us"),
    ("ir.bindings_us", "us"),
    ("serve.checksum_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.compile_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.latency_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.sheds", "count"),
    ("serve.retries", "count"),
    ("serve.sessions_reaped", "count"),
    ("serve.gen_late_us", "us"),
];

/// The workloads and the measured seconds each spends on the other two
/// paths after its own, so every run reports every end-to-end metric.
pub const WORKLOADS: [&str; 3] = ["exec-zoo", "compile-models", "serve-mix"];

/// Seconds an anchor measures a path that is not the workload's own.
const ANCHOR_SECONDS: f64 = 8.0;

/// Slices each path is measured in. The run alternates them — own path,
/// then each anchor, over and over — so a slow stretch of the host falls
/// on part of every path instead of all of one.
const SLICES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Writes a traced run's spans next to the benchmark and notes where.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => out.line(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.check(false, || {
            format!("trace: cannot write {}: {e}", path.display())
        }),
    }
}

/// Set-up of one workload, as the run's own (`primary`) or an anchor.
fn start(name: &str, cfg: &Cfg, primary: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "exec-zoo" => Box::new(exec::ExecZoo::start(cfg, primary)?),
        "compile-models" => Box::new(compile::Models::start(cfg, primary)?),
        _ => Box::new(serve::Mix::start(cfg, primary)?),
    })
}

fn run(args: &Args, cfg: &Cfg) -> Outcome {
    let mut primary = match start(&args.workload, cfg, true) {
        Ok(w) => w,
        Err(e) => {
            let mut out = Outcome::default();
            out.problems.push(e);
            return out;
        }
    };
    if args.trace {
        // Per-layer metrics only: the workload's own path, once
        // untraced and once traced; no anchors.
        primary.measure(args.seconds);
        return primary.finish(true);
    }
    // The own path's first slice runs before the anchors are set up, so
    // the benchmark's peak RSS is read before they allocate anything.
    let slice = args.seconds / SLICES as f64;
    primary.measure(slice);
    let mut out = Outcome::default();
    let mut anchors = Vec::new();
    // Anchors follow the own path in the cyclic order exec-zoo,
    // compile-models, serve-mix, so the exec slices always follow serve
    // slices: right after compile slices the zoo ran up to 1.7x slower.
    let own = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .unwrap_or(0);
    for k in 1..WORKLOADS.len() {
        let name = WORKLOADS[(own + k) % WORKLOADS.len()];
        match start(name, cfg, false) {
            Ok(w) => anchors.push(w),
            Err(e) => out.problems.push(e),
        }
    }
    for i in 0..SLICES {
        if i > 0 {
            primary.measure(slice);
        }
        for a in &mut anchors {
            a.measure(ANCHOR_SECONDS / SLICES as f64);
        }
    }
    let mut own = primary.finish(false);
    own.absorb(out);
    for a in anchors {
        own.absorb(a.finish(false));
    }
    own
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg {
        seed: args.seed,
        nproc,
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "context: nproc {nproc}, exec threads 1 (exec-zoo checks and parallel phase: {nproc}; daemon: 1 per worker), daemon workers {nproc}, generator threads {nproc}, connections {nproc}, build {}, commit {}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        common::commit()
    );
    let (t0, ticks0) = (std::time::Instant::now(), stats::cpu_ticks());
    let out = run(&args, &cfg);
    if let (Some(a), Some(b)) = (ticks0, stats::cpu_ticks()) {
        println!(
            "host: {:.2} s of vCPU time stolen by the hypervisor over the run's {:.1} s",
            (b.1 - a.1) as f64 / 100.0,
            t0.elapsed().as_secs_f64()
        );
    }
    for l in &out.lines {
        println!("{l}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some((v, _)) => *v,
            None if args.trace => 0.0,
            None => {
                println!("CHECK FAILED: metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        };
        println!("metric {name:<26} {value:>16.4} {unit}");
        metrics.push((
            *name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str((*unit).into())),
            ]),
        ));
    }
    for (name, (value, unit)) in &out.metrics {
        if !table.iter().any(|(n, _)| n == name) {
            println!("also measured: {name} {value:.4} {unit}");
        }
    }
    let correct = out.problems.is_empty();
    println!(
        "operations: attempted {}, failed {} (failed_frac {:.6})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", doc.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = spacefusion::serve::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_args(&a("--workload exec-zoo --seed 1 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&a("--workload nope --seed 1")).is_err());
        assert!(parse_args(&a("--workload exec-zoo")).is_err());
        assert!(parse_args(&a("--workload exec-zoo --seed 1 --trace 2")).is_err());
        assert!(parse_args(&a("--workload exec-zoo --seed 1 --seconds")).is_err());
    }
}
