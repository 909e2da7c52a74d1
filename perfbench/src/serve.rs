//! `serve-mix`: a fresh `sfc serve` daemon process driven over its Unix
//! socket.
//!
//! Phase 1 is an open loop: seeded Poisson arrivals at `OPEN_LOOP_RPS`
//! over `nproc` connections, each request timed from its due time.
//! Phase 2 is a closed loop that saturates the daemon with `nproc`
//! connections on the hot set. The hot set is loadgen's six small graphs
//! under three policies plus two medium graphs where execute and
//! checksum dominate; a seeded `COLD_SHARE` of open-loop requests uses
//! a shape not seen before in the run, forcing a compile inside the
//! request path beside the hot hits.

use crate::common::{
    self, budget, timed_setup, us_between, with_probes, Cfg, HostSpeed, Outcome, Probe, Samples,
    Timeline, Workload,
};
use crate::compile::{pass_metrics, record_passes, PassTotals};
use crate::exec::{self, LayerCounts};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use sf_ir::dsl::{parse_graph, print_graph};
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::rng::XorShiftRng;
use sf_tensor::{compare, Tensor};
use spacefusion::codegen::ExecOptions;
use spacefusion::pipeline::{
    CollectingSink, CompileSession, CompiledProgram, FusionPolicy, ScheduleCache,
};
use spacefusion::serve::protocol::{
    read_frame, tensor_checksum, write_frame, CacheOutcome, CompileRequest, OkResponse,
    OutputDigest, Request, Response,
};
use spacefusion::serve::{BucketKey, RetryPolicy, ServeClient};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: about a fifth of the
/// hot-set capacity the saturation phase measures on a 2-vCPU host (at
/// half of it, host stalls queued so many requests that runs of the same
/// code spread past the bounds).
pub const OPEN_LOOP_RPS: f64 = 1000.0;

/// Share of open-loop requests that use a never-seen shape.
pub const COLD_SHARE: f64 = 0.03;

/// Share of the measured seconds given to the open loop; the rest
/// saturates.
const OPEN_LOOP_SHARE: f64 = 0.6;

/// `sfc serve SOCKET [flags]` inside this binary, so the benchmark
/// drives the daemon's own code path in a process of its own.
pub fn daemon_main(args: &[String]) -> ExitCode {
    // A benchmark killed before it could stop its daemon must not leave
    // the daemon running.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
    });
    let opts = match sf_cli::driver::parse_serve_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    match sf_cli::driver::serve_run(&opts) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon process; dropping it stops the daemon and waits
/// for it.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(workers: usize) -> Result<Daemon, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Relative to the checkout root: socket paths are length-capped.
        let dir = PathBuf::from("perfbench/out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join(format!("d{}-{n}.sock", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg(&socket)
            .args(["--workers", &workers.to_string(), "--exec-threads", "1"])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon { child, socket })
    }

    fn client(&self, seed: u64) -> Result<ServeClient, String> {
        ServeClient::connect_with_retry(&self.socket, Duration::from_secs(20))
            .and_then(|c| c.with_io_timeout(Duration::from_secs(60)))
            .map(|c| {
                c.with_retry(RetryPolicy {
                    attempts: 5,
                    base_backoff_ms: 2,
                    seed,
                })
            })
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))
    }

    fn peak_rss_mib(&self) -> f64 {
        stats::peak_rss_mib(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = ServeClient::connect(&self.socket) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One request form: graph text, policy and pinned binding seed.
#[derive(Clone)]
struct Form {
    graph: Graph,
    text: String,
    policy: FusionPolicy,
    seed: u64,
}

impl Form {
    fn new(graph: Graph, policy: FusionPolicy, seed: u64) -> Form {
        Form {
            text: print_graph(&graph),
            graph,
            policy,
            seed,
        }
    }

    fn request(&self, id: u64) -> CompileRequest {
        CompileRequest {
            id,
            graph: self.text.clone(),
            policy: self.policy,
            seed: self.seed,
            ..CompileRequest::default()
        }
    }
}

/// The hot set: loadgen's six small graphs × three policies, plus two
/// medium graphs under SpaceFusion.
fn hot_graphs() -> Vec<(Graph, FusionPolicy)> {
    let small = [
        subgraphs::softmax(16, 64),
        subgraphs::layernorm(8, 128),
        subgraphs::rmsnorm(8, 96),
        subgraphs::mlp_stack(2, 32, 24),
        subgraphs::softmax(32, 48),
        subgraphs::deep_reduce(16, 64),
    ];
    let mut out = Vec::new();
    for policy in [
        FusionPolicy::SpaceFusion,
        FusionPolicy::Unfused,
        FusionPolicy::MiOnly,
    ] {
        for g in &small {
            out.push((g.clone(), policy));
        }
    }
    out.push((subgraphs::softmax(256, 128), FusionPolicy::SpaceFusion));
    out.push((subgraphs::mha(1, 4, 64, 32), FusionPolicy::SpaceFusion));
    out
}

/// One planned open-loop request.
#[derive(Clone, Copy)]
struct Planned {
    due_s: f64,
    form: usize,
}

/// The seeded inputs of a run: form seeds, the cold-shape draw, and the
/// open-loop schedules.
struct Plan {
    rng: XorShiftRng,
    forms: Vec<Form>,
    hot: usize,
    seen: HashSet<String>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x5e_4e11);
        let forms: Vec<Form> = hot_graphs()
            .into_iter()
            .map(|(g, p)| Form::new(g, p, rng.next_u64() % 1_000_000))
            .collect();
        let seen = forms.iter().map(|f| f.text.clone()).collect();
        Plan {
            rng,
            hot: forms.len(),
            forms,
            seen,
        }
    }

    /// A shape not drawn before in this run.
    ///
    /// The three kinds take turns and the extents stay in a narrow band,
    /// so a seed changes which shapes are cold, not how much compiling
    /// they cost.
    fn cold_form(&mut self) -> usize {
        let kind = (self.forms.len() - self.hot) % 3;
        loop {
            let rows = 8 + self.rng.below(32) as usize;
            let cols = 32 + self.rng.below(128) as usize;
            let g = match kind {
                0 => subgraphs::softmax(rows, cols),
                1 => subgraphs::layernorm(rows, cols),
                _ => subgraphs::rmsnorm(rows, cols),
            };
            let f = Form::new(
                g,
                FusionPolicy::SpaceFusion,
                self.rng.next_u64() % 1_000_000,
            );
            if self.seen.insert(f.text.clone()) {
                self.forms.push(f);
                return self.forms.len() - 1;
            }
        }
    }

    /// The open-loop schedule for `seconds`: Poisson due times, each a
    /// hot form or, with probability `COLD_SHARE`, a fresh cold one.
    fn open_loop(&mut self, seconds: f64) -> Vec<Planned> {
        let due = stats::poisson_schedule(OPEN_LOOP_RPS, seconds, &mut self.rng);
        due.into_iter()
            .map(|due_s| {
                let form = if (self.rng.next_f32() as f64) < COLD_SHARE {
                    self.cold_form()
                } else {
                    self.rng.below(self.hot as u64) as usize
                };
                Planned { due_s, form }
            })
            .collect()
    }

    fn digest(&self, planned: &[Planned]) -> u64 {
        let mut d = Digest::default();
        for p in planned {
            d.add(p.due_s.to_bits());
            d.add_str(&self.forms[p.form].text);
            d.add(self.forms[p.form].seed);
        }
        d.0
    }
}

/// One completed request as the client saw it.
struct Done {
    form: usize,
    due: Instant,
    sent: Instant,
    end: Instant,
    id: u64,
    resp: Result<Box<OkResponse>, String>,
}

/// Sends one request, returning its response or why it failed.
fn send(client: &mut ServeClient, req: CompileRequest) -> Result<Box<OkResponse>, String> {
    match client.compile_with_retry(req) {
        Ok(Response::Ok(ok)) => Ok(ok),
        Ok(Response::Retry { index, .. }) => Err(format!("shed (admission index {index})")),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// Set-up: a fresh daemon, `nproc` connections, every hot form warmed.
struct Live {
    daemon: Daemon,
    clients: Vec<ServeClient>,
}

fn setup(cfg: &Cfg, plan: &Plan) -> Result<Live, String> {
    let daemon = Daemon::spawn(cfg.nproc)?;
    let mut clients = (0..cfg.nproc)
        .map(|c| daemon.client(cfg.seed.wrapping_mul(31).wrapping_add(c as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, f) in plan.forms[..plan.hot].iter().enumerate() {
        send(&mut clients[i % cfg.nproc], f.request(i as u64))
            .map_err(|e| format!("warm {}: {e}", f.graph.name()))?;
    }
    Ok(Live { daemon, clients })
}

fn digests(ok: &OkResponse) -> Vec<u64> {
    ok.outputs.iter().map(|o| o.checksum).collect()
}

/// One `want_data` response per hot form, within the fuzz oracle's
/// derived tolerance of the reference interpreter; returns the hot
/// forms' checksums.
fn check_reference(live: &mut Live, plan: &Plan, out: &mut Outcome) -> Vec<Vec<u64>> {
    let mut expected = Vec::new();
    for (i, f) in plan.forms[..plan.hot].iter().enumerate() {
        let mut req = f.request(i as u64);
        req.want_data = true;
        let name = f.graph.name().to_string();
        let ok = match send(&mut live.clients[0], req) {
            Ok(ok) => ok,
            Err(e) => {
                out.check(false, || {
                    format!("serve-mix {name}: want_data request failed: {e}")
                });
                expected.push(Vec::new());
                continue;
            }
        };
        let tol = sf_fuzz::oracle::derive_tolerance(&f.graph);
        match f.graph.execute(&f.graph.random_bindings(f.seed)) {
            Ok(want) => {
                for (w, o) in want.iter().zip(&ok.outputs) {
                    let got = o
                        .data
                        .clone()
                        .and_then(|d| Tensor::from_data(w.shape().clone(), w.dtype(), d).ok());
                    let r = got.map(|g| compare::compare_tensors(&g, w, tol));
                    out.check(matches!(r, Some(Ok(()))), || {
                        format!(
                            "serve-mix {name}/{}: differs from the reference: {r:?}",
                            f.policy.name()
                        )
                    });
                }
            }
            Err(e) => out.check(false, || format!("serve-mix {name}: reference failed: {e}")),
        }
        expected.push(digests(&ok));
    }
    expected
}

/// Waits for `due`: sleeps until `SPIN` before it, then yields in a
/// loop. A generator that sleeps right up to the due time measures how
/// fast the host wakes an idle vCPU, not the daemon; one that yields
/// through the whole gap keeps both vCPUs busy, and when the host takes
/// CPU time away, it starves the daemon and the open loop backs up.
/// Yielding hands the core to any runnable daemon thread.
fn wait_until(due: Instant) {
    /// Time before each due time spent yielding rather than asleep.
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Phase 1: the open loop. Connection `c` sends the planned requests
/// with index `≡ c (mod nproc)`, each when due or as soon as the
/// connection is free. Returns the completions and the host probes
/// taken meanwhile.
fn open_loop(live: &mut Live, planned: &[Planned], plan: &Plan) -> (Vec<Done>, Vec<Probe>) {
    let n = live.clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let mut results: Vec<Vec<Done>> = Vec::new();
    let ((), probes) = with_probes(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut done = Vec::new();
                        for (i, p) in planned.iter().enumerate().skip(c).step_by(n) {
                            let due = start + Duration::from_secs_f64(p.due_s);
                            wait_until(due);
                            let sent = Instant::now();
                            let resp = send(client, plan.forms[p.form].request(i as u64));
                            done.push(Done {
                                form: p.form,
                                due,
                                sent,
                                end: Instant::now(),
                                id: i as u64,
                                resp,
                            });
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap_or_default());
            }
        })
    });
    let mut all: Vec<Done> = results.into_iter().flatten().collect();
    all.sort_by_key(|d| d.id);
    (all, probes)
}

/// Phase 2: `nproc` connections send hot forms back to back for
/// `seconds`. Returns how many requests completed in time, the seconds
/// that took at reference host speed less the share the hypervisor
/// stole (the phase keeps both vCPUs busy, so throughput falls with
/// it), and the completions.
fn saturate(live: &mut Live, plan: &Plan, seconds: f64, seed: u64) -> (u64, f64, Vec<Done>) {
    let start = Instant::now();
    let end = start + budget(seconds);
    let hot = plan.hot as u64;
    let mut results: Vec<Vec<Done>> = Vec::new();
    let ((), probes) = with_probes(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut rng = XorShiftRng::seed_from_u64(seed ^ (0x5a7 + c as u64));
                        let mut done = Vec::new();
                        let mut i = 0u64;
                        while Instant::now() < end {
                            let form = rng.below(hot) as usize;
                            let sent = Instant::now();
                            let resp = send(client, plan.forms[form].request(i));
                            done.push(Done {
                                form,
                                due: sent,
                                sent,
                                end: Instant::now(),
                                id: i,
                                resp,
                            });
                            i += 1;
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap_or_default());
            }
        })
    });
    let all: Vec<Done> = results.into_iter().flatten().collect();
    let completed = all
        .iter()
        .filter(|d| d.resp.is_ok() && d.end <= end)
        .count();
    let mut host = HostSpeed::new(start, common::SERVE_SLOPE);
    host.extend(&probes);
    let ref_s = seconds * host.factor() * (1.0 - host.stolen_share());
    (completed as u64, ref_s, all)
}

/// Checks every response against its form's checksums (recording the
/// first seen for cold forms) and counts failures.
fn tally(done: &[Done], plan: &Plan, expected: &mut HashMap<usize, Vec<u64>>, out: &mut Outcome) {
    for d in done {
        out.attempted += 1;
        match &d.resp {
            Ok(ok) => {
                let sums = digests(ok);
                let want = expected.entry(d.form).or_insert_with(|| sums.clone());
                out.check(*want == sums, || {
                    format!(
                        "serve-mix {}: checksums differ between responses",
                        plan.forms[d.form].graph.name()
                    )
                });
            }
            Err(e) => {
                out.failed += 1;
                if out.failed <= 5 {
                    out.line(format!("serve-mix request {} failed: {e}", d.id));
                }
            }
        }
    }
}

/// Open-loop latencies from due time, split by the daemon's cache
/// outcome, how late the generator sent, and the host probes.
struct Latencies {
    hit: Timeline,
    miss: Timeline,
    late: Samples,
    host: HostSpeed,
}

impl Latencies {
    fn new(start: Instant) -> Latencies {
        Latencies {
            hit: Timeline::new(start),
            miss: Timeline::new(start),
            late: Samples::default(),
            host: HostSpeed::new(start, common::SERVE_SLOPE),
        }
    }

    fn add(&mut self, (done, probes): &(Vec<Done>, Vec<Probe>)) {
        self.host.extend(probes);
        for d in done {
            self.late.0.push(us_between(d.due, d.sent));
            if let Ok(ok) = &d.resp {
                let us = us_between(d.due, d.end);
                match ok.cache {
                    CacheOutcome::Hit => self.hit.push(d.due, us),
                    CacheOutcome::Miss => self.miss.push(d.due, us),
                }
            }
        }
    }

    /// `serve_p50_us`, `serve_p99_us`, `serve_miss_p50_us` at reference
    /// host speed.
    fn metrics(&self) -> (f64, f64, f64) {
        let hit = self.hit.scaled(&self.host);
        (hit.p50(), hit.tail().0, self.miss.scaled(&self.host).p50())
    }

    fn summary(&self) -> String {
        let miss = self.metrics().2;
        format!(
            "wall: hits {}; misses {}; generator late {}; at reference host speed: hits {}, miss p50 {miss:.1} µs; {}",
            self.hit.all().summary(),
            self.miss.all().summary(),
            self.late.summary(),
            self.hit.scaled(&self.host).summary(),
            self.host.summary(),
        )
    }
}

/// serve-mix between its measured slices.
pub struct Mix {
    cfg: Cfg,
    primary: bool,
    plan: Plan,
    live: Live,
    expected: HashMap<usize, Vec<u64>>,
    lat: Latencies,
    /// Saturation requests completed in time, and seconds saturated at
    /// reference host speed.
    saturated: (u64, f64),
    inputs: Digest,
    requests: (usize, usize, usize),
    slices: u64,
    seconds: f64,
    out: Outcome,
}

impl Mix {
    /// Set-up (timed when `primary`) and the reference check.
    pub fn start(cfg: &Cfg, primary: bool) -> Result<Mix, String> {
        let mut out = Outcome::default();
        let plan = Plan::new(cfg.seed);
        let (live, setup_s) = timed_setup(primary, || setup(cfg, &plan));
        let mut live = live.map_err(|e| format!("serve-mix set-up: {e}"))?;
        if primary {
            out.metric("setup_s", setup_s, "s");
        }
        let hot_sums = check_reference(&mut live, &plan, &mut out);
        let mut out_digest = Digest::default();
        for s in hot_sums.iter().flatten() {
            out_digest.add(*s);
        }
        out.line(format!(
            "serve-mix: daemon workers {n}, {n} connections, {} hot forms; hot output digest {:016x}",
            plan.hot,
            out_digest.0,
            n = cfg.nproc,
        ));
        Ok(Mix {
            cfg: *cfg,
            primary,
            expected: hot_sums.into_iter().enumerate().collect(),
            lat: Latencies::new(Instant::now()),
            plan,
            live,
            saturated: (0, 0.0),
            inputs: Digest::default(),
            requests: (0, 0, 0),
            slices: 0,
            seconds: 0.0,
            out,
        })
    }
}

impl Workload for Mix {
    fn measure(&mut self, seconds: f64) {
        let open_s = seconds * OPEN_LOOP_SHARE;
        let planned = self.plan.open_loop(open_s);
        self.inputs.add(self.plan.digest(&planned));
        self.requests.0 += planned.len();
        self.requests.1 += planned.iter().filter(|p| p.form >= self.plan.hot).count();
        let run = open_loop(&mut self.live, &planned, &self.plan);
        tally(&run.0, &self.plan, &mut self.expected, &mut self.out);
        self.lat.add(&run);
        let seed = self.cfg.seed ^ (self.slices << 40);
        let (completed, ref_s, sat) = saturate(&mut self.live, &self.plan, seconds - open_s, seed);
        tally(&sat, &self.plan, &mut self.expected, &mut self.out);
        self.saturated.0 += completed;
        self.saturated.1 += ref_s;
        self.requests.2 += sat.len();
        self.slices += 1;
        self.seconds += seconds;
    }

    fn finish(mut self: Box<Self>, trace: bool) -> Outcome {
        let mut out = std::mem::take(&mut self.out);
        let (p50, p99, miss) = self.lat.metrics();
        let rps = self.saturated.0 as f64 / self.saturated.1.max(1e-9);
        out.line(format!(
            "serve-mix open loop{}: {OPEN_LOOP_RPS} req/s Poisson, {} requests ({} cold) over {} slice(s); input digest {:016x}; {}",
            if trace { " (untraced)" } else { "" },
            self.requests.0,
            self.requests.1,
            self.slices,
            self.inputs.0,
            self.lat.summary()
        ));
        out.line(format!(
            "serve-mix saturation: {} requests over {} connections, {rps:.0} req/s",
            self.requests.2, self.cfg.nproc
        ));
        out.metric("serve_p50_us", p50, "us");
        out.metric("serve_p99_us", p99, "us");
        out.metric("serve_miss_p50_us", miss, "us");
        out.metric("serve_rps", rps, "1/s");
        let Mix {
            cfg,
            primary,
            mut plan,
            mut live,
            mut expected,
            seconds,
            ..
        } = *self;
        if trace {
            let open_s = seconds * OPEN_LOOP_SHARE;
            traced(
                &cfg,
                &mut live,
                &mut plan,
                open_s,
                (p50, p99),
                &mut expected,
                &mut out,
            );
        }
        replay_cold_forms(&mut live, &plan, &expected, &mut out);
        let models: Vec<f64> = plan
            .forms
            .iter()
            .filter_map(|f| {
                CompileSession::new(sf_gpu_sim::Arch::Ampere, common::options(f.policy))
                    .compile(&f.graph)
                    .ok()
                    .map(|p| common::model_us(&p))
            })
            .collect();
        out.metric("model_us", stats::geomean(&models).unwrap_or(0.0), "sim_us");
        if primary {
            out.metric("peak_rss_mib", live.daemon.peak_rss_mib(), "MiB");
        }
        out
    }
}

/// Every cold form once more: now a cache hit, it must carry the same
/// checksums as its first (compiling) response.
fn replay_cold_forms(
    live: &mut Live,
    plan: &Plan,
    expected: &HashMap<usize, Vec<u64>>,
    out: &mut Outcome,
) {
    for (&form, sums) in expected.iter().filter(|(f, _)| **f >= plan.hot) {
        let f = &plan.forms[form];
        match send(&mut live.clients[0], f.request(form as u64)) {
            Ok(ok) => out.check(
                digests(&ok) == *sums && ok.cache == CacheOutcome::Hit,
                || {
                    format!(
                        "serve-mix {}: cold form changed on its second request",
                        f.graph.name()
                    )
                },
            ),
            Err(e) => out.check(false, || format!("serve-mix cold replay failed: {e}")),
        }
    }
}

/// Stage times of one request replayed in the benchmark process.
#[derive(Default, Clone, Copy)]
struct Stages {
    parse: f64,
    bucket: f64,
    bindings: f64,
    checksum: f64,
    encode: f64,
    decode: f64,
    execute: f64,
    compile: f64,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.parse
            + self.bucket
            + self.bindings
            + self.checksum
            + self.encode
            + self.decode
            + self.execute
            + self.compile
    }
}

/// The in-process replay of the daemon's request path: program cache,
/// schedule cache and the per-layer counters it feeds.
struct Replay {
    programs: HashMap<BucketKey, CompiledProgram>,
    cache: std::sync::Arc<ScheduleCache>,
    passes: PassTotals,
    exec: LayerCounts,
}

/// The traced open loop, then each of its requests replayed stage by
/// stage through the public functions the daemon calls.
fn traced(
    cfg: &Cfg,
    live: &mut Live,
    plan: &mut Plan,
    open_s: f64,
    untraced: (f64, f64),
    expected: &mut HashMap<usize, Vec<u64>>,
    out: &mut Outcome,
) {
    let planned = plan.open_loop(open_s);
    let mut lat = Latencies::new(Instant::now());
    let run = open_loop(live, &planned, plan);
    tally(&run.0, plan, expected, out);
    lat.add(&run);
    let done = run.0;
    let (p50, p99, _) = lat.metrics();
    let mut tracer = Tracer::new(true);
    out.line(format!(
        "serve-mix traced open loop: {}; tracing overhead: serve_p50_us {:+.1} µs, serve_p99_us {:+.1} µs",
        lat.summary(),
        p50 - untraced.0,
        p99 - untraced.1
    ));

    let mut replay = Replay {
        programs: HashMap::new(),
        cache: std::sync::Arc::new(ScheduleCache::new()),
        passes: PassTotals::default(),
        exec: LayerCounts::default(),
    };
    let opts = ExecOptions::with_threads(cfg.nproc);
    // Warm the replay's program cache with the hot set, as set-up warmed
    // the daemon's.
    for f in &plan.forms[..plan.hot] {
        let mut off = Tracer::new(false);
        let _ = replay_one(&mut replay, f, &f.request(0), None, &opts, &mut off, None);
    }
    let exec_probe = exec::ExecProbe::start(&spacefusion::codegen::ExecEngine::shared());
    let (mut total, mut unattributed_hit) = (Stages::default(), Samples::default());
    let (mut latency, mut unattributed, mut n) = (0.0, 0.0, 0u64);
    for d in &done {
        let Ok(ok) = &d.resp else { continue };
        let f = &plan.forms[d.form];
        let root = tracer.record("serve.request", d.due, d.end, None, d.id);
        match replay_one(
            &mut replay,
            f,
            &f.request(d.id),
            Some(ok),
            &opts,
            &mut tracer,
            root,
        ) {
            Ok(st) => {
                let lat = us_between(d.due, d.end);
                let rest = lat - st.sum();
                latency += lat;
                unattributed += rest;
                n += 1;
                if ok.cache == CacheOutcome::Hit {
                    unattributed_hit.0.push(rest);
                }
                for (a, b) in [
                    (&mut total.parse, st.parse),
                    (&mut total.bucket, st.bucket),
                    (&mut total.bindings, st.bindings),
                    (&mut total.checksum, st.checksum),
                    (&mut total.encode, st.encode),
                    (&mut total.decode, st.decode),
                    (&mut total.execute, st.execute),
                    (&mut total.compile, st.compile),
                ] {
                    *a += b;
                }
            }
            Err(e) => out.check(false, || {
                format!("serve-mix replay of request {}: {e}", d.id)
            }),
        }
    }
    exec_probe.finish(&mut replay.exec);
    let m = n.max(1) as f64;
    for (name, v) in [
        ("ir.parse_us", total.parse),
        ("serve.bucket_key_us", total.bucket),
        ("ir.bindings_us", total.bindings),
        ("serve.checksum_us", total.checksum),
        ("serve.encode_us", total.encode),
        ("serve.decode_us", total.decode),
        ("serve.execute_us", total.execute),
        ("serve.compile_us", total.compile),
        ("serve.unattributed_us", unattributed),
        ("serve.latency_us", latency),
    ] {
        out.metric(name, v / m, "us");
    }
    out.line(format!(
        "serve-mix accounting: per request stages {:.1} µs (parse {:.1}, bucket key {:.1}, bindings {:.1}, execute {:.1}, compile {:.1}, checksum {:.1}, encode {:.1}, decode {:.1}) + unattributed {:.1} µs = latency {:.1} µs; covered {:.1}%; unattributed on hits {}",
        total.sum() / m,
        total.parse / m,
        total.bucket / m,
        total.bindings / m,
        total.execute / m,
        total.compile / m,
        total.checksum / m,
        total.encode / m,
        total.decode / m,
        unattributed / m,
        latency / m,
        100.0 * total.sum() / latency.max(1e-9),
        unattributed_hit.summary()
    ));
    out.metric("serve.gen_late_us", lat.late.tail().0, "us");
    exec::codegen_metrics(&tracer, &replay.exec, out);
    pass_metrics(&tracer, &replay.passes, out);
    exec::gpusim_metrics(replay.programs.values(), out);

    let stats = live.clients[0].stats();
    match stats {
        Ok(s) => {
            let probes = (s.program_hits + s.program_compiles).max(1);
            out.metric(
                "serve.hit_ratio",
                s.program_hits as f64 / probes as f64,
                "ratio",
            );
            out.metric("serve.sheds", s.sheds as f64, "count");
            out.metric("serve.sessions_reaped", s.sessions_reaped as f64, "count");
        }
        Err(e) => out.check(false, || format!("serve-mix stats: {e}")),
    }
    let retries: u64 = live.clients.iter().map(ServeClient::retries).sum();
    out.metric("serve.retries", retries as f64, "count");
    crate::write_trace(&tracer, "serve-mix", cfg.seed, out);
}

/// Replays one request through the stages the daemon runs, recording a
/// span per stage; when `live` is given, the replayed checksums must
/// equal the daemon's.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    r: &mut Replay,
    form: &Form,
    req: &CompileRequest,
    live: Option<&OkResponse>,
    opts: &ExecOptions,
    tracer: &mut Tracer,
    root: Option<usize>,
) -> Result<Stages, String> {
    let id = req.id;
    let mut st = Stages::default();
    let span = |tracer: &mut Tracer, name: &'static str, t: Instant| -> f64 {
        let end = Instant::now();
        tracer.record(name, t, end, root, id);
        us_between(t, end)
    };

    let t = Instant::now();
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &Request::Compile(Box::new(req.clone())).to_json(),
    )
    .map_err(|e| e.to_string())?;
    st.encode += span(tracer, "serve.encode", t);
    let t = Instant::now();
    let doc = read_frame(&mut frame.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    let Ok(Request::Compile(req)) = Request::from_json(&doc) else {
        return Err("request did not round-trip".into());
    };
    st.decode += span(tracer, "serve.decode", t);

    let t = Instant::now();
    let graph = parse_graph(&req.graph).map_err(|e| e.to_string())?;
    st.parse += span(tracer, "ir.parse", t);
    let arch = req.arch.config();
    let t = Instant::now();
    let key = BucketKey::new(&graph, &arch, req.policy);
    st.bucket += span(tracer, "serve.bucket_key", t);
    if !r.programs.contains_key(&key) {
        let sink = std::sync::Arc::new(CollectingSink::new());
        let session = CompileSession::with_config(arch, common::options(req.policy))
            .with_cache(std::sync::Arc::clone(&r.cache))
            .with_sink(sink.clone());
        let t = Instant::now();
        let p = session.compile(&graph).map_err(|e| e.to_string())?;
        let end = Instant::now();
        let parent = tracer.record("serve.compile", t, end, root, id);
        st.compile += us_between(t, end);
        record_passes(&sink, end, parent, id, tracer, &mut r.passes);
        r.programs.insert(key.clone(), p);
    }
    let program = &r.programs[&key];

    let t = Instant::now();
    let bindings = graph.random_bindings(req.seed);
    st.bindings += span(tracer, "ir.bindings", t);
    let t = Instant::now();
    let tensors = if tracer.enabled() {
        exec::add_cost(program, &mut r.exec);
        exec::execute_traced(program, &bindings, opts, tracer, id, root)?
    } else {
        program
            .execute_with(&bindings, opts)
            .map_err(|e| e.to_string())?
    };
    st.execute += us_between(t, Instant::now());
    let t = Instant::now();
    let outputs: Vec<OutputDigest> = program
        .outputs
        .iter()
        .zip(&tensors)
        .map(|((name, _), t)| OutputDigest {
            name: name.clone(),
            shape: t.shape().dims().to_vec(),
            checksum: tensor_checksum(t.shape().dims(), t.data()),
            data: None,
        })
        .collect();
    st.checksum += span(tracer, "serve.checksum", t);
    if let Some(live) = live {
        let same = outputs.iter().map(|o| o.checksum).eq(digests(live));
        if !same {
            return Err(format!(
                "{}: replayed checksums differ from the daemon's",
                form.graph.name()
            ));
        }
    }

    let resp = Response::Ok(Box::new(OkResponse {
        id,
        index: 0,
        cache: CacheOutcome::Hit,
        kernels: program.kernels.len(),
        degradations: program.stats.degradations.len(),
        outputs,
    }));
    let t = Instant::now();
    let mut frame = Vec::new();
    write_frame(&mut frame, &resp.to_json()).map_err(|e| e.to_string())?;
    st.encode += span(tracer, "serve.encode", t);
    let t = Instant::now();
    let doc = read_frame(&mut frame.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    Response::from_json(&doc)?;
    st.decode += span(tracer, "serve.decode", t);
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_reproducible_per_seed() {
        let sched = |seed| {
            let mut p = Plan::new(seed);
            let planned = p.open_loop(2.0);
            (p.digest(&planned), planned.len())
        };
        assert_eq!(sched(3), sched(3));
        assert_ne!(sched(3).0, sched(4).0);
    }

    #[test]
    fn cold_forms_are_never_repeated_and_never_hot() {
        let mut p = Plan::new(1);
        let planned = p.open_loop(5.0);
        let cold: Vec<usize> = planned
            .iter()
            .map(|q| q.form)
            .filter(|f| *f >= p.hot)
            .collect();
        assert!(!cold.is_empty());
        let hot: HashSet<&str> = p.forms[..p.hot].iter().map(|f| f.text.as_str()).collect();
        let cold_texts: HashSet<&str> = cold.iter().map(|&f| p.forms[f].text.as_str()).collect();
        assert_eq!(cold_texts.len(), cold.len());
        assert!(cold_texts.is_disjoint(&hot));
        let share = cold.len() as f64 / planned.len() as f64;
        assert!((share - COLD_SHARE).abs() < 0.015, "{share}");
    }
}
