//! What every workload reports, and the helpers they share.

use crate::stats::{self, Digest};
use spacefusion::codegen::estimate_cost;
use spacefusion::pipeline::{CompileOptions, CompiledProgram, FusionPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How many times a primary workload repeats its set-up; `setup_s` is
/// the median.
pub const SETUP_REPEATS: usize = 5;

/// Run-wide settings.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Workload seed.
    pub seed: u64,
    /// Host parallelism; bounds every thread and connection count.
    pub nproc: usize,
}

/// A workload measured in slices: the run interleaves the slices of its
/// own path with those of the anchors, so a slow stretch of the host
/// falls on part of every path instead of all of one.
pub trait Workload {
    /// Measures for `seconds` more.
    fn measure(&mut self, seconds: f64);

    /// The metrics over every slice; when `trace`, also a traced phase
    /// as long as the untraced slices together and its layer metrics.
    fn finish(self: Box<Self>, trace: bool) -> Outcome;
}

/// A workload phase's result: metrics, operation counts, correctness
/// failures and report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness failures; any one fails the run.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Appends a report line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Folds another phase's counts, problems and lines in; its
    /// metrics are taken only where this outcome has none.
    pub fn absorb(&mut self, other: Outcome) {
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.lines.extend(other.lines);
    }
}

/// A sample of latencies, µs.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Median, µs (0 when empty).
    pub fn p50(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }

    /// The tail percentile the sample supports (p99 once ten samples
    /// lie beyond it) and the percentile used.
    pub fn tail(&self) -> (f64, f64) {
        let p = stats::supported_tail(self.0.len());
        (
            stats::percentile(&stats::sorted(&self.0), p).unwrap_or(0.0),
            p,
        )
    }

    /// Mean, µs (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// `p50 / tail (pNN) / n` summary for reports.
    pub fn summary(&self) -> String {
        let (tail, p) = self.tail();
        format!(
            "p50 {:.1} µs, p{} {:.1} µs, n {}",
            self.p50(),
            fmt_pct(p),
            tail,
            self.0.len()
        )
    }
}

/// Samples stamped with the one-second window of the phase they fell
/// in.
///
/// Host times are taken at reference host speed: each sample is scaled
/// by its window's [`HostSpeed`] factor, and every scaled sample counts
/// except those of windows the hypervisor stole too much of. On a
/// shared 2-vCPU host, other tenants slow the program by up to 2x, for
/// seconds to minutes at a time, and how much of a run they hit varies
/// from run to run; the host probe slows with them, while a change to
/// the program moves the samples and not the probe.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: Instant,
    points: Vec<(f64, f64)>,
}

/// Window width, seconds.
pub const WINDOW_S: f64 = 1.0;

impl Timeline {
    /// An empty timeline from `start`.
    pub fn new(start: Instant) -> Timeline {
        Timeline {
            start,
            points: Vec::new(),
        }
    }

    /// Records `value` at instant `at`.
    pub fn push(&mut self, at: Instant, value: f64) {
        let offset = at.saturating_duration_since(self.start).as_secs_f64();
        self.points.push((offset, value));
    }

    /// Every sample, in one set.
    pub fn all(&self) -> Samples {
        Samples(self.points.iter().map(|p| p.1).collect())
    }

    /// Every sample at reference host speed: scaled by the factor of
    /// the window it fell in, leaving out the windows `host` does not
    /// keep. `host` must share this timeline's start.
    pub fn scaled(&self, host: &HostSpeed) -> Samples {
        let factors = host.factors();
        let fallback = host.factor();
        let kept = host.kept();
        Samples(
            self.points
                .iter()
                .filter_map(|&(t, v)| {
                    let w = (t / WINDOW_S) as usize;
                    let f = factors.get(w).copied().flatten();
                    kept.get(w)
                        .copied()
                        .unwrap_or(true)
                        .then(|| v * f.unwrap_or(fallback))
                })
                .collect(),
        )
    }
}

/// Probe time, µs of thread CPU time, that host times are scaled to:
/// about what [`probe_us`] takes on a 2-vCPU Xeon VM at full speed
/// (55–65 µs), so scaled times read close to wall times on such a host.
pub const PROBE_REF_US: f64 = 60.0;

/// How exec-zoo's times follow the probe's: the slope of log round time
/// against log probe time over per-second windows, 0.77–0.81 on a shared
/// 2-vCPU VM. At slope 1 the slowest windows were over-corrected by
/// about 10%.
pub const EXEC_SLOPE: f64 = 0.8;

/// How compile times follow the probe's: slope 0.83 for cold compiles
/// and 0.33 for warm recompiles over 2-s windows; 0.5 narrowed the
/// spread of both.
pub const COMPILE_SLOPE: f64 = 0.5;

/// How serve latencies and throughput follow the probe's: slope 0.51
/// (correlation 0.64) for the open loop's per-second hit latency, whose
/// spread over windows it narrowed from 12% to 10%.
pub const SERVE_SLOPE: f64 = 0.5;

/// Share of a window's used vCPU time the hypervisor may steal before
/// the window is left out. The probe runs in CPU time and cannot see
/// stolen time, while the program's wall times stretch with it: in runs
/// with 7–12 s of about 70 vCPU-s stolen (against 0.2–2 s in most), the
/// open loop backed up and serve latencies read 2–4x higher. Usual
/// windows lose 0–4%.
pub const STEAL_LIMIT: f64 = 0.05;

/// The host probe: a fixed 64×64×64 f32 matrix product, timed in the
/// calling thread's CPU time, µs.
///
/// It is the benchmark's own code, so a change to the program cannot
/// move it, while a host that slows the program's numeric loops — other
/// tenants on the physical core, a lower clock — slows it too. On a
/// shared 2-vCPU VM, per-second medians of the zoo's round time and of
/// the probe moved together (correlation 0.92) over a 2x range; scaling
/// by the probe halved the zoo's spread. Compiling and serving follow it
/// less closely, hence a slope per path. CPU time leaves out time the
/// probe waits for a vCPU. Both matrices
/// live in one allocation at a fixed distance, so where the program left
/// the allocator cannot change how the probe's loads and stores alias.
#[inline(never)]
pub fn probe_us() -> f64 {
    const N: usize = 64;
    // `a`, a 64-float gap, then `c`.
    let mut buf = std::hint::black_box(vec![0.0f32; 2 * N * N + 64]);
    for (i, v) in buf[..N * N].iter_mut().enumerate() {
        *v = (i % 7) as f32;
    }
    let (a, c) = buf.split_at_mut(N * N + 64);
    let (a, c) = (std::hint::black_box(a), std::hint::black_box(c));
    let t = thread_cpu_us();
    for i in 0..N {
        for k in 0..N {
            let av = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += av * a[k * N + j];
            }
        }
    }
    std::hint::black_box(&c);
    thread_cpu_us() - t
}

/// CPU time the calling thread has used, µs.
fn thread_cpu_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the
    // kernel supports for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

/// Host probes stamped with their one-second window: how fast the host
/// ran while a path was measured.
///
/// A window whose median probe ran `r` times slower than
/// `PROBE_REF_US` scales the path's times by `r^-slope`, the path's
/// measured sensitivity to the probe.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    start: Instant,
    slope: f64,
    /// Offset, probe µs, and the machine's busy and stolen ticks then.
    points: Vec<(f64, f64, Ticks)>,
}

/// The machine's busy and stolen `/proc/stat` ticks, when readable.
type Ticks = Option<(u64, u64)>;

/// One host probe: when it ran, how long it took (µs of thread CPU
/// time), and the machine's ticks right after it.
pub type Probe = (Instant, f64, Ticks);

/// Runs the probe on the calling thread.
pub fn take_probe() -> Probe {
    let us = probe_us();
    (Instant::now(), us, stats::cpu_ticks())
}

impl HostSpeed {
    /// No probes yet; windows count from `start`.
    pub fn new(start: Instant, slope: f64) -> HostSpeed {
        HostSpeed {
            start,
            slope,
            points: Vec::new(),
        }
    }

    /// Factor that brings a time measured while the probe took
    /// `probe_us` to reference host speed.
    fn speed_factor(&self, probe_us: f64) -> f64 {
        (PROBE_REF_US / probe_us).powf(self.slope)
    }

    /// Runs the probe on the calling thread and records it.
    pub fn probe(&mut self) {
        self.push(take_probe());
    }

    /// Records a probe.
    pub fn push(&mut self, (at, us, ticks): Probe) {
        let offset = at.saturating_duration_since(self.start).as_secs_f64();
        self.points.push((offset, us, ticks));
    }

    /// Median probe time of each window, µs (`None` where no probe ran).
    pub fn medians(&self) -> Vec<Option<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(t, v, _) in &self.points {
            let w = (t / WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(v);
        }
        windows.iter().map(|w| stats::median(w)).collect()
    }

    /// Each window's factor to reference host speed, from its median
    /// probe.
    pub fn factors(&self) -> Vec<Option<f64>> {
        self.medians()
            .into_iter()
            .map(|m| m.map(|m| self.speed_factor(m)))
            .collect()
    }

    /// The factor over every probe, for samples in a window without one
    /// (1 when nothing was probed).
    pub fn factor(&self) -> f64 {
        let all: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        stats::median(&all).map_or(1.0, |m| self.speed_factor(m))
    }

    /// Records each probe.
    pub fn extend(&mut self, probes: &[Probe]) {
        for p in probes {
            self.push(*p);
        }
    }

    /// Share of all the used vCPU time the hypervisor stole, from the
    /// same tick counts as [`HostSpeed::stolen`] (0 without any).
    pub fn stolen_share(&self) -> f64 {
        let (busy, steal) = self
            .tick_deltas()
            .fold((0, 0), |a, (_, b, s)| (a.0 + b, a.1 + s));
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }

    /// Busy and stolen ticks between consecutive probes less than a
    /// window apart, with the window of the later probe.
    fn tick_deltas(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.points.windows(2).filter_map(|pair| {
            let ((t0, _, Some(a)), (t1, _, Some(b))) = (pair[0], pair[1]) else {
                return None;
            };
            (t1 - t0 < WINDOW_S).then(|| {
                (
                    (t1 / WINDOW_S) as usize,
                    b.0.saturating_sub(a.0),
                    b.1.saturating_sub(a.1),
                )
            })
        })
    }

    /// Share of each window's used vCPU time the hypervisor stole, from
    /// the tick counts of consecutive probes less than a window apart
    /// (`None` where there are none).
    pub fn stolen(&self) -> Vec<Option<f64>> {
        let mut windows: Vec<(u64, u64)> = Vec::new();
        for (w, busy, steal) in self.tick_deltas() {
            if windows.len() <= w {
                windows.resize(w + 1, (0, 0));
            }
            windows[w].0 += busy;
            windows[w].1 += steal;
        }
        windows
            .into_iter()
            .map(|(busy, steal)| (busy + steal > 0).then(|| steal as f64 / (busy + steal) as f64))
            .collect()
    }

    /// Which windows count: those the hypervisor stole at most
    /// `STEAL_LIMIT` of, or, when that is fewer than a quarter of the
    /// windows with tick counts, the quarter it stole least of. Windows
    /// without tick counts count.
    pub fn kept(&self) -> Vec<bool> {
        let stolen = self.stolen();
        let mut ranked: Vec<(usize, f64)> = stolen
            .iter()
            .enumerate()
            .filter_map(|(w, s)| s.map(|s| (w, s)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        let quarter = ranked.len().div_ceil(4);
        let mut kept: Vec<bool> = stolen.iter().map(Option::is_none).collect();
        for (i, (w, s)) in ranked.into_iter().enumerate() {
            kept[w] = s <= STEAL_LIMIT || i < quarter;
        }
        kept
    }

    /// `probe p50 … µs, range … – … µs over n window(s)` for reports.
    pub fn summary(&self) -> String {
        let m: Vec<f64> = self.medians().into_iter().flatten().collect();
        let s = stats::sorted(&m);
        let kept = self.kept();
        format!(
            "host probe p50 {:.1} µs (reference {PROBE_REF_US:.0}), window medians {:.1}–{:.1} µs over {} window(s), {} probes; {} of {} window(s) kept (the rest had more than {:.0}% stolen)",
            stats::median(&m).unwrap_or(0.0),
            s.first().copied().unwrap_or(0.0),
            s.last().copied().unwrap_or(0.0),
            s.len(),
            self.points.len(),
            kept.iter().filter(|k| **k).count(),
            kept.len(),
            STEAL_LIMIT * 100.0
        )
    }
}

/// Renders a percentile rank as in `p99` or `p97.5`.
pub fn fmt_pct(p: f64) -> String {
    let s = format!("{:.1}", p * 100.0);
    s.trim_end_matches(".0").to_string()
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Microseconds between two instants.
pub fn us_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Runs `work` while a second thread probes the host every 10 ms, for
/// paths whose work runs in other threads or another process; returns
/// what `work` returns and the probes. The other vCPU's load does not
/// slow the probe: on a 2-vCPU VM it read the same beside a busy thread.
pub fn with_probes<T>(work: impl FnOnce() -> T) -> (T, Vec<Probe>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut probes = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                probes.push(take_probe());
                std::thread::sleep(Duration::from_millis(10));
            }
            probes
        });
        let value = work();
        stop.store(true, Ordering::Relaxed);
        let probes = sampler.join().expect("the probe thread does not panic");
        (value, probes)
    })
}

/// Runs `setup` `SETUP_REPEATS` times (`1` when `repeat` is false),
/// returning the last result and the median set-up time, seconds.
pub fn timed_setup<T>(repeat: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let reps = if repeat { SETUP_REPEATS } else { 1 };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous state first, so no two set-ups coexist.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.unwrap_or_else(|| unreachable!("at least one set-up"));
    (value, stats::median(&times).unwrap_or(0.0))
}

/// A phase's measured-time budget.
pub fn budget(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.05))
}

/// Compile options for a policy, matching what `sfc compile` and the
/// serve daemon build (TileGraph compiles without UTA).
pub fn options(policy: FusionPolicy) -> CompileOptions {
    let mut opts = CompileOptions {
        policy,
        ..CompileOptions::default()
    };
    if policy == FusionPolicy::TileGraph {
        opts.slicing.enable_uta = false;
    }
    opts
}

/// Simulated GPU time of a compiled program, µs: the analytic
/// per-kernel estimate the tuner ranks candidates by.
pub fn model_us(p: &CompiledProgram) -> f64 {
    p.estimate_us()
}

/// Largest split-K partition count over a program's kernels.
pub fn split_factor(p: &CompiledProgram) -> usize {
    p.kernels
        .iter()
        .filter_map(|k| k.schedule.temporal.as_ref())
        .map(|t| t.partitions())
        .max()
        .unwrap_or(1)
}

/// Digest of a compiled schedule: kernel names, grids, tile counts,
/// spatial blocks, split factors and the model time's bits.
pub fn schedule_digest(p: &CompiledProgram) -> u64 {
    let mut d = Digest::default();
    for k in &p.kernels {
        d.add_str(&k.name);
        d.add(k.schedule.grid());
        d.add(k.schedule.intra_blocks());
        for &(dim, block) in &k.schedule.spatial {
            d.add_str(&format!("{dim:?}"));
            d.add(block as u64);
        }
        d.add(k.schedule.temporal.as_ref().map_or(1, |t| t.partitions()) as u64);
        d.add(
            p.arch
                .kernel_time_us(&estimate_cost(k, p.instances as u64))
                .to_bits(),
        );
    }
    d.0
}

/// The commit the checkout was made from, when it carries git metadata.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no git metadata in checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_scales_each_window_by_its_probe() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Timeline::new(t0);
        let mut host = HostSpeed::new(t0, EXEC_SLOPE);
        // Window 0 at reference speed, window 1 twice as slow, window 2
        // unprobed; the program's samples slow with the host.
        let slow = 100.0 * 2f64.powf(EXEC_SLOPE);
        for i in 0..10 {
            t.push(at(i * 50), 100.0);
            t.push(at(1000 + i * 50), slow);
        }
        t.push(at(2500), 100.0);
        for (ms, us) in [
            (10, PROBE_REF_US),
            (20, PROBE_REF_US),
            (1010, 2.0 * PROBE_REF_US),
        ] {
            host.push((at(ms), us, None));
        }
        let s = t.scaled(&host);
        assert_eq!(s.0.len(), 21);
        assert!(s.0[..20].iter().all(|v| (v - 100.0).abs() < 1e-9), "{s:?}");
        // The unprobed window takes the factor over every probe.
        assert!((s.0[20] - 100.0).abs() < 1e-9);
        assert_eq!(
            host.medians(),
            [Some(PROBE_REF_US), Some(2.0 * PROBE_REF_US)]
        );
        assert_eq!(HostSpeed::new(t0, EXEC_SLOPE).factor(), 1.0);
        assert_eq!(t.all().0.len(), 21);
    }

    #[test]
    fn windows_the_hypervisor_stole_from_are_left_out() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Busy and stolen ticks grow by (100, 2) per window, except
        // (50, 50) in window 1.
        let mut ticks = (0u64, 0u64);
        let mut host = HostSpeed::new(t0, EXEC_SLOPE);
        let mut t = Timeline::new(t0);
        for w in 0..4u64 {
            for i in 0..4u64 {
                let d = if w == 1 { (12, 12) } else { (25, 0) };
                ticks = (
                    ticks.0 + d.0,
                    ticks.1 + d.1 + u64::from(i == 0 && w != 1) * 2,
                );
                host.push((at(w * 1000 + i * 250 + 100), PROBE_REF_US, Some(ticks)));
                t.push(at(w * 1000 + i * 250 + 150), 10.0 * (w + 1) as f64);
            }
        }
        let stolen = host.stolen();
        assert!(
            stolen[1].unwrap() > 0.4 && stolen[2].unwrap() < 0.05,
            "{stolen:?}"
        );
        assert_eq!(host.kept(), [true, false, true, true]);
        let share = host.stolen_share();
        assert!(share > 0.1 && share < 0.2, "{share}");
        assert!(t.scaled(&host).0.iter().all(|v| *v != 20.0));
        assert_eq!(t.scaled(&host).0.len(), 12);
        // When most windows are stolen from, the least stolen quarter
        // counts.
        let mut all = HostSpeed::new(t0, EXEC_SLOPE);
        let mut ticks = (0u64, 0u64);
        for (w, steal) in [30u64, 20, 40, 25, 35, 45, 50, 60].into_iter().enumerate() {
            let base = w as u64 * 1000;
            all.push((at(base + 100), PROBE_REF_US, Some(ticks)));
            ticks = (ticks.0 + 100, ticks.1 + steal);
            all.push((at(base + 900), PROBE_REF_US, Some(ticks)));
        }
        assert_eq!(
            all.kept(),
            [false, true, false, true, false, false, false, false]
        );
    }

    #[test]
    fn probe_measures_thread_cpu_time() {
        let p = probe_us();
        assert!(p > 0.0 && p < 1e6, "{p}");
        // A sleeping thread uses no CPU time.
        let t = thread_cpu_us();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_cpu_us() - t < 10_000.0);
    }

    #[test]
    fn samples_tail_reports_supported_percentile() {
        let s = Samples((1..=2000).map(f64::from).collect());
        assert_eq!(s.tail(), (1980.0, 0.99));
        let small = Samples((1..=100).map(f64::from).collect());
        assert_eq!(small.tail(), (90.0, 0.9));
        assert_eq!(fmt_pct(0.99), "99");
        assert_eq!(fmt_pct(0.975), "97.5");
    }
}
