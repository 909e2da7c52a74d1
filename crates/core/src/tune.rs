//! Block-size auto-tuning (paper §6.5).
//!
//! The resource-aware slicer emits a small search space of feasible
//! schedules; the tuner measures each candidate on the performance model
//! and keeps the best. The paper measures candidates with on-GPU test
//! runs and an early-quit mechanism (α = 0.25); here measurement is the
//! analytic cost model, and early-quit prunes candidates whose running
//! estimate already exceeds `best / α`.
//!
//! [`tune_bounded`] additionally accepts a
//! [`Deadline`](crate::resilience::Deadline): when the budget expires
//! mid-search the tuner stops measuring and returns the best candidate
//! seen so far (at least one candidate is always measured), marking the
//! result [`TuneResult::timed_out`]. Unmeasured candidates count as
//! pruned, preserving `evaluated + pruned == candidates.len()`.

use crate::codegen::{estimate_accumulate_cost, estimate_cost, KernelProgram};
use crate::resilience::Deadline;
use sf_gpu_sim::GpuArch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Candidate sets larger than this have their cost-model evaluation
/// fanned out over worker threads.
const PARALLEL_THRESHOLD: usize = 32;

/// Outcome of tuning one kernel's candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Index of the selected candidate.
    pub best: usize,
    /// Estimated time of the selected candidate (µs).
    pub best_us: f64,
    /// Candidates fully evaluated.
    pub evaluated: usize,
    /// Candidates abandoned by the early-quit rule (or left unmeasured
    /// when the deadline expired).
    pub pruned: usize,
    /// Whether the search stopped early because its deadline expired.
    pub timed_out: bool,
}

/// Selects the best candidate kernel program for `arch`.
///
/// Returns `None` when `candidates` is empty — an empty search space is
/// a scheduling outcome (the slicer found nothing feasible), not a
/// programming error, so callers decide how to recover (the pipeline
/// maps it to [`SfError::ResourceInfeasible`](crate::error::SfError)).
pub fn tune(
    candidates: &[KernelProgram],
    arch: &GpuArch,
    instances: u64,
    alpha: f64,
) -> Option<TuneResult> {
    tune_bounded(candidates, arch, instances, alpha, Deadline::none())
}

/// [`tune`] with a wall-clock budget: when `deadline` expires mid-search
/// the best candidate seen so far wins. The first candidate is always
/// measured, so an already-expired deadline still yields a valid pick.
pub fn tune_bounded(
    candidates: &[KernelProgram],
    arch: &GpuArch,
    instances: u64,
    alpha: f64,
    deadline: Deadline,
) -> Option<TuneResult> {
    let mut tuner = Tuner::new(arch, instances, alpha, deadline, candidates.len());
    tuner.measure(candidates);
    tuner.finish()
}

/// One tuning search, fed its candidates in order — all at once
/// ([`tune_bounded`]) or one at a time, so a large search space need
/// not hold every lowered candidate in memory (the compile pipeline
/// keeps only the leader). The outcome is the same however the
/// candidates are fed.
pub(crate) struct Tuner<'a> {
    arch: &'a GpuArch,
    instances: u64,
    alpha: f64,
    deadline: Deadline,
    /// Candidates in the whole search.
    total: usize,
    /// Candidates fed so far.
    seen: usize,
    result: TuneResult,
}

impl<'a> Tuner<'a> {
    /// A search over `total` candidates.
    pub(crate) fn new(
        arch: &'a GpuArch,
        instances: u64,
        alpha: f64,
        deadline: Deadline,
        total: usize,
    ) -> Self {
        Tuner {
            arch,
            instances,
            alpha: alpha.clamp(0.01, 1.0),
            deadline,
            total,
            seen: 0,
            result: TuneResult {
                best: 0,
                best_us: f64::INFINITY,
                evaluated: 0,
                pruned: 0,
                timed_out: false,
            },
        }
    }

    /// Measures the next candidates (global indices continue from the
    /// previous call). A no-op once the deadline stopped the search.
    pub(crate) fn measure(&mut self, candidates: &[KernelProgram]) {
        let base = self.seen;
        self.seen += candidates.len();
        if self.result.timed_out {
            return;
        }
        if !self.deadline.is_bounded() {
            // Unbounded searches evaluate the model times up front
            // (in parallel for large chunks), then fold serially.
            let times = candidate_times(candidates, self.arch, self.instances);
            for (j, &t) in times.iter().enumerate() {
                self.record(base + j, t);
            }
            return;
        }
        // Bounded searches measure serially so expiry is checked between
        // candidates.
        for (j, kp) in candidates.iter().enumerate() {
            let i = base + j;
            if i > 0 && self.deadline.expired() {
                // Unmeasured candidates count as pruned so the
                // `evaluated + pruned == len` invariant holds.
                self.stop(i);
                return;
            }
            // Split-K candidates are measured dispatch-by-dispatch (as
            // an on-GPU test run times the two launches), re-checking
            // the deadline between the accumulate and combine figures.
            // The first candidate is exempt so an already-expired
            // deadline still yields one *complete* measurement.
            let t = if i > 0 && is_split(kp) {
                let best = self.result.best_us;
                match measure_split_bounded(
                    kp,
                    self.arch,
                    self.instances,
                    self.alpha,
                    best,
                    &self.deadline,
                ) {
                    SplitMeasure::Complete(t) => t,
                    SplitMeasure::EarlyQuit => {
                        // The accumulate dispatch alone already exceeds
                        // best/α; the combine can only add to it.
                        self.result.pruned += 1;
                        continue;
                    }
                    SplitMeasure::Expired => {
                        // The budget ran out after the accumulate
                        // dispatch was timed but before the combine: the
                        // partial figure understates the candidate, so
                        // it is discarded — the best fully-measured
                        // schedule stands, never a half-evaluated split.
                        self.stop(i);
                        return;
                    }
                }
            } else {
                self.arch.kernel_time_us(&estimate_cost(kp, self.instances))
            };
            self.record(i, t);
        }
    }

    /// Folds candidate `i`'s measured time into the search. Early-quit:
    /// once a candidate is clearly worse than the current best, its
    /// remaining test repetitions are abandoned.
    fn record(&mut self, i: usize, t: f64) {
        let r = &mut self.result;
        if t > r.best_us / self.alpha {
            r.pruned += 1;
        } else {
            r.evaluated += 1;
        }
        if t < r.best_us {
            r.best_us = t;
            r.best = i;
        }
    }

    /// Stops the search before candidate `i`: the rest count as pruned.
    fn stop(&mut self, i: usize) {
        self.result.pruned += self.total - i;
        self.result.timed_out = true;
    }

    /// Whether the deadline stopped the search (later candidates need
    /// not be built).
    pub(crate) fn timed_out(&self) -> bool {
        self.result.timed_out
    }

    /// Candidates fed so far.
    pub(crate) fn seen(&self) -> usize {
        self.seen
    }

    /// Index of the best candidate so far.
    pub(crate) fn best(&self) -> usize {
        self.result.best
    }

    /// The outcome; `None` for an empty search space.
    pub(crate) fn finish(self) -> Option<TuneResult> {
        (self.total > 0).then_some(self.result)
    }
}

/// Outcome of one staged split-K measurement under a deadline.
#[derive(Debug, PartialEq)]
enum SplitMeasure {
    /// Both dispatches were timed; the candidate's full figure.
    Complete(f64),
    /// The accumulate dispatch alone already lost to `best / α`.
    EarlyQuit,
    /// The deadline expired between the two dispatches — the partial
    /// (accumulate-only) figure must be discarded.
    Expired,
}

/// Whether a candidate carries a split-K temporal schedule.
fn is_split(kp: &KernelProgram) -> bool {
    kp.schedule
        .temporal
        .as_ref()
        .is_some_and(|t| t.split.is_some())
}

/// Measures one split-K candidate dispatch-by-dispatch under a
/// deadline: time the accumulate launch, early-quit or re-check the
/// budget, then time the full candidate. A candidate abandoned between
/// the launches yields [`SplitMeasure::Expired`] — its accumulate-only
/// figure omits the combine's traffic and would understate the
/// schedule, so the caller must fall back to the best *complete*
/// measurement rather than crown it.
fn measure_split_bounded(
    kp: &KernelProgram,
    arch: &GpuArch,
    instances: u64,
    alpha: f64,
    best_us: f64,
    deadline: &Deadline,
) -> SplitMeasure {
    let t_acc = arch.kernel_time_us(&estimate_accumulate_cost(kp, instances));
    if t_acc > best_us / alpha {
        return SplitMeasure::EarlyQuit;
    }
    if deadline.expired() {
        return SplitMeasure::Expired;
    }
    SplitMeasure::Complete(arch.kernel_time_us(&estimate_cost(kp, instances)))
}

/// Cost-model time of every candidate, in candidate order.
fn candidate_times(candidates: &[KernelProgram], arch: &GpuArch, instances: u64) -> Vec<f64> {
    if candidates.len() <= PARALLEL_THRESHOLD {
        return candidates
            .iter()
            .map(|kp| arch.kernel_time_us(&estimate_cost(kp, instances)))
            .collect();
    }
    tune_parallel(candidates, arch, instances)
}

/// Parallel cost evaluation for large candidate sets.
///
/// Only the (pure, per-candidate) model evaluation is fanned out; the
/// fold over the resulting times stays serial, so the winner and the
/// `evaluated + pruned == candidates.len()` accounting are exactly those
/// of the serial path.
fn tune_parallel(candidates: &[KernelProgram], arch: &GpuArch, instances: u64) -> Vec<f64> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
        .min(candidates.len());
    let times = Mutex::new(vec![0.0f64; candidates.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= candidates.len() {
                    return;
                }
                let t = arch.kernel_time_us(&estimate_cost(&candidates[i], instances));
                times
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = t;
            });
        }
    });
    times
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{resource_aware_slicing, SlicingOptions};
    use crate::smg::build_smg;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha_candidates(arch: &GpuArch) -> (Graph, Vec<KernelProgram>) {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("q", Shape::new(vec![512, 64]));
        let kk = g.input("k", Shape::new(vec![512, 64]));
        let v = g.input("v", Shape::new(vec![512, 64]));
        let qk = g.gemm(q, kk, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.mark_output(out);
        let smg = build_smg(&g).unwrap();
        let schedules = resource_aware_slicing(&g, &smg, arch, &SlicingOptions::default()).unwrap();
        let kps = schedules
            .into_iter()
            .map(|s| KernelProgram::new("mha", g.clone(), s))
            .collect();
        (g, kps)
    }

    #[test]
    fn tuner_picks_a_valid_candidate() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        assert!(kps.len() > 1);
        let r = tune(&kps, &arch, 32, 0.25).unwrap();
        assert!(r.best < kps.len());
        assert!(r.best_us.is_finite());
        assert_eq!(r.evaluated + r.pruned, kps.len());
    }

    #[test]
    fn best_candidate_beats_or_ties_all_others() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        let r = tune(&kps, &arch, 32, 0.25).unwrap();
        for kp in &kps {
            let t = arch.kernel_time_us(&estimate_cost(kp, 32));
            assert!(t >= r.best_us - 1e-9);
        }
    }

    #[test]
    fn early_quit_prunes_poor_candidates() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        // With α = 1 any candidate strictly worse than the running best
        // is abandoned early; the distinct block sizes guarantee spread.
        let r = tune(&kps, &arch, 32, 1.0).unwrap();
        assert!(r.pruned > 0, "expected pruning among {} configs", kps.len());
        // A tiny α (wide tolerance) evaluates everything.
        let r2 = tune(&kps, &arch, 32, 0.01).unwrap();
        assert!(r2.pruned <= r.pruned);
        assert_eq!(r2.best, r.best, "α must not change the winner");
    }

    #[test]
    fn empty_candidates_return_none() {
        assert_eq!(tune(&[], &GpuArch::ampere(), 1, 0.25), None);
        assert_eq!(
            tune_bounded(&[], &GpuArch::ampere(), 1, 0.25, Deadline::after_ms(0)),
            None
        );
    }

    #[test]
    fn expired_deadline_still_picks_a_candidate() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        assert!(kps.len() > 1);
        let r = tune_bounded(&kps, &arch, 32, 0.25, Deadline::after_ms(0)).unwrap();
        // Only the first candidate was measured; the rest were skipped.
        assert!(r.timed_out);
        assert_eq!(r.best, 0);
        assert!(r.best_us.is_finite());
        assert_eq!(r.evaluated + r.pruned, kps.len());
    }

    #[test]
    fn generous_deadline_matches_unbounded_winner() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        let bounded = tune_bounded(
            &kps,
            &arch,
            32,
            0.25,
            Deadline::after(std::time::Duration::from_secs(3600)),
        )
        .unwrap();
        let unbounded = tune(&kps, &arch, 32, 0.25).unwrap();
        assert!(!bounded.timed_out);
        assert_eq!(bounded.best, unbounded.best);
        assert_eq!(bounded.best_us, unbounded.best_us);
    }

    #[test]
    fn split_measure_discards_partial_figure_on_expiry() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        let split = kps
            .iter()
            .find(|kp| is_split(kp))
            .expect("slicer emits split-K variants for mha");
        // Budget already gone when the mid-measurement check runs: the
        // accumulate-only figure must be discarded, not returned.
        let r = measure_split_bounded(
            split,
            &arch,
            32,
            0.25,
            f64::INFINITY,
            &Deadline::after_ms(0),
        );
        assert_eq!(r, SplitMeasure::Expired);
        // With budget left, the staged figure is exactly the unbounded
        // one, and the accumulate-only figure never exceeds it (so
        // early-quitting on it is conservative).
        let full = arch.kernel_time_us(&estimate_cost(split, 32));
        let acc = arch.kernel_time_us(&estimate_accumulate_cost(split, 32));
        assert!(acc <= full, "accumulate dispatch alone exceeds the total");
        assert_eq!(
            measure_split_bounded(split, &arch, 32, 0.25, f64::INFINITY, &Deadline::none()),
            SplitMeasure::Complete(full)
        );
    }

    #[test]
    fn expired_deadline_never_crowns_a_half_evaluated_split() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        // Order the search so every candidate after the first is a
        // split-K schedule — the shapes the staged measurement guards.
        let mut ordered: Vec<KernelProgram> =
            kps.iter().filter(|kp| !is_split(kp)).cloned().collect();
        let n_complete = ordered.len();
        ordered.extend(kps.iter().filter(|kp| is_split(kp)).cloned());
        assert!(ordered.len() > n_complete, "no split candidates to guard");
        let r = tune_bounded(&ordered, &arch, 32, 0.25, Deadline::after_ms(0)).unwrap();
        assert!(r.timed_out);
        // The winner is a fully-measured schedule, never one whose
        // combine dispatch went unmeasured.
        assert!(
            !is_split(&ordered[r.best]),
            "expired search crowned a split candidate it could not have finished measuring"
        );
        assert_eq!(r.evaluated + r.pruned, ordered.len());
    }

    #[test]
    fn parallel_path_matches_serial_semantics() {
        let arch = GpuArch::ampere();
        let (_, kps) = mha_candidates(&arch);
        // Tile the candidate set past the threshold so candidate_times
        // takes the tune_parallel path.
        let mut big: Vec<KernelProgram> = Vec::new();
        while big.len() <= PARALLEL_THRESHOLD {
            big.extend(kps.iter().cloned());
        }
        let r = tune(&big, &arch, 32, 0.25).unwrap();
        assert_eq!(r.evaluated + r.pruned, big.len());

        // Reference: the historical serial fold.
        let (mut best, mut best_us) = (0usize, f64::INFINITY);
        for (i, kp) in big.iter().enumerate() {
            let t = arch.kernel_time_us(&estimate_cost(kp, 32));
            if t < best_us {
                best_us = t;
                best = i;
            }
        }
        assert_eq!(r.best, best);
        assert_eq!(r.best_us, best_us);
    }
}
