//! Minimal wall-clock micro-benchmark harness.
//!
//! The `cargo bench` targets of this crate use plain `harness = false`
//! binaries built on these helpers instead of an external benchmarking
//! framework, keeping the workspace resolvable with no registry access.
//! Each benchmark warms up, then runs enough iterations to cover a
//! minimum measurement window and reports the mean time per iteration.

use std::time::{Duration, Instant};

/// Minimum measured window per benchmark, after warm-up.
const MIN_WINDOW: Duration = Duration::from_millis(200);

/// Runs `f` repeatedly and prints `name: <mean per iteration>`.
///
/// Returns the mean iteration time so callers can assert on it.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Duration {
    // Warm-up: one untimed call plus a short calibration burst.
    std::hint::black_box(f());
    let t = Instant::now();
    std::hint::black_box(f());
    let once = t.elapsed().max(Duration::from_nanos(50));

    let iters = (MIN_WINDOW.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    // Round the mean up to whole nanoseconds: a body faster than 1 ns
    // per iteration would otherwise truncate to a `0 ns` mean.
    let mean = Duration::from_nanos(
        u64::try_from(t.elapsed().as_nanos().div_ceil(u128::from(iters))).unwrap_or(u64::MAX),
    );
    println!(
        "{name:<40} {:>12} /iter   ({iters} iters)",
        fmt_duration(mean)
    );
    mean
}

/// Like [`bench`] but also prints a throughput figure for `elements`
/// logical items processed per iteration.
pub fn bench_throughput<T>(name: &str, elements: u64, f: impl FnMut() -> T) -> Duration {
    let mean = bench(name, f);
    let per_sec = elements as f64 / mean.as_secs_f64();
    println!("{:<40} {:>12.2} Melem/s", "", per_sec / 1e6);
    mean
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_time() {
        let mean = bench("noop_loop", || {
            let mut acc = 0u64;
            for i in 0..64u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(mean.as_nanos() > 0);
    }
}
