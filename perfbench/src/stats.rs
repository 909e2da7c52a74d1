//! Order statistics, the seeded input generators, and the `/proc` probe
//! the workloads share.

use sf_tensor::rng::XorShiftRng;

/// Nearest-rank percentile of an ascending-sorted sample, `p` in
/// `[0, 1]`. An empty sample has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive (a zero time means nothing was measured).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The highest tail percentile a sample of `n` supports: the 99th when
/// at least ten samples lie beyond it, otherwise the percentile with
/// exactly ten beyond (never below the median).
pub fn supported_tail(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShiftRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Due times, in seconds from the start of the phase, of a Poisson
/// arrival process at `rate` per second over `duration` seconds:
/// exponential inter-arrival gaps drawn from the seeded generator.
pub fn poisson_schedule(rate: f64, duration: f64, rng: &mut XorShiftRng) -> Vec<f64> {
    let mut due = Vec::new();
    if rate <= 0.0 {
        return due;
    }
    let mut t = 0.0f64;
    loop {
        // 1 - u lies in (0, 1], so the log is finite.
        let u = 1.0 - rng.next_f32() as f64;
        t += -u.ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// The machine's busy and stolen CPU time so far, in `/proc/stat`
/// ticks (1/100 s) summed over vCPUs: busy is every field but idle,
/// iowait and steal; stolen (`steal`) is time the hypervisor gave to
/// others while a vCPU was ready to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let steal = *v.get(7)?;
    let busy = v.iter().take(8).sum::<u64>() - v[3] - v[4] - steal;
    Some((busy, steal))
}

/// Peak resident set (`VmHWM`) of a process, MiB, from `/proc`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over a sequence of 64-bit words: the digest that pins a run's
/// input sequence and outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bytes of a string into the digest.
    pub fn add_str(&mut self, s: &str) {
        self.add(spacefusion::serve::protocol::fnv1a64(s.as_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(5000), 0.99);
        assert!((supported_tail(200) - 0.95).abs() < 1e-12);
        assert_eq!(supported_tail(10), 0.5);
        // At the supported tail, at least ten samples lie above.
        for n in [50usize, 200, 999, 1000, 4321] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentile(&v, supported_tail(n)).unwrap();
            assert!(v.iter().filter(|x| **x > p).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut XorShiftRng::seed_from_u64(3));
        shuffle(&mut b, &mut XorShiftRng::seed_from_u64(3));
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, &mut XorShiftRng::seed_from_u64(4));
        assert_ne!(a, c);
        a.sort();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_schedule_rate_and_order() {
        let due = poisson_schedule(1000.0, 20.0, &mut XorShiftRng::seed_from_u64(1));
        // 20000 expected arrivals; the count's sd is ~141.
        assert!((due.len() as f64 - 20_000.0).abs() < 700.0, "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.iter().all(|t| (0.0..20.0).contains(t)));
        // Exponential gaps: mean 1 ms, and about e^-1 of gaps exceed it.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e-3).abs() < 5e-5, "{mean}");
        let above = gaps.iter().filter(|g| **g > 1e-3).count() as f64 / gaps.len() as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.02, "{above}");
        let again = poisson_schedule(1000.0, 20.0, &mut XorShiftRng::seed_from_u64(1));
        assert_eq!(due, again);
        assert!(poisson_schedule(0.0, 1.0, &mut XorShiftRng::seed_from_u64(1)).is_empty());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
