//! Host facts recorded with every run, so a noisy run can be recognised
//! as noisy rather than read as a regression.

/// Aggregate CPU jiffies from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the current counters (zeros where `/proc` is unavailable).
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    fn parse(stat: &str) -> Option<Self> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already inside user, so it is not added again.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let total = v.iter().take(8).sum();
        Some(Self {
            total,
            steal: v.get(7).copied().unwrap_or(0),
        })
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        });
    kb.unwrap_or(0.0) / 1024.0
}

/// Duration of one [`calibration_work`] call on the reference host (a quiet
/// 2-vCPU Xeon VM), the scale of host-normalised rates.
pub const CALIBRATION_REF_S: f64 = 4.0e-3;

/// A fixed CPU workload made only of the benchmark's own code: ordered-map
/// inserts and removals, a binary heap and floating-point arithmetic, the
/// mix a discrete-event simulator spends its time on. Timed next to the
/// program, it measures how fast the host runs at that moment, so a rate
/// can be reported at reference speed; a change to the program does not
/// touch it.
pub fn calibration_work() -> u64 {
    use std::collections::{BTreeMap, BinaryHeap};
    use std::cmp::Reverse;
    const KEYS: u64 = 4096;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0.0f64;
    let mut sum = 0u64;
    for i in 0..20_000u64 {
        let k = next() % KEYS;
        if let Some(v) = map.insert(k, i) {
            sum = sum.wrapping_add(v);
        }
        if i % 3 == 0 {
            if let Some((&k, _)) = map.range(next() % KEYS..).next() {
                map.remove(&k);
            }
        }
        heap.push(Reverse(next() % 1_000_000));
        if heap.len() > 256 {
            sum = sum.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        acc = (acc + (k as f64).sqrt() * 1.000_001).rem_euclid(1e9);
    }
    std::hint::black_box(sum.wrapping_add(acc.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_eighth_counter() {
        let a = CpuTimes::parse("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3").expect("cpu line");
        let b = CpuTimes::parse("cpu  200 0 100 900 0 0 0 100 0 0\n").expect("cpu line");
        assert_eq!(a.total, 1000);
        assert!((b.steal_frac_since(&a) - 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_work_is_deterministic() {
        assert_eq!(calibration_work(), calibration_work());
    }
}
