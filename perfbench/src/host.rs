//! Host-side measurements: on-CPU time, peak resident set, and the
//! order statistics the benchmark reports.

use std::time::Instant;

/// Linux reports `/proc/stat` times in USER_HZ ticks, fixed at 100/s.
const USER_HZ: f64 = 100.0;

/// Cumulative CPU counters at one instant, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    /// This thread running on a CPU (`/proc/self/schedstat`). The
    /// benchmark is single-threaded, so this is the process's.
    on_cpu: f64,
    /// This thread runnable but waiting for a CPU.
    runq: f64,
    /// Every CPU of the machine busy, ours included (`/proc/stat`).
    machine_busy: f64,
    /// Time the hypervisor ran something else on the machine's CPUs.
    machine_steal: f64,
}

fn read_counters() -> Counters {
    let nums = |text: &str| -> Vec<f64> {
        text.split_whitespace()
            .filter_map(|f| f.parse::<f64>().ok())
            .collect()
    };
    let sched = nums(&std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default());
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // cpu  user nice system idle iowait irq softirq steal ...
    let cpu = nums(stat.lines().next().unwrap_or_default());
    let tick = |i: usize| cpu.get(i).copied().unwrap_or(0.0) / USER_HZ;
    Counters {
        on_cpu: sched.first().copied().unwrap_or(0.0) * 1e-9,
        runq: sched.get(1).copied().unwrap_or(0.0) * 1e-9,
        machine_busy: tick(0) + tick(1) + tick(2) + tick(5) + tick(6),
        machine_steal: tick(7),
    }
}

/// What the host did while a measurement ran, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct HostUsage {
    /// Wall-clock time.
    pub wall_s: f64,
    /// This process on a CPU.
    pub on_cpu_s: f64,
    /// This process runnable but waiting for a CPU.
    pub runq_s: f64,
    /// CPU time other processes on the machine used meanwhile.
    pub others_cpu_s: f64,
    /// CPU time the hypervisor took from the machine meanwhile.
    pub vm_steal_s: f64,
}

impl HostUsage {
    /// Wall time this process was not on a CPU.
    pub fn steal_s(&self) -> f64 {
        self.wall_s - self.on_cpu_s
    }
}

impl std::fmt::Display for HostUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host: wall {:.3} s, on-cpu {:.3} s, steal {:.3} s, runqueue {:.3} s, \
             others on-cpu {:.3} s, vm steal {:.3} s",
            self.wall_s,
            self.on_cpu_s,
            self.steal_s(),
            self.runq_s,
            self.others_cpu_s,
            self.vm_steal_s
        )
    }
}

/// A wall-clock interval with the CPU counters around it.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    wall: Instant,
    start: Counters,
}

impl HostClock {
    /// Starts measuring.
    pub fn start() -> HostClock {
        HostClock {
            wall: Instant::now(),
            start: read_counters(),
        }
    }

    /// The host's usage since [`HostClock::start`].
    pub fn stop(self) -> HostUsage {
        let end = read_counters();
        let on_cpu_s = end.on_cpu - self.start.on_cpu;
        HostUsage {
            wall_s: self.wall.elapsed().as_secs_f64(),
            on_cpu_s,
            runq_s: end.runq - self.start.runq,
            others_cpu_s: (end.machine_busy - self.start.machine_busy - on_cpu_s).max(0.0),
            vm_steal_s: end.machine_steal - self.start.machine_steal,
        }
    }
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }
}
