//! What the numbers were measured on: host description for the report
//! header, the process's peak memory, and the two host probes (memory
//! bandwidth and pool round-trip) the layer metrics are ratios to.

use crate::stats::median;
use grazelle_sched::ThreadPool;
use std::time::Instant;

/// Report-header facts about the host and checkout.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    /// `level:type:size` per cache of cpu0, e.g. `L3:Unified:266240K`.
    pub caches: Vec<String>,
    pub git_commit: String,
}

impl HostInfo {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let caches = (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| {
                    std::fs::read_to_string(format!("{dir}/{f}"))
                        .ok()
                        .map(|s| s.trim().to_string())
                };
                Some(format!(
                    "L{}:{}:{}",
                    read("level")?,
                    read("type")?,
                    read("size")?
                ))
            })
            .collect();
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            caches,
            git_commit: git_commit(),
        }
    }
}

/// The checked-out commit, read from `.git` of the working directory
/// without starting a process; `unknown` in an exported tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// STREAM-triad bandwidth (`a[i] = b[i] + s·c[i]`, 24 bytes moved per
/// element) on `pool`, with the three arrays together as large as the
/// workload's working set: *same-working-set* bandwidth, not a DRAM
/// roofline (this host's last-level cache is larger than any input here).
/// Returns GB/s, best of `reps` after one warm-up pass.
pub fn triad_gb_per_s(pool: &ThreadPool, working_set_bytes: usize, reps: usize) -> f64 {
    let n = (working_set_bytes / 24).max(1024);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let per = n.div_ceil(pool.num_threads());
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let mut parts: Vec<(usize, &mut [f64])> = a.chunks_mut(per).enumerate().collect();
        while parts.len() < pool.num_threads() {
            parts.push((0, &mut []));
        }
        let t = Instant::now();
        pool.run_tasks(parts, |_, (k, out)| {
            let (b, c) = (&b[k * per..][..out.len()], &c[k * per..][..out.len()]);
            for ((o, &x), &y) in out.iter_mut().zip(b).zip(c) {
                *o = x + 3.0 * y;
            }
        });
        let secs = t.elapsed().as_secs_f64();
        if rep > 0 {
            best = best.min(secs);
        }
    }
    std::hint::black_box(&a);
    (n * 24) as f64 / best / 1e9
}

/// Median round trip, in microseconds, of an empty task batch on `pool`:
/// the fixed cost every Edge and Vertex phase of a superstep pays.
pub fn dispatch_us(pool: &ThreadPool, round_trips: usize) -> f64 {
    let samples: Vec<f64> = (0..round_trips)
        .map(|_| {
            let t = Instant::now();
            let out = pool.run_tasks(vec![(); pool.num_threads()], |_, ()| ());
            std::hint::black_box(out);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_numbers() {
        let pool = ThreadPool::single_group(2);
        assert!(triad_gb_per_s(&pool, 1 << 20, 2) > 0.0);
        assert!(dispatch_us(&pool, 50) > 0.0);
        assert!(HostInfo::probe().nproc >= 1);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
