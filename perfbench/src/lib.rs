//! The repository benchmark harness: workloads, the open-loop load
//! generator, in-memory tracing, and the result line. See `README.md` in
//! this directory for the metric catalogue and the workload rationale.

pub mod conn;
pub mod paper;
pub mod procs;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod served;
pub mod stats;
pub mod trace;

/// Host facts recorded with every result.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let width = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!("nproc={nproc} pool_width={width}")
}

/// `(steal, total)` CPU ticks of all CPUs so far, from `/proc/stat`. On a
/// VM, steal is time the hypervisor gave this guest's CPUs to others.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal: guest time is
    // already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings, as a
/// `steal=` host fact.
pub fn steal_fact(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("steal={:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "steal=unknown".into(),
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (or `self`), in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
