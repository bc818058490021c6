//! The environment stamp every result carries, and process memory.

use std::path::Path;
use std::time::Instant;

/// What a result was measured on. Host-time figures are only comparable
/// between results with equal stamps (commit and seed aside).
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// Threads the simulator's replay pool is pinned to.
    pub sim_threads: usize,
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// The clock host times are read on (see [`Stopwatch`]).
    pub clock: &'static str,
}

impl Stamp {
    /// Stamps a run of `seed` with `sim_threads` replay threads.
    pub fn new(seed: u64, sim_threads: usize) -> Self {
        Stamp {
            nproc: nproc(),
            sim_threads,
            commit: commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))),
            seed,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            clock: clock_name(),
        }
    }

    /// `key=value` pairs, for the text report and the trace file.
    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("sim_threads", self.sim_threads.to_string()),
            ("commit", self.commit.clone()),
            ("seed", self.seed.to_string()),
            ("profile", self.profile.to_string()),
            ("clock", self.clock.to_string()),
        ]
    }
}

/// Logical CPUs available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git: a
/// detached `HEAD`, a loose ref, or a packed ref. `unknown` otherwise.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(&git.join(name))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
            }),
    };
    match hash {
        Some(h) if h.len() >= 12 && h.chars().all(|c| c.is_ascii_hexdigit()) => h[..12].to_string(),
        _ => "unknown".into(),
    }
}

/// Machine-wide `(all, stolen)` CPU ticks from `/proc/stat`: time a
/// hypervisor gave to other guests shows up as stolen. `(0, 0)` where
/// `/proc` is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Percent of machine CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    after.1.saturating_sub(before.1) as f64 * 100.0 / all.max(1) as f64
}

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`, read
/// to the nanosecond). It leaves out time the thread waited for a CPU,
/// which other tenants of a shared host decide. `None` off Linux or when
/// the call fails.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> Option<f64> {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// Which clock [`Stopwatch`] reads: `thread-cpu` or `wall`.
pub fn clock_name() -> &'static str {
    if thread_cpu_s().is_some() {
        "thread-cpu"
    } else {
        "wall"
    }
}

/// Times host work on the calling thread's CPU clock, or on the wall
/// clock where that is unavailable. The benchmark pins the simulator to
/// one thread, so the calling thread does all the work it times.
pub struct Stopwatch {
    cpu: Option<f64>,
    wall: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch {
            cpu: thread_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu, thread_cpu_s()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
