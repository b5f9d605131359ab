//! Process and host probes: CPU time, peak RSS, core count, and the
//! fsync latency of the data directory.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` time fields (Linux
/// reports them in `USER_HZ`, which is 100 on every supported target).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads
/// (including exited ones).
pub fn cpu_seconds() -> f64 {
    cpu_of("/proc/self/stat")
}

/// User + system CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    cpu_of("/proc/thread-self/stat")
}

fn cpu_of(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime/stime being the
    // 12th and 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Resident set size of this process right now, MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median latency, ms, of a 4 KiB write + `fdatasync` in `dir` — the
/// disk the durable workload's WAL lands on. Reported with every result
/// so durable numbers from different disks are never compared silently.
pub fn fsync_probe_ms(dir: &Path) -> f64 {
    const ROUNDS: usize = 16;
    let path = dir.join("fsync-probe.tmp");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0xA5u8; 4096];
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        if f.write_all(&block).is_err() || f.sync_data().is_err() {
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&samples)
}
