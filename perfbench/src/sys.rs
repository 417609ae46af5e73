//! Process measurements read from `/proc/self`: CPU time, peak resident
//! memory and the live thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of the `/proc/self/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, live or exited (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis with field 3, so utime/stime (fields 14/15)
    // sit at offsets 11/12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / TICKS_PER_S,
        _ => 0.0,
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Reset the kernel's peak-RSS mark to the current RSS, so that a later
/// [`peak_rss_mb`] covers only what runs in between. Returns false where
/// the kernel refuses, in which case the peak covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn live_threads() -> usize {
    // The task directory lists threads without taking the memory-map lock
    // that `/proc/self/status` needs, so sampling does not stall allocation.
    std::fs::read_dir("/proc/self/task").map_or(1, |dir| dir.count())
}

/// Samples the process's live thread count every few milliseconds on a
/// thread of its own, to observe how many workers a call really runs.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(live_threads(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        ThreadSampler { stop, peak, handle }
    }

    /// Stop sampling and return the number of threads that ran the work:
    /// the peak count minus the sampler itself and the waiting caller, or
    /// 1 when the caller ran the work inline.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        // A sampler that panicked simply observed nothing.
        let _ = self.handle.join();
        self.peak.load(Ordering::Relaxed).saturating_sub(2).max(1)
    }
}
