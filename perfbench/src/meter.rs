//! Process and thread meters read from `/proc/self`, plus host facts.
//!
//! Everything here parses kernel text files with the standard library
//! only; no crate is needed for a handful of integers.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Note the process start; call first thing in `main`.
pub fn mark_start() {
    START.get_or_init(Instant::now);
}

/// Wall seconds since [`mark_start`].
pub fn process_age_s() -> f64 {
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 per second on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Whole-process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of every thread, live or exited.
    pub cpu_s: f64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    pub invol_ctx_switches: u64,
}

/// One thread's CPU time and context switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskSample {
    pub cpu_s: f64,
    pub vol_ctx_switches: u64,
}

/// Fields of a `stat` file after the parenthesised command name, which
/// may itself contain spaces. Index 0 is field 3 (`state`) of proc(5).
fn stat_fields(path: &str) -> Option<Vec<u64>> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// A `Key:   value [kB]` line of a `status` file.
fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

// proc(5) `stat` field numbers, shifted to `stat_fields` indices.
const MINFLT: usize = 10 - 3;
const UTIME: usize = 14 - 3;
const STIME: usize = 15 - 3;

/// Context switches of benchmark threads that have already exited (see
/// [`retire_thread`]): `/proc` forgets a thread's counts when it ends.
static RETIRED_VOL: AtomicU64 = AtomicU64::new(0);
static RETIRED_INVOL: AtomicU64 = AtomicU64::new(0);

/// Bank the calling thread's context switches; call as the last thing a
/// benchmark thread does.
pub fn retire_thread() {
    let path = "/proc/thread-self/status";
    let vol = status_field(path, "voluntary_ctxt_switches").unwrap_or(0);
    let invol = status_field(path, "nonvoluntary_ctxt_switches").unwrap_or(0);
    RETIRED_VOL.fetch_add(vol, Ordering::Relaxed);
    RETIRED_INVOL.fetch_add(invol, Ordering::Relaxed);
}

pub fn proc_sample() -> ProcSample {
    let f = stat_fields("/proc/self/stat").unwrap_or_default();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    // A `status` file counts one thread's switches only: sum the live
    // threads and add the retired benchmark threads.
    let (mut vol, mut invol) = (
        RETIRED_VOL.load(Ordering::Relaxed),
        RETIRED_INVOL.load(Ordering::Relaxed),
    );
    for e in fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let status = e.path().join("status");
        let status = status.to_string_lossy();
        vol += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
        invol += status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    ProcSample {
        // Process-wide, including exited threads.
        cpu_s: (at(UTIME) + at(STIME)) as f64 / TICKS_PER_SEC,
        minor_faults: at(MINFLT),
        vol_ctx_switches: vol,
        invol_ctx_switches: invol,
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_field("/proc/self/status", "VmRSS").unwrap_or(0) as f64 / 1024.0
}

/// The id of this process's live thread named `name`, if any.
pub fn find_task(name: &str) -> Option<u64> {
    fs::read_dir("/proc/self/task").ok()?.find_map(|e| {
        let e = e.ok()?;
        let comm = fs::read_to_string(e.path().join("comm")).ok()?;
        (comm.trim_end() == name)
            .then(|| e.file_name().to_str()?.parse().ok())
            .flatten()
    })
}

pub fn task_sample(tid: u64) -> TaskSample {
    let dir = format!("/proc/self/task/{tid}");
    let f = stat_fields(&format!("{dir}/stat")).unwrap_or_default();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    TaskSample {
        cpu_s: (at(UTIME) + at(STIME)) as f64 / TICKS_PER_SEC,
        vol_ctx_switches: status_field(&format!("{dir}/status"), "voluntary_ctxt_switches")
            .unwrap_or(0),
    }
}

/// Host facts recorded next to every result: the numbers a reader needs
/// to compare runs from two machines.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let tsx = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .is_some_and(|l| l.split_whitespace().any(|f| f == "rtm"));
    let cache = |level: &str| -> String {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = fs::read_to_string(format!("{dir}/level")).ok()?;
                let ty = fs::read_to_string(format!("{dir}/type")).ok()?;
                (lvl.trim() == level && ty.trim() != "Instruction")
                    .then(|| fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "nproc={nproc} tsx={} l2={} l3={}",
        if tsx { "yes" } else { "no" },
        cache("2"),
        cache("3")
    )
}
