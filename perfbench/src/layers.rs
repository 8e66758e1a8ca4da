//! Per-layer readings shared by the workloads: the euno-htm runtime's
//! counters and registries, and the process meters.

use std::sync::Arc;

use euno_htm::Runtime;
use euno_metrics::{Counter, ABORTS_HTM, ABORTS_MIDDLE};

use crate::meter;
use crate::report::Report;

/// Summed counter totals of some runtimes, taken before and after the
/// traced phase so the reported counts cover it alone.
pub fn totals(rts: &[&Arc<Runtime>]) -> [u64; Counter::COUNT] {
    let mut out = [0u64; Counter::COUNT];
    for rt in rts {
        for (acc, v) in out.iter_mut().zip(rt.metrics().totals()) {
            *acc += v;
        }
    }
    out
}

/// The euno-htm metrics over `[before, after)`, plus the runtimes'
/// registry sizes and epoch backlog as they stand now.
pub fn htm(
    rep: &mut Report,
    rts: &[&Arc<Runtime>],
    before: &[u64; Counter::COUNT],
    after: &[u64; Counter::COUNT],
) {
    let d = |c: Counter| after[c.index()].saturating_sub(before[c.index()]);
    let both = |i: usize| d(ABORTS_HTM[i]) + d(ABORTS_MIDDLE[i]);
    // Bucket order (the paper's Figure 2): true same-record, three false
    // kinds, unclassified conflict, then capacity.
    let conflict: u64 = (0..5).map(both).sum();
    let false_kinds: u64 = (1..4).map(both).sum();
    let attempts = d(Counter::Attempts);
    rep.set("htm.attempts", attempts as f64);
    rep.set("htm.commits", d(Counter::Commits) as f64);
    rep.set(
        "htm.commit_ratio",
        d(Counter::Commits) as f64 / attempts.max(1) as f64,
    );
    rep.set("htm.middles", d(Counter::Middles) as f64);
    rep.set("htm.fallbacks", d(Counter::Fallbacks) as f64);
    rep.set("htm.backoffs", d(Counter::Backoffs) as f64);
    rep.set("htm.aborts.conflict", conflict as f64);
    rep.set(
        "htm.aborts.false_frac",
        false_kinds as f64 / conflict.max(1) as f64,
    );
    rep.set("htm.aborts.capacity", both(5) as f64);
    rep.set("htm.tl2.lock_fails", d(Counter::Tl2LockFails) as f64);
    rep.set(
        "htm.tl2.validation_fails",
        d(Counter::Tl2ValidationFails) as f64,
    );
    rep.set("htm.tl2.read_waits", d(Counter::Tl2ReadWaits) as f64);
    rep.set("htm.advisory_waits", d(Counter::AdvisoryWaits) as f64);
    rep.set("htm.ccm_flips", d(Counter::CcmBypassFlips) as f64);
    let sum = |f: &dyn Fn(&Runtime) -> usize| rts.iter().map(|rt| f(rt)).sum::<usize>() as f64;
    rep.set("htm.registered_objects", sum(&|rt| rt.registered_objects()));
    rep.set("htm.registered_lines", sum(&|rt| rt.registered_lines()));
    rep.set(
        "htm.epoch_retired_pending_bytes",
        sum(&|rt| rt.epoch().pending_bytes()),
    );
}

/// Process meters for the whole run so far.
pub fn process(rep: &mut Report, wall_s: f64, rss_mb_after_setup: f64) {
    let p = meter::proc_sample();
    rep.set("proc.cpu_s", p.cpu_s);
    rep.set("proc.cpu_util", p.cpu_s / wall_s.max(1e-9));
    rep.set("proc.rss_mb_after_setup", rss_mb_after_setup);
    rep.set("proc.minor_faults", p.minor_faults as f64);
    rep.set("proc.vol_ctx_switches", p.vol_ctx_switches as f64);
    rep.set("proc.invol_ctx_switches", p.invol_ctx_switches as f64);
}

/// Tracing overhead: traced minus untraced `lat_us`.
pub fn overhead(rep: &mut Report, untraced_us: f64, traced_us: f64) {
    rep.set("trace.overhead_us", traced_us - untraced_us);
    rep.set(
        "trace.overhead_pct",
        100.0 * (traced_us - untraced_us) / untraced_us.max(1e-9),
    );
}
