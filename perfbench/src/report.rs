//! Metric vocabulary and the result printer.
//!
//! Every run prints the same metric names whatever its workload, so a
//! later change is compared metric by metric on each workload. A layer a
//! workload never calls reads 0 in the traced output and is marked
//! "not exercised" in the human-readable lines above the result.

use std::collections::BTreeMap;

/// A metric: name, unit, and the end-to-end metric it should move.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

/// Printed with `--trace 0`; bounds live in BENCHMARK.json.
pub const END_TO_END: &[Def] = &[
    def(
        "setup_s",
        "s",
        "median of the run's set-ups: runtime or server built and preload done",
    ),
    def("peak_rss_mb", "MB", "VmHWM at the end of the run"),
    def(
        "throughput_kops",
        "kop/s",
        "serve-*: replies/s; tree-grow: ops/wall s; paper-skew: ops/virtual s",
    ),
    def(
        "lat_us",
        "us",
        "serve-*: request p50; tree-grow: put call p50; paper-skew: mean virtual op latency",
    ),
];

const SERVE_LAT: &str = "lat_us, throughput_kops on serve-*";
const TREE_GROW: &str = "throughput_kops, lat_us on tree-grow";
const SKEW: &str = "throughput_kops, lat_us on paper-skew";
const SIM_WALL: &str = "diagnostic: paper-skew wall time, too noisy to bound on a shared host";
const RSS: &str = "peak_rss_mb on tree-grow, setup_s everywhere";
const GEN: &str = "validity of lat_us on serve-*";

/// Printed with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    // euno-serve, timed around EunoServer::submit / Ticket::poll / Ticket::wait.
    def("serve.submit_ns.p50", "ns", SERVE_LAT),
    def("serve.submit_ns.p99", "ns", SERVE_LAT),
    def("serve.inflight_us.p50", "us", SERVE_LAT),
    def("serve.inflight_us.p99", "us", SERVE_LAT),
    def("serve.reap_ns.p50", "ns", SERVE_LAT),
    def("serve.reap_ns.p99", "ns", SERVE_LAT),
    def(
        "serve.lat_p99_us",
        "us",
        "diagnostic: request p99, too noisy to bound on this host",
    ),
    def("serve.shed", "count", SERVE_LAT),
    def("serve.mean_batch", "ops", SERVE_LAT),
    def("serve.batch_bails", "count", SERVE_LAT),
    def("serve.batch_shrinks", "count", SERVE_LAT),
    def("serve.queue_depth.p99", "count", SERVE_LAT),
    def("serve.worker_cpu_frac", "ratio", "lat_us on serve-low"),
    def(
        "serve.worker_vol_ctx_switches",
        "count",
        "lat_us on serve-low",
    ),
    // Self-time accounting of a serve request's latency: the shares its
    // child spans and the unaccounted residual take of the summed total.
    def("span.share.gen_lag", "ratio", GEN),
    def("span.share.serve.refused", "ratio", SERVE_LAT),
    def("span.share.serve.submit", "ratio", SERVE_LAT),
    def("span.share.serve.inflight", "ratio", SERVE_LAT),
    def("span.share.serve.reap", "ratio", SERVE_LAT),
    def("span.share.residual", "ratio", GEN),
    def("span.residual_ns.p50", "ns", GEN),
    // euno-workloads: the benchmark's own open-loop generator.
    def("workloads.gen_ns_per_op", "ns", GEN),
    def("workloads.gen_lag_us.p99", "us", GEN),
    def("workloads.gen_lag_us.max", "us", GEN),
    // euno-core, timed around ConcurrentMap::get / put / scan and preload.
    def("tree.get_ns.p50", "ns", TREE_GROW),
    def("tree.get_ns.p99", "ns", TREE_GROW),
    def("tree.put_ns.p50", "ns", TREE_GROW),
    def("tree.put_ns.p99", "ns", TREE_GROW),
    def("tree.scan_ns.p50", "ns", TREE_GROW),
    def("tree.scan_ns.p99", "ns", TREE_GROW),
    def("tree.op_p99_us", "us", "diagnostic: tree-grow call p99"),
    def("tree.splits", "count", TREE_GROW),
    def("tree.structural_mb", "MB", "peak_rss_mb"),
    def("tree.bytes_per_key", "B", "peak_rss_mb"),
    def("tree.reserved_peak_bytes", "B", "peak_rss_mb"),
    def("tree.preload_ns_per_key", "ns", "setup_s"),
    // euno-htm: the runtime's metric registry and registries.
    def("htm.attempts", "count", SKEW),
    def("htm.commits", "count", SKEW),
    def("htm.commit_ratio", "ratio", SKEW),
    def("htm.middles", "count", SKEW),
    def("htm.fallbacks", "count", SKEW),
    def("htm.backoffs", "count", SKEW),
    def("htm.aborts.conflict", "count", SKEW),
    def("htm.aborts.false_frac", "ratio", SKEW),
    def("htm.aborts.capacity", "count", SKEW),
    def("htm.tl2.lock_fails", "count", TREE_GROW),
    def("htm.tl2.validation_fails", "count", TREE_GROW),
    def("htm.tl2.read_waits", "count", TREE_GROW),
    def("htm.advisory_waits", "count", TREE_GROW),
    def("htm.ccm_flips", "count", SKEW),
    def("htm.registered_objects", "count", RSS),
    def("htm.registered_lines", "count", RSS),
    def("htm.epoch_retired_pending_bytes", "B", RSS),
    // euno-sim: the virtual-time harness.
    def("sim.wall_ns_per_vop", "ns", SIM_WALL),
    def("sim.vlat_cycles.p50", "cycles", SKEW),
    def("sim.vlat_cycles.p99", "cycles", SKEW),
    def("sim.wasted_cycle_frac", "ratio", SKEW),
    def("sim.accesses_per_op", "count", SKEW),
    def("sim.aborts_per_op", "count", SKEW),
    def("sim.fallbacks_per_op", "count", SKEW),
    // The process, from /proc/self.
    def("proc.cpu_s", "s", "lat_us, throughput_kops"),
    def("proc.cpu_util", "ratio", "lat_us on serve-low"),
    def("proc.rss_mb_after_setup", "MB", "peak_rss_mb, setup_s"),
    def("proc.minor_faults", "count", "peak_rss_mb, setup_s"),
    def("proc.vol_ctx_switches", "count", "lat_us on serve-low"),
    def("proc.invol_ctx_switches", "count", "lat_us"),
    // Cost of tracing itself: traced minus untraced lat_us.
    def(
        "trace.overhead_us",
        "us",
        "validity of every per-layer metric",
    ),
    def(
        "trace.overhead_pct",
        "%",
        "validity of every per-layer metric",
    ),
];

/// One run's outcome: counts for the result line and metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations that did not succeed: wrong or lost replies and failed
    /// end-of-run checks.
    pub failed: u64,
    /// One entry per failed output check: any makes the run incorrect
    /// and its exit code non-zero.
    check_failures: Vec<(u64, String)>,
    values: BTreeMap<&'static str, f64>,
    /// Per-window readings of a metric, pooled over round processes
    /// before their median is taken (see `rounds`).
    samples: BTreeMap<&'static str, Vec<f64>>,
}

fn lookup(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"))
        .name
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(lookup(name), value);
    }

    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(lookup(name)).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }

    /// A value, or NaN when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }

    /// Count `n` failed operations found by one output check.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        self.check_failures.push((n, what));
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// A round process's outcome, for its parent (see `rounds`).
    pub fn emit_round(&self) {
        println!("@attempted {}", self.attempted);
        for (n, what) in &self.check_failures {
            println!("@fail {n} {}", what.replace('\n', " "));
        }
        for (name, v) in self.values() {
            println!("@value {name} {v}");
        }
        for (name, vs) in &self.samples {
            for v in vs {
                println!("@sample {name} {v}");
            }
        }
    }

    /// Human-readable lines, then the JSON result as the last line. A
    /// traced run also shows its untraced end-to-end values, so a layer's
    /// numbers can be read next to the result they explain.
    pub fn print(&self, traced: bool) {
        if traced {
            for d in END_TO_END {
                let v = self.get(d.name);
                println!(
                    "{:<34} {:>18} {:<6} (untraced part of this run)",
                    d.name, v, d.unit
                );
            }
        }
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for d in defs {
            let (value, note) = match self.values.get(d.name) {
                Some(&v) if v.is_finite() => (v, ""),
                Some(_) => (0.0, "  (not finite, printed as 0)"),
                None => (0.0, "  (not exercised)"),
            };
            let arrow = if traced { "-> " } else { "" };
            println!(
                "{:<34} {:>18} {:<6} {arrow}{}{note}",
                d.name, value, d.unit, d.moves
            );
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        println!(
            "{:<34} {:>18} {:<6} failed / attempted ({} of {})",
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
        for (_, what) in self.check_failures.iter().take(20) {
            println!("check failed: {what}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Exact nearest-rank quantile; reorders `v`. 0 for an empty slice.
pub fn quantile<T: Copy + Ord + Default>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1
}

/// Median of a few per-round values.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
