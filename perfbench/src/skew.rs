//! `paper-skew`: the paper's §5.1 contention workload in virtual time.
//!
//! Zipf(0.99) 50/50 get/put over Euno-B+Tree under the default (DBX)
//! retry strategy, 16 logical threads on one OS thread, through
//! `euno_sim::preload` and `euno_sim::run_virtual`, as Figure 8's
//! θ = 0.99 cell is produced. Every conflict, abort, CCM and fallback
//! layer is busy. The virtual throughput is exact for a seed; the wall
//! time is what reproducing one figure cell costs.
//!
//! The key range is 400k rather than Figure 8's 1M: preload cost grows
//! superlinearly with key count and with the heap layout (6.7 s at 1M,
//! 1.5 s at 400k on a 2-vCPU host), while the θ = 0.99 hot set, and with
//! it the virtual throughput, barely moves (22.96 vs 22.91 M ops per
//! virtual second). Each round has a fresh tree and its own seed (see
//! `rounds` for how rounds repeat).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use euno_core::EunoBTreeDefault;
use euno_htm::{ConcurrentMap, MemoryReport, Runtime, ThreadCtx, TOMBSTONE};
use euno_sim::{preload, run_virtual, strategy_for, RunConfig};
use euno_workloads::{Op, OpStream, PolicyChoice, WorkloadSpec};

use crate::report::{quantile, Report};
use crate::spans::SpanFile;
use crate::{layers, meter, Args};

const KEY_RANGE: u64 = 400_000;
const THREADS: usize = 16;
const OPS_PER_THREAD: u64 = 20_000;
const WARMUP_OPS: u64 = 4_000;
/// In the traced round, every 64th call is written out as a span.
const SPAN_EVERY: usize = 64;

fn spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default(0.99).with_policy(PolicyChoice::Dbx);
    spec.key_range = KEY_RANGE;
    spec
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        threads: THREADS,
        ops_per_thread: OPS_PER_THREAD,
        seed,
        warmup_ops: WARMUP_OPS,
        ..RunConfig::default()
    }
}

/// In the traced round, times each call the simulator makes into the
/// tree (wall clock: the simulation's own cost, not virtual time).
struct Timed<'a> {
    inner: &'a EunoBTreeDefault,
    origin: Instant,
    traced: bool,
    /// The virtual scheduler runs every logical thread on one OS thread,
    /// so the lock is never contended.
    /// `(kind, start_ns, dur_ns)`, kind 0 get, 1 put, 2 scan.
    spans: Mutex<Vec<(u8, u64, u64)>>,
}

impl Timed<'_> {
    fn time<R>(&self, kind: u8, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let a = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let b = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        spans.push((kind, a, b - a));
        r
    }
}

impl ConcurrentMap for Timed<'_> {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.time(0, || self.inner.get(ctx, key))
    }
    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        self.time(1, || self.inner.put(ctx, key, value))
    }
    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.inner.delete(ctx, key)
    }
    fn scan(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        self.time(2, || self.inner.scan(ctx, from, count, out))
    }
    fn maintain(&self, ctx: &mut ThreadCtx) -> u64 {
        ConcurrentMap::maintain(self.inner, ctx)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn memory(&self) -> MemoryReport {
        self.inner.memory()
    }
}

/// The final map must hold exactly the preloaded keys plus every key a
/// put wrote; a key's value is its preload value if nothing wrote it,
/// else the last value some thread wrote to it (the linearization's last
/// write is some thread's last write).
fn check_contents(tree: &EunoBTreeDefault, spec: &WorkloadSpec, cfg: &RunConfig) -> Option<String> {
    let n = spec.key_range as usize;
    let mut preloaded = vec![false; n];
    for k in spec.preload_keys() {
        preloaded[k as usize] = true;
    }
    // Per key, the last value each thread wrote to it.
    let mut last: Vec<Vec<u64>> = vec![Vec::new(); n];
    for t in 0..cfg.threads {
        let mut stream = OpStream::new(spec, t as u64, cfg.seed);
        let mut mine = std::collections::HashMap::new();
        for _ in 0..cfg.warmup_ops + cfg.ops_per_thread {
            match stream.next_op() {
                Op::Put { key, value } => {
                    mine.insert(key, value);
                }
                Op::Get { .. } => {}
                op => return Some(format!("unexpected op {op:?} in a get/put mix")),
            }
        }
        for (k, v) in mine {
            last[k as usize].push(v);
        }
    }
    let got = tree.collect_all_plain();
    let mut got_it = got.iter().peekable();
    for k in 0..n as u64 {
        let writes = &last[k as usize];
        let present = preloaded[k as usize] || !writes.is_empty();
        match got_it.peek() {
            Some(&&(gk, gv)) if gk == k => {
                got_it.next();
                let ok = if writes.is_empty() {
                    present && gv == k ^ 0xabcd
                } else {
                    writes.contains(&gv)
                };
                if !ok || gv == TOMBSTONE {
                    return Some(format!("key {k}: value {gv:#x} was never written"));
                }
            }
            _ if present => return Some(format!("key {k} is missing")),
            _ => {}
        }
    }
    got_it.next().map(|r| format!("unexpected record {r:?}"))
}

/// One round in this process: a fresh tree, preload, `run_virtual`,
/// then the output checks. Sets the round's end-to-end values, and with
/// `traced` its per-layer values.
pub fn round(args: &Args, r: u64, traced: bool, rep: &mut Report) {
    let spec = spec();
    let cfg = config(args.seed.wrapping_add(r.wrapping_mul(0x9e37_79b9)));
    let t0 = Instant::now();
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_strategy(Arc::clone(&rt), strategy_for(spec.policy));
    let t1 = Instant::now();
    let preloaded = preload(&tree, &rt, &spec);
    rt.reset_dynamics();
    let setup_s = t0.elapsed().as_secs_f64();
    let preload_s = t1.elapsed().as_secs_f64();
    let rss_after_setup = meter::rss_mb();

    let leaves_before = tree.leaf_count_plain();
    let before = layers::totals(&[&rt]);
    let timed = Timed {
        inner: &tree,
        origin: Instant::now(),
        traced,
        spans: Mutex::default(),
    };
    let m = run_virtual(&timed, &rt, &spec, &cfg);
    let sim_wall_s = timed.origin.elapsed().as_secs_f64();
    let vops = (THREADS as u64) * (OPS_PER_THREAD + WARMUP_OPS);
    let wall_ns_per_vop = sim_wall_s * 1e9 / vops as f64;
    rep.attempted += vops;
    rep.set("setup_s", setup_s);
    rep.set("throughput_kops", m.throughput / 1e3);
    // lat_us is the mean virtual latency of an op, at the cost model's
    // clock rate. The wall time per simulated op is only a diagnostic: on
    // a 2-vCPU shared host no bound of at most 25% held it. Taken as the
    // median of 100 ms windows, its interquartile range over ten runs was
    // 24% of the median; as their 10th percentile, the medians of two
    // ten-run sets of the same code read 5.15 and 3.77 us.
    rep.set("lat_us", m.latency.mean() / rt.cost.freq_hz * 1e6);
    rep.set("sim.wall_ns_per_vop", wall_ns_per_vop);
    println!("paper-skew round {r}: {wall_ns_per_vop:.0} ns wall per simulated op (diagnostic)");

    let violations = tree.audit_quiescent();
    if !violations.is_empty() {
        rep.fail(1, format!("audit: {violations:?}"));
    }
    if let Some(e) = check_contents(&tree, &spec, &cfg) {
        rep.fail(1, format!("final contents: {e}"));
    }
    rep.set("peak_rss_mb", meter::peak_rss_mb());
    if !traced {
        return;
    }

    layers::htm(rep, &[&rt], &before, &layers::totals(&[&rt]));
    let mem = tree.memory();
    rep.set(
        "tree.splits",
        (tree.leaf_count_plain() - leaves_before) as f64,
    );
    rep.set(
        "tree.structural_mb",
        mem.structural_bytes as f64 / (1 << 20) as f64,
    );
    rep.set(
        "tree.bytes_per_key",
        (mem.structural_bytes + mem.ccm_bytes) as f64 / tree.stats().live_records.max(1) as f64,
    );
    rep.set("tree.reserved_peak_bytes", mem.reserved_peak_bytes as f64);
    rep.set(
        "tree.preload_ns_per_key",
        preload_s * 1e9 / preloaded as f64,
    );
    let calls = timed.spans.into_inner().expect("span log lock poisoned");
    let mut by_kind: [Vec<u64>; 3] = Default::default();
    for &(kind, _, d) in &calls {
        by_kind[kind as usize].push(d);
    }
    for (v, name) in by_kind
        .iter_mut()
        .zip(["tree.get_ns", "tree.put_ns", "tree.scan_ns"])
    {
        if !v.is_empty() {
            rep.set(&format!("{name}.p50"), quantile(v, 0.5) as f64);
            rep.set(&format!("{name}.p99"), quantile(v, 0.99) as f64);
        }
    }
    rep.set("sim.vlat_cycles.p50", m.latency.quantile(0.5) as f64);
    rep.set("sim.vlat_cycles.p99", m.latency.quantile(0.99) as f64);
    rep.set("sim.wasted_cycle_frac", m.wasted_cycle_fraction);
    rep.set("sim.accesses_per_op", m.accesses_per_op);
    rep.set("sim.aborts_per_op", m.aborts_per_op);
    rep.set("sim.fallbacks_per_op", m.fallbacks_per_op);
    layers::process(rep, meter::process_age_s(), rss_after_setup);
    if let Err(e) = write_spans(&calls) {
        println!("spans not written: {e}");
    }
}

fn write_spans(calls: &[(u8, u64, u64)]) -> std::io::Result<()> {
    let mut f = SpanFile::create("paper-skew")?;
    for (i, &(kind, start, dur)) in calls.iter().enumerate().step_by(SPAN_EVERY) {
        let name = ["tree.get", "tree.put", "tree.scan"][kind as usize];
        f.span(i as u64, name, "", start, start + dur)?;
    }
    f.finish(&format!("every {SPAN_EVERY}th call of the traced round"))
}
