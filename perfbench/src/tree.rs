//! `tree-grow`: two client threads call an `EunoBTreeDefault`
//! (read-optimized preset) on a TL2 runtime directly, with no serve
//! layer, while the tree grows.
//!
//! Keys are uniform over a 1M range about a quarter preloaded, so most
//! puts insert absent keys and leaves split throughout the run: the
//! structural path (splits, node and region registration, epoch) and real
//! two-thread TL2 conflicts are measured, plus a small share of scans.
//! Each round builds a fresh tree and runs a fixed op budget (see
//! `rounds` for how rounds repeat).
//!
//! The budget is chosen so a round's peak RSS stays near a gigabyte: the
//! tree itself is tens of MB, and the rest is the growth cost this
//! workload exists to show (registry snapshots republished on aborts and
//! retained until the runtime drops).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::{Rng, SmallRng};
use euno_workloads::{KeyDistribution, OpMix, Preload, WorkloadSpec};

use crate::report::{quantile, Report};
use crate::spans::SpanFile;
use crate::{layers, meter, Args};

const KEY_RANGE: u64 = 1_000_000;
const PRELOAD_PER_MILLE: u32 = 250;
const THREADS: u64 = 2;
/// Calls per round, over both threads.
const OPS: u64 = 1_000_000;
const GET: f64 = 0.45;
const PUT: f64 = 0.50;
// The remaining 5% are scans of SCAN_LEN records.
const SCAN_LEN: usize = 16;
/// Window length for the per-window samples of put latency.
const WINDOW_NS: u64 = 100_000_000;
/// In the traced round, every 16th call is written out as a span.
const SPAN_EVERY: usize = 16;
/// "No value" in reply and shadow arrays; never a stored value.
const NONE: u64 = u64::MAX;

#[derive(Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64, u64),
    Scan(u64),
}

/// Client thread `t` owns the keys congruent to `t` modulo `THREADS`, so
/// it alone writes them and can predict every reply about them.
fn inputs(seed: u64, round: u64, t: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (t + 1).wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    (0..OPS / THREADS)
        .map(|i| {
            let key = THREADS * rng.gen_range(0..KEY_RANGE / THREADS) + t;
            let r: f64 = rng.gen();
            if r < GET {
                Op::Get(key)
            } else if r < GET + PUT {
                Op::Put(key, (t + 1) << 40 | i)
            } else {
                Op::Scan(key)
            }
        })
        .collect()
}

/// What one client thread saw: per-call replies and times.
struct Calls {
    ops: Vec<Op>,
    replies: Vec<u64>,
    scans: Vec<(u64, u64)>,
    /// End offset in `scans` of each scan call, in call order.
    scan_ends: Vec<usize>,
    dur_ns: Vec<u64>,
    start_ns: Vec<u64>,
    begin_ns: u64,
    end_ns: u64,
}

fn client(
    tree: &EunoBTreeDefault,
    rt: &Arc<Runtime>,
    ops: Vec<Op>,
    t: u64,
    barrier: &Barrier,
    origin: Instant,
) -> Calls {
    let n = ops.len();
    let mut c = Calls {
        ops: Vec::new(),
        replies: Vec::with_capacity(n),
        scans: Vec::with_capacity(n / 10 * SCAN_LEN),
        scan_ends: Vec::with_capacity(n / 10),
        dur_ns: Vec::with_capacity(n),
        start_ns: Vec::with_capacity(n),
        begin_ns: 0,
        end_ns: 0,
    };
    let mut ctx = rt.thread(0xC11E + t);
    let ns = || origin.elapsed().as_nanos() as u64;
    barrier.wait();
    c.begin_ns = ns();
    for &op in &ops {
        let a = ns();
        let reply = match op {
            Op::Get(k) => tree.get(&mut ctx, k).unwrap_or(NONE),
            Op::Put(k, v) => tree.put(&mut ctx, k, v).unwrap_or(NONE),
            Op::Scan(k) => tree.scan(&mut ctx, k, SCAN_LEN, &mut c.scans) as u64,
        };
        let b = ns();
        c.dur_ns.push(b - a);
        c.start_ns.push(a);
        c.replies.push(reply);
        if let Op::Scan(_) = op {
            c.scan_ends.push(c.scans.len());
        }
    }
    c.end_ns = ns();
    c.ops = ops;
    meter::retire_thread();
    c
}

/// Replays one thread's calls against its shadow; returns the number of
/// wrong replies and the first one.
fn check_thread(c: &Calls, shadow: &mut [u64], t: u64) -> (u64, Option<String>) {
    let mut wrong = 0;
    let mut first = None;
    let mut bad = |what: String| {
        wrong += 1;
        first.get_or_insert(what);
    };
    let own = |k: u64| k % THREADS == t;
    let mut scan_at = 0;
    let mut scan_no = 0;
    for (&op, &reply) in c.ops.iter().zip(&c.replies) {
        match op {
            Op::Get(k) | Op::Put(k, _) => {
                let slot = &mut shadow[(k / THREADS) as usize];
                if reply != *slot {
                    bad(format!("key {k}: reply {reply:#x}, shadow {:#x}", *slot));
                }
                if let Op::Put(_, v) = op {
                    *slot = v;
                }
            }
            Op::Scan(from) => {
                let end = c.scan_ends[scan_no];
                let recs = &c.scans[scan_at..end];
                (scan_at, scan_no) = (end, scan_no + 1);
                let ordered = recs.windows(2).all(|w| w[0].0 < w[1].0);
                if reply as usize != recs.len()
                    || recs.len() > SCAN_LEN
                    || !ordered
                    || recs.first().is_some_and(|r| r.0 < from)
                {
                    bad(format!("scan from {from}: malformed result {recs:?}"));
                    continue;
                }
                // Every own key the scan covered must be there with the
                // value this thread last wrote, and nothing else of ours.
                let hi = match recs.last() {
                    Some(&(k, _)) if recs.len() == SCAN_LEN => k,
                    _ => KEY_RANGE - 1,
                };
                let mut seen = recs.iter().filter(|r| own(r.0));
                let first_own = from + (t + THREADS - from % THREADS) % THREADS;
                for k in (first_own..=hi).step_by(THREADS as usize) {
                    let want = shadow[(k / THREADS) as usize];
                    if want == NONE {
                        continue;
                    }
                    if seen.next() != Some(&(k, want)) {
                        bad(format!("scan from {from}: key {k} value {want:#x} missing"));
                        break;
                    }
                }
                if seen.next().is_some() {
                    bad(format!("scan from {from}: own key absent from the shadow"));
                }
            }
        }
    }
    (wrong, first)
}

/// One round in this process: a fresh tree, preload, the op budget on
/// two client threads, then the output checks. Sets the round's
/// end-to-end values, and with `traced` its per-layer values.
pub fn round(args: &Args, r: u64, traced: bool, rep: &mut Report) {
    let spec = WorkloadSpec {
        key_range: KEY_RANGE,
        dist: KeyDistribution::Uniform,
        mix: OpMix {
            get: GET,
            put: PUT,
            delete: 0.0,
            scan: 1.0 - GET - PUT,
        },
        scan_len: SCAN_LEN,
        preload: Preload::FractionPerMille(PRELOAD_PER_MILLE),
        policy: Default::default(),
    };
    let t0 = Instant::now();
    let rt = Runtime::new_concurrent();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::read_optimized());
    let t1 = Instant::now();
    let preloaded = euno_sim::preload(&tree, &rt, &spec);
    let setup_s = t0.elapsed().as_secs_f64();
    let preload_s = t1.elapsed().as_secs_f64();
    let rss_after_setup = meter::rss_mb();

    // Untimed: the preloaded keys are exactly the spec's, and they seed
    // the shadows.
    let mut ctx = rt.thread(0xC4EC);
    let mut all = Vec::new();
    tree.scan(&mut ctx, 0, KEY_RANGE as usize + 1, &mut all);
    if !all.iter().map(|r| r.0).eq(spec.preload_keys()) {
        rep.fail(
            1,
            format!("preload: {} keys differ from the spec's", all.len()),
        );
    }
    let mut shadows = vec![vec![NONE; (KEY_RANGE / THREADS) as usize]; THREADS as usize];
    for &(k, v) in &all {
        shadows[(k % THREADS) as usize][(k / THREADS) as usize] = v;
    }
    let ops: Vec<Vec<Op>> = (0..THREADS).map(|t| inputs(args.seed, r, t)).collect();
    let leaves_before = tree.leaf_count_plain();
    let before = layers::totals(&[&rt]);

    let barrier = Barrier::new(THREADS as usize);
    let origin = Instant::now();
    let calls: Vec<Calls> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .into_iter()
            .enumerate()
            .map(|(t, ops)| {
                let (tree, rt, barrier) = (&tree, &rt, &barrier);
                s.spawn(move || client(tree, rt, ops, t as u64, barrier, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let begin = calls.iter().map(|c| c.begin_ns).min().unwrap_or(0);
    let end = calls.iter().map(|c| c.end_ns).max().unwrap_or(0);
    rep.attempted += OPS;
    rep.set("setup_s", setup_s);
    rep.set(
        "throughput_kops",
        OPS as f64 / ((end - begin) as f64 / 1e9) / 1e3,
    );
    windows(rep, &calls);

    // Untimed output checks.
    for (t, c) in calls.iter().enumerate() {
        let (wrong, first) = check_thread(c, &mut shadows[t], t as u64);
        if wrong > 0 {
            rep.fail(
                wrong,
                format!("thread {t}: {wrong} wrong replies, first: {first:?}"),
            );
        }
    }
    all.clear();
    tree.scan(&mut ctx, 0, KEY_RANGE as usize + 1, &mut all);
    let want = (0..KEY_RANGE).filter_map(|k| {
        let v = shadows[(k % THREADS) as usize][(k / THREADS) as usize];
        (v != NONE).then_some((k, v))
    });
    if !all.iter().copied().eq(want) {
        rep.fail(
            1,
            format!(
                "final scan of {} records differs from the shadows",
                all.len()
            ),
        );
    }
    let violations = tree.audit_quiescent();
    if !violations.is_empty() {
        rep.fail(1, format!("audit: {violations:?}"));
    }
    rep.set("peak_rss_mb", meter::peak_rss_mb());
    if !traced {
        return;
    }

    layers::htm(rep, &[&rt], &before, &layers::totals(&[&rt]));
    let mem = tree.memory();
    println!(
        "growth: this round peaked at {:.0} MB RSS for a {:.1} MB tree with {} registered objects",
        meter::peak_rss_mb(),
        mem.structural_bytes as f64 / (1 << 20) as f64,
        rt.registered_objects()
    );
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
        (mem.structural_bytes + mem.ccm_bytes) as f64 / all.len().max(1) as f64,
    );
    rep.set("tree.reserved_peak_bytes", mem.reserved_peak_bytes as f64);
    rep.set(
        "tree.preload_ns_per_key",
        preload_s * 1e9 / preloaded as f64,
    );
    let mut all_dur: Vec<u64> = calls
        .iter()
        .flat_map(|c| c.dur_ns.iter().copied())
        .collect();
    rep.set("tree.op_p99_us", quantile(&mut all_dur, 0.99) as f64 / 1e3);
    let mut by_kind: [Vec<u64>; 3] = Default::default();
    for c in &calls {
        for (&op, &d) in c.ops.iter().zip(&c.dur_ns) {
            by_kind[kind(op)].push(d);
        }
    }
    for (v, name) in by_kind
        .iter_mut()
        .zip(["tree.get_ns", "tree.put_ns", "tree.scan_ns"])
    {
        rep.set(&format!("{name}.p50"), quantile(v, 0.5) as f64);
        rep.set(&format!("{name}.p99"), quantile(v, 0.99) as f64);
    }
    layers::process(rep, meter::process_age_s(), rss_after_setup);
    if let Err(e) = write_spans(&calls) {
        println!("spans not written: {e}");
    }
}

/// Per-window samples of the p50 of put calls (the growth path; the p50
/// of all calls falls in the gap between the get and put modes, where a
/// small shift of the mix moves it a lot). Only whole windows in which
/// every client thread was running count. Throughput is the round's
/// budget over its wall time instead: the rate falls about fourfold
/// within a round as the tree and its retained registry snapshots grow,
/// so a window median would pick a point on a steep curve.
fn windows(rep: &mut Report, calls: &[Calls]) {
    let begin = calls.iter().map(|c| c.begin_ns).max().unwrap_or(0);
    let end = calls.iter().map(|c| c.end_ns).min().unwrap_or(0);
    let n = (end.saturating_sub(begin) / WINDOW_NS) as usize;
    let mut puts: Vec<Vec<u64>> = vec![Vec::new(); n];
    for c in calls {
        for ((&op, &a), &d) in c.ops.iter().zip(&c.start_ns).zip(&c.dur_ns) {
            let Some(w) = (a + d).checked_sub(begin).map(|t| (t / WINDOW_NS) as usize) else {
                continue;
            };
            if w < n && matches!(op, Op::Put(..)) {
                puts[w].push(d);
            }
        }
    }
    for puts in &mut puts {
        rep.sample("lat_us", quantile(puts, 0.5) as f64 / 1e3);
    }
}

fn kind(op: Op) -> usize {
    match op {
        Op::Get(_) => 0,
        Op::Put(..) => 1,
        Op::Scan(_) => 2,
    }
}

fn write_spans(calls: &[Calls]) -> std::io::Result<()> {
    let mut f = SpanFile::create("tree-grow")?;
    for (t, c) in calls.iter().enumerate() {
        for i in (0..c.ops.len()).step_by(SPAN_EVERY) {
            let name = ["tree.get", "tree.put", "tree.scan"][kind(c.ops[i])];
            let start = c.start_ns[i];
            f.span(
                (t as u64) << 32 | i as u64,
                name,
                "",
                start,
                start + c.dur_ns[i],
            )?;
        }
    }
    f.finish(&format!("every {SPAN_EVERY}th call of the traced round"))
}
