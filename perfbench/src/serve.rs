//! `serve-low`, `serve-high`: an open-loop client of
//! `EunoServer` at one fixed offered rate each.
//!
//! One shard with the default configuration (batching on), 500k keys all
//! preloaded, so every put is an update and no leaf splits: the serve
//! layers (admission, slot pool, queue, worker idle and wake, group
//! commit) are measured with almost no structural tree work. Requests are
//! a scrambled Zipf(0.99) 50/50 get/put mix, sent on a seeded Poisson
//! schedule by one generator thread; with the shard worker that makes the
//! two busy threads the host has.
//!
//! Generator discipline: the rates are fixed, never derived from a
//! calibration run; finished tickets are reaped on every loop iteration,
//! ahead of schedule or behind, so a host stall does not turn into slot
//! pool exhaustion; latency runs from the request's intended instant to
//! the reply the generator observes; the generator samples queue depth
//! itself rather than starting a sampler thread.

use std::collections::VecDeque;
use std::time::Instant;

use euno_rng::{Rng, SmallRng};
use euno_serve::{EunoServer, Reply, Request, ServeConfig, Ticket};
use euno_workloads::{KeyDistribution, KeySampler, PoissonArrivals};

use crate::report::{median, quantile, Report};
use crate::spans::SpanFile;
use crate::{layers, meter, Args};

pub const KEYS: u64 = 500_000;
/// Round processes per run; each measures `1 / PARTS` of the run's seconds.
pub const PARTS: u64 = 3;
/// Unmeasured traffic at the rung's rate before measuring, so the worker,
/// the slot pool and the caches are warm.
const WARMUP_S: f64 = 1.0;
/// The service level a rung must meet to count as sustained. 200 us is
/// about 15x the slowest healthy p50 seen on a 2-vCPU host (14 us, at the
/// low rung) and far below the milliseconds a growing backlog adds: one
/// full 1024-slot queue is already about 3 ms of work. The limit is on
/// p50 because p99 moved between 1.3 and 52 ms across identical runs on
/// that host (scheduler stalls).
const P50_LIMIT_US: f64 = 200.0;
/// In a traced pass, every 16th request records its child spans.
const SPAN_EVERY: u64 = 16;
/// In a traced pass, the generator samples queue depth this often.
const DEPTH_EVERY_NS: u64 = 20_000;
/// `lat_us` is the median of per-window p50s over windows this long,
/// pooled over the rounds, so a few seconds of host slowness move it
/// less than a pooled p50.
const WINDOW_NS: u64 = 1_000_000_000;
/// How long the generator waits for replies after its schedule ends.
const DRAIN_LIMIT_NS: u64 = 10_000_000_000;

pub struct Rung {
    pub name: &'static str,
    pub rate: f64,
}

/// 20k is well below the knee: the worker idles between requests and its
/// park and wake cost shows in p50. 150k keeps the worker mostly busy,
/// batching on every drain. A 100k rung between them moved most with the
/// host (its median latency rose 27% between two ten-run sets of the same
/// code) and was dropped so the other workloads could run longer. One
/// shard's capacity on a 2-vCPU host swings with the host's load: 350k
/// held at one time, and 200k had the server refuse requests and 250k
/// build backlogs of seconds at another. Rates above 150k would measure
/// the neighbours more than the server.
pub const RUNGS: [Rung; 2] = [
    Rung {
        name: "serve-low",
        rate: 20_000.0,
    },
    Rung {
        name: "serve-high",
        rate: 150_000.0,
    },
];

fn preload_value(key: u64) -> u64 {
    key | 1 << 40
}

/// Put values are unique per request, above every preload value.
const PUT_BASE: u64 = 1 << 48;

struct Next {
    intended: u64,
    /// When the generator first tried to submit it.
    first_try: Option<u64>,
    req: Request,
    key: usize,
    put: Option<u64>,
    /// The reply the shadow predicts, given every request admitted so far.
    expected: Option<u64>,
}

/// The generator's state across passes: one request stream, and a shadow
/// of the map. With one generator and one shard whose batches are sorted
/// stably by key, per-key submission order is apply order, so the shadow
/// predicts every reply exactly; a refused request reaches it only once
/// a retry is admitted.
struct Client<'a> {
    srv: &'a EunoServer,
    sampler: KeySampler,
    rng: SmallRng,
    shadow: Vec<u64>,
    puts: u64,
}

impl Client<'_> {
    fn prepare(&mut self, intended: u64) -> Next {
        let key = self.sampler.sample(&mut self.rng);
        let expected = Some(self.shadow[key as usize]);
        let (req, put) = if self.rng.gen_bool(0.5) {
            (Request::Get { key }, None)
        } else {
            self.puts += 1;
            let value = PUT_BASE + self.puts;
            (Request::Put { key, value }, Some(value))
        };
        Next {
            intended,
            first_try: None,
            req,
            key: key as usize,
            put,
            expected,
        }
    }
}

/// Clock stamps of one sampled request, in ns since the pass began.
#[derive(Clone, Copy, Default)]
struct ReqSpan {
    id: u64,
    intended: u64,
    /// First submit attempt; later attempts follow refusals.
    first_try: u64,
    /// Start of the admitted attempt.
    submit0: u64,
    submit1: u64,
    poll: u64,
    wait0: u64,
    reply: u64,
}

struct Pending<'s> {
    ticket: Ticket<'s>,
    intended: u64,
    expected: Option<u64>,
    span: Option<usize>,
}

#[derive(Default)]
struct Pass {
    attempted: u64,
    shed: u64,
    wrong: u64,
    lost: u64,
    completed: u64,
    first_wrong: Option<String>,
    /// Latencies in ns, by the window of their intended instant.
    lat_ns: Vec<Vec<u32>>,
    spans: Vec<ReqSpan>,
    gen_lag_ns: Vec<u64>,
    prep_ns: Vec<u64>,
    depth: Vec<u64>,
}

/// Offer `rate` requests/s for `seconds` and collect every reply.
fn drive(c: &mut Client<'_>, rate: f64, seconds: f64, seed: u64, traced: bool) -> Pass {
    let mut arrivals = PoissonArrivals::new(rate, seed);
    let end_ns = (seconds * 1e9) as u64;
    let mut p = Pass {
        lat_ns: (0..(seconds * 1e9 / WINDOW_NS as f64).ceil() as usize)
            .map(|_| Vec::with_capacity((rate * 1.05 * WINDOW_NS as f64 / 1e9) as usize))
            .collect(),
        ..Pass::default()
    };
    let mut inflight: VecDeque<Pending<'_>> = VecDeque::with_capacity(1024);
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let mut next = c.prepare(arrivals.next_arrival_ns());
    let mut issuing = true;
    // Set by a refusal, cleared by the next reply: a refused request waits
    // for a slot to come back instead of retrying in a tight loop, whose
    // stream of failed admissions slows the worker that frees the slots.
    let mut refused = false;
    let mut next_depth = 0;
    let srv = c.srv;
    loop {
        // Reap on every iteration, ahead of schedule or behind. Replies
        // come back in submission order (one FIFO queue; a batch
        // completes as a whole), so polling stops at the first pending
        // ticket: polling every outstanding ticket would keep pulling
        // slot cache lines away from the worker that completes them, and
        // once a stall builds a backlog that slows the worker enough to
        // keep the backlog.
        while let Some(front) = inflight.front() {
            if !front.ticket.poll() {
                break;
            }
            let poll = if front.span.is_some() { ns() } else { 0 };
            let done = inflight.pop_front().expect("front exists");
            let wait0 = if done.span.is_some() { ns() } else { 0 };
            let reply = done.ticket.wait();
            let at = ns();
            let lat = u32::try_from(at - done.intended).unwrap_or(u32::MAX);
            p.lat_ns[(done.intended / WINDOW_NS) as usize].push(lat);
            p.completed += 1;
            refused = false;
            if let Some(s) = done.span {
                let s = &mut p.spans[s];
                (s.poll, s.wait0, s.reply) = (poll, wait0, at);
            }
            if reply != Reply::Value(done.expected) {
                p.wrong += 1;
                p.first_wrong.get_or_insert_with(|| {
                    format!("reply {reply:?}, shadow predicts {:?}", done.expected)
                });
            }
        }
        let now = ns();
        // At most one request per iteration, so a generator running late
        // still reaps between the requests it catches up on.
        if issuing && !refused && next.intended <= now {
            let id = p.attempted;
            let sampled = traced && id.is_multiple_of(SPAN_EVERY);
            let first_try = *next.first_try.get_or_insert_with(|| {
                let at = if traced { ns() } else { now };
                if traced {
                    p.gen_lag_ns.push(at - next.intended);
                }
                at
            });
            let submit0 = if sampled { ns() } else { 0 };
            match srv.submit(next.req) {
                // A refused request is retried once a reply has come
                // back, as the API asks; the wait counts toward its latency.
                Err(_) => {
                    p.shed += 1;
                    refused = true;
                }
                Ok(ticket) => {
                    let submit1 = if sampled { ns() } else { 0 };
                    p.attempted += 1;
                    if let Some(v) = next.put {
                        c.shadow[next.key] = v;
                    }
                    let span = sampled.then(|| {
                        p.spans.push(ReqSpan {
                            id,
                            intended: next.intended,
                            first_try,
                            submit0,
                            submit1,
                            ..ReqSpan::default()
                        });
                        p.spans.len() - 1
                    });
                    inflight.push_back(Pending {
                        ticket,
                        intended: next.intended,
                        expected: next.expected,
                        span,
                    });
                    let prep0 = if sampled { ns() } else { 0 };
                    let at = arrivals.next_arrival_ns();
                    if at < end_ns {
                        next = c.prepare(at);
                    } else {
                        issuing = false;
                    }
                    if sampled {
                        p.prep_ns.push(ns() - prep0);
                    }
                }
            }
        }
        if traced && now >= next_depth {
            p.depth.push(srv.queue_depth() as u64);
            next_depth = now + DEPTH_EVERY_NS;
        }
        if !issuing && (inflight.is_empty() || now > end_ns + DRAIN_LIMIT_NS) {
            break;
        }
        std::hint::spin_loop();
    }
    // Tickets still out after the drain limit are lost replies. Dropping
    // them leaves their slots to the server's shutdown.
    p.lost = inflight.len() as u64;
    p.spans.retain(|s| s.reply != 0);
    p
}

/// Wrong and lost replies fail the run. Refusals are retried, so they
/// cost latency, not requests; they are reported as `serve.shed`.
fn account(rep: &mut Report, p: &Pass, what: &str) {
    rep.attempted += p.attempted;
    if p.wrong > 0 {
        rep.fail(
            p.wrong,
            format!(
                "{what}: {} wrong replies, first: {}",
                p.wrong,
                p.first_wrong.as_deref().unwrap_or("")
            ),
        );
    }
    if p.lost > 0 {
        rep.fail(p.lost, format!("{what}: {} replies never arrived", p.lost));
    }
}

/// Build the server and preload it; returns the set-up and preload
/// times in seconds.
fn set_up() -> (EunoServer, f64, f64) {
    let t0 = Instant::now();
    let srv = EunoServer::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let t1 = Instant::now();
    srv.preload_dense(KEYS, preload_value);
    (srv, t0.elapsed().as_secs_f64(), t1.elapsed().as_secs_f64())
}

/// One round, run in a child process (see `rounds`): a server of its own
/// is set up, warmed up, driven for its share of the run's seconds, and
/// checked. The run's seconds are split over `PARTS` rounds, so the
/// measured requests come from as many processes: one process's speed
/// on a shared host is partly its own (where its pages landed), and a
/// single process carried that into the whole run.
pub fn round(args: &Args, r: u64, traced: bool, rep: &mut Report) {
    let rung = RUNGS
        .iter()
        .find(|g| g.name == args.workload)
        .expect("parse admits only known workloads");
    let seed = args.seed.wrapping_add(r.wrapping_mul(0x9e37_79b9));
    let seconds = args.seconds / PARTS as f64;
    let (srv, setup_s, preload_s) = set_up();
    let rss_after_setup = meter::rss_mb();
    let mut client = Client {
        srv: &srv,
        sampler: KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.99,
                scramble: true,
            },
            KEYS,
        ),
        rng: SmallRng::seed_from_u64(seed),
        shadow: (0..KEYS).map(preload_value).collect(),
        puts: 0,
    };
    let worker = meter::find_task("euno-serve-0");

    let warm = drive(&mut client, rung.rate, WARMUP_S, seed ^ 0x3a3a, false);
    account(rep, &warm, "warm-up");
    let rts: Vec<_> = srv.shard_runtimes().collect();
    srv.reset_stats();
    let before = layers::totals(&rts);
    let w0 = worker.map(meter::task_sample);
    let t0 = Instant::now();
    let mut pass = drive(&mut client, rung.rate, seconds, seed, traced);
    let wall = t0.elapsed().as_secs_f64();
    let w1 = worker.map(meter::task_sample);
    let what = if traced {
        "traced pass"
    } else {
        "measured pass"
    };
    account(rep, &pass, what);
    let p50s = window_p50s_us(&mut pass);
    let p50_us = median(&p50s);
    let achieved = pass.completed as f64 / seconds;
    println!(
        "rung {} round {r}: offered {:.0}/s, achieved {:.0}/s, shed {}, p50 {:.2} us, sustained: {}",
        rung.name,
        rung.rate,
        achieved,
        pass.shed,
        p50_us,
        achieved >= 0.97 * rung.rate
            && pass.shed as f64 <= 0.001 * pass.attempted as f64
            && p50_us <= P50_LIMIT_US
    );
    for &p in &p50s {
        rep.sample("lat_us", p);
    }

    if traced {
        let snap = srv.snapshot();
        layers::htm(rep, &rts, &before, &layers::totals(&rts));
        traced_metrics(rep, &mut pass, args);
        rep.set("serve.shed", snap.shed as f64);
        rep.set("serve.mean_batch", snap.batch_hist.mean());
        rep.set("serve.batch_bails", snap.batch_bails as f64);
        rep.set("serve.batch_shrinks", snap.batch_shrinks as f64);
        if let (Some(a), Some(b)) = (w0, w1) {
            rep.set("serve.worker_cpu_frac", (b.cpu_s - a.cpu_s) / wall);
            rep.set(
                "serve.worker_vol_ctx_switches",
                (b.vol_ctx_switches - a.vol_ctx_switches) as f64,
            );
        }
        rep.set("tree.preload_ns_per_key", preload_s * 1e9 / KEYS as f64);
        layers::process(rep, meter::process_age_s(), rss_after_setup);
    }

    // End check, outside every timed region: the whole map, read back
    // through the server, equals the shadow.
    let mut all = Vec::new();
    srv.scan(0, KEYS as usize + 1, &mut all);
    let want = client
        .shadow
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as u64, v));
    if all.len() != KEYS as usize || !all.iter().copied().eq(want) {
        let bad = all
            .iter()
            .enumerate()
            .find(|&(i, &(k, v))| k != i as u64 || v != client.shadow[i]);
        rep.fail(
            1,
            format!(
                "final scan: {} records for {} keys, first mismatch {bad:?}",
                all.len(),
                KEYS
            ),
        );
    }
    drop(client);
    srv.shutdown();

    rep.set("setup_s", setup_s);
    rep.set("throughput_kops", achieved / 1e3);
    rep.set("lat_us", p50_us);
    rep.set("peak_rss_mb", meter::peak_rss_mb());
}

/// Each window's p50 latency, in us.
fn window_p50s_us(p: &mut Pass) -> Vec<f64> {
    p.lat_ns
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.5) as f64 / 1e3)
        .collect()
}

/// Span statistics of a traced pass: child-span quantiles, the shares of
/// the summed request latency each child covers, and the residual no
/// child covers. The spans are written out afterwards.
fn traced_metrics(rep: &mut Report, p: &mut Pass, args: &Args) {
    let col = |f: &dyn Fn(&ReqSpan) -> u64| -> Vec<u64> { p.spans.iter().map(f).collect() };
    let refused = col(&|s| s.submit0 - s.first_try);
    let mut submit = col(&|s| s.submit1 - s.submit0);
    let mut inflight = col(&|s| s.poll - s.submit1);
    let mut reap = col(&|s| s.reply - s.wait0);
    let gen_lag = col(&|s| s.first_try - s.intended);
    let total = col(&|s| s.reply - s.intended);
    let mut residual: Vec<u64> = (0..p.spans.len())
        .map(|i| total[i] - gen_lag[i] - refused[i] - submit[i] - inflight[i] - reap[i])
        .collect();
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let all = sum(&total).max(1.0);
    rep.set("span.share.gen_lag", sum(&gen_lag) / all);
    rep.set("span.share.serve.refused", sum(&refused) / all);
    rep.set("span.share.serve.submit", sum(&submit) / all);
    rep.set("span.share.serve.inflight", sum(&inflight) / all);
    rep.set("span.share.serve.reap", sum(&reap) / all);
    rep.set("span.share.residual", sum(&residual) / all);
    rep.set("span.residual_ns.p50", quantile(&mut residual, 0.5) as f64);
    rep.set("serve.submit_ns.p50", quantile(&mut submit, 0.5) as f64);
    rep.set("serve.submit_ns.p99", quantile(&mut submit, 0.99) as f64);
    rep.set(
        "serve.inflight_us.p50",
        quantile(&mut inflight, 0.5) as f64 / 1e3,
    );
    rep.set(
        "serve.inflight_us.p99",
        quantile(&mut inflight, 0.99) as f64 / 1e3,
    );
    rep.set("serve.reap_ns.p50", quantile(&mut reap, 0.5) as f64);
    rep.set("serve.reap_ns.p99", quantile(&mut reap, 0.99) as f64);
    let mut all: Vec<u32> = p.lat_ns.concat();
    rep.set("serve.lat_p99_us", quantile(&mut all, 0.99) as f64 / 1e3);
    rep.set("serve.queue_depth.p99", quantile(&mut p.depth, 0.99) as f64);
    rep.set(
        "workloads.gen_ns_per_op",
        quantile(&mut p.prep_ns, 0.5) as f64,
    );
    rep.set(
        "workloads.gen_lag_us.p99",
        quantile(&mut p.gen_lag_ns, 0.99) as f64 / 1e3,
    );
    rep.set(
        "workloads.gen_lag_us.max",
        p.gen_lag_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3,
    );
    if let Err(e) = write_spans(&p.spans, args) {
        println!("spans not written: {e}");
    }
}

fn write_spans(spans: &[ReqSpan], args: &Args) -> std::io::Result<()> {
    let mut f = SpanFile::create(&args.workload)?;
    for s in spans {
        f.span(s.id, "request", "", s.intended, s.reply)?;
        f.span(
            s.id,
            "workloads.gen_lag",
            "request",
            s.intended,
            s.first_try,
        )?;
        f.span(s.id, "serve.refused", "request", s.first_try, s.submit0)?;
        f.span(s.id, "serve.submit", "request", s.submit0, s.submit1)?;
        f.span(s.id, "serve.inflight", "request", s.submit1, s.poll)?;
        f.span(s.id, "serve.reap", "request", s.wait0, s.reply)?;
    }
    f.finish(&format!("every {SPAN_EVERY}th request of the traced pass"))
}
