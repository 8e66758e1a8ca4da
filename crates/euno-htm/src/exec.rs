//! The layered transaction executor: retry *policy* split from episode
//! *mechanism*.
//!
//! [`ctx`](crate::ctx) owns the mechanism — episodes, footprints, commit
//! and the fallback lock. This module owns everything above it, decomposed
//! into the five stages every HTM region goes through:
//!
//! 1. **attempt** — open an episode, subscribe to the fallback lock, run
//!    the body, try to commit;
//! 2. **classify** — on abort: account the wasted cycles (with the eager
//!    conflict-detection refund), charge the abort penalty, bump the
//!    per-cause tallies;
//! 3. **decide** — ask the [`RetryStrategy`] whether to retry, retry with
//!    backoff, or give up;
//! 4. **backoff** — charge the exponential backoff between retries;
//! 5. **fallback** — serialize on the lock and run the body directly.
//!
//! A region traverses up to three paths (§4.2.1 extended with Brown's
//! HTM-template middle path): plain speculation ([`Path::Htm`]); after the
//! speculative budgets are exhausted, a *footprint-local* middle path
//! ([`Path::Middle`]) that re-runs the HTM episode while holding the
//! region's declared advisory slot locks ([`Footprint`]), so only
//! same-slot contenders wait while the rest of the tree keeps
//! speculating; and only after repeated middle-path failure the global
//! serialized fallback ([`Path::Fallback`]). Regions that declare no
//! footprint skip the middle path entirely — byte-for-byte the classic
//! two-path behaviour.
//!
//! [`RetryStrategy`] makes the decide stage pluggable — the DBX-style
//! per-cause budgets ([`RetryPolicy`] itself implements the trait), an
//! [`AggressivePolicy`] that almost never falls back, and an
//! [`AdaptiveBudget`] that resizes the conflict budget from the observed
//! fallback rate. The accounting is fixed: stage counts and abort causes
//! go to the thread's `euno-metrics` shard (figures 2 and 9 are derived
//! from it), and the cycle totals of each stage go to
//! [`ThreadStats`](crate::ThreadStats).

use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};

use euno_trace::{codes, EventKind};

use crate::abort::{AbortCause, ConflictInfo, TxResult};
use crate::ctx::{trace_abort_code, EpisodeKind, ThreadCtx, Tx};
use crate::lock::Footprint;
use crate::policy::{RetryCounts, RetryPolicy};
use crate::runtime::Mode;
use crate::word::TxCell;

/// Which of the three execution paths ultimately completed a region.
/// Ordered by escalation: `Htm < Middle < Fallback`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Path {
    /// Plain speculation: an HTM episode with no locks held.
    Htm,
    /// The footprint-local middle path: an HTM episode committed while
    /// holding the region's advisory slot locks, serializing only
    /// same-slot contenders.
    Middle,
    /// The global serialized fallback (lock held, direct writes).
    Fallback,
}

impl Path {
    /// Short stable label (reports, figures).
    pub fn label(self) -> &'static str {
        match self {
            Path::Htm => "htm",
            Path::Middle => "middle",
            Path::Fallback => "fallback",
        }
    }
}

/// Result of executing one HTM region to completion.
#[derive(Debug)]
pub struct ExecOutcome<R> {
    pub value: R,
    /// Transaction attempts made (≥1).
    pub attempts: u32,
    /// Attempts that aborted due to a footprint conflict.
    pub conflict_aborts: u32,
    /// The path the region ultimately completed on.
    pub path: Path,
}

impl<R> ExecOutcome<R> {
    /// Whether the region ultimately ran on the serialized fallback path.
    pub fn used_fallback(&self) -> bool {
        self.path == Path::Fallback
    }
}

/// Verdict of the decide stage after a classified abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Try the region again, optionally after exponential backoff.
    Retry { backoff: bool },
    /// Escalate to the footprint-local middle path: retry speculatively
    /// while holding the region's advisory slot locks. Regions without a
    /// declared footprint treat this as [`Decision::Fallback`].
    Middle,
    /// Give up on speculation and take the serialized fallback path.
    Fallback,
}

/// The decide stage: given the per-cause abort tallies of the current
/// region and the cause that just fired, choose what to do next.
///
/// Strategies are shared across threads (trees hold them behind an `Arc`),
/// so any adaptivity must go through interior mutability.
pub trait RetryStrategy: Send + Sync {
    /// Short stable name (CLI flags, figure labels).
    fn name(&self) -> &'static str;

    /// Called after every abort, *after* `counts` was bumped with `cause`.
    fn decide(&self, counts: &RetryCounts, cause: AbortCause) -> Decision;

    /// Post-region feedback for adaptive strategies: total attempts made
    /// and the path the region ended on.
    fn observe_region(&self, _attempts: u32, _path: Path) {}
}

/// The DBX-style per-cause budgets are themselves a strategy — every
/// pre-existing call site that passed `&RetryPolicy` keeps working. The
/// escalation schedule is the same for all budget-based strategies:
/// speculate while no per-cause budget is exhausted, then grant
/// `middle_retries` footprint-locked attempts, then serialize.
impl RetryStrategy for RetryPolicy {
    fn name(&self) -> &'static str {
        "budget"
    }

    fn decide(&self, counts: &RetryCounts, _cause: AbortCause) -> Decision {
        if !self.exhausted(counts) {
            Decision::Retry {
                backoff: self.backoff,
            }
        } else if counts.middle < self.middle_retries {
            Decision::Middle
        } else {
            Decision::Fallback
        }
    }
}

/// The paper's default configuration (§4.2.1): DBX per-cause budgets with
/// exponential backoff. Identical to `RetryPolicy::default()`, named so a
/// workload spec can ask for it.
#[derive(Clone, Debug, Default)]
pub struct DbxPolicy {
    pub budgets: RetryPolicy,
}

impl RetryStrategy for DbxPolicy {
    fn name(&self) -> &'static str {
        "dbx"
    }

    fn decide(&self, counts: &RetryCounts, cause: AbortCause) -> Decision {
        self.budgets.decide(counts, cause)
    }
}

/// Retry hard, fall back almost never (`RetryPolicy::persistent()`): used
/// to isolate abort behaviour in the analysis experiments.
#[derive(Clone, Debug)]
pub struct AggressivePolicy {
    pub budgets: RetryPolicy,
}

impl Default for AggressivePolicy {
    fn default() -> Self {
        AggressivePolicy {
            budgets: RetryPolicy::persistent(),
        }
    }
}

impl RetryStrategy for AggressivePolicy {
    fn name(&self) -> &'static str {
        "aggressive"
    }

    fn decide(&self, counts: &RetryCounts, cause: AbortCause) -> Decision {
        self.budgets.decide(counts, cause)
    }
}

/// Widest the adaptive conflict budget is allowed to grow.
const ADAPTIVE_MAX_CONFLICT_BUDGET: u32 = 64;

/// Average attempts per region above which a window counts as *deep*:
/// regions are spending their whole retry budget even when they
/// eventually commit, so the budget should shrink.
const ADAPTIVE_DEEP_ATTEMPTS: u32 = 6;

/// Average attempts per region below which a window counts as *shallow*
/// enough to justify growing the budget.
const ADAPTIVE_SHALLOW_ATTEMPTS: u32 = 2;

/// An adaptive wrapper around the base budgets: the conflict budget is
/// scaled by powers of two from the recent fallback rate. When regions
/// keep exhausting their retries anyway (high fallback rate), retrying is
/// wasted work — shrink the budget and serialize sooner. When fallbacks
/// are rare, speculation is winning — let regions retry longer before
/// giving up. Non-conflict budgets (capacity, explicit, …) are not
/// adapted: their aborts are deterministic in the footprint, so more
/// retries cannot help.
#[derive(Debug)]
pub struct AdaptiveBudget {
    base: RetryPolicy,
    /// Regions per adaptation window.
    window: u32,
    /// Right-shift applied to the base conflict budget (negative =
    /// left-shift, i.e. a larger budget).
    scale: AtomicI32,
    regions: AtomicU32,
    fallbacks: AtomicU32,
    /// Attempts summed over the current window — the budget must respond
    /// to attempt *depth*, not just the fallback rate: a window can be
    /// fallback-free while every region still burns its full budget.
    attempts_acc: AtomicU32,
}

impl AdaptiveBudget {
    pub fn new(base: RetryPolicy) -> Self {
        AdaptiveBudget {
            base,
            window: 128,
            scale: AtomicI32::new(0),
            regions: AtomicU32::new(0),
            fallbacks: AtomicU32::new(0),
            attempts_acc: AtomicU32::new(0),
        }
    }

    /// Override the adaptation window (regions between re-evaluations).
    pub fn with_window(mut self, window: u32) -> Self {
        assert!(window > 0, "adaptation window must be positive");
        self.window = window;
        self
    }

    /// The conflict budget currently in force.
    pub fn conflict_budget(&self) -> u32 {
        let s = self.scale.load(Ordering::Relaxed);
        let base = self.base.conflict_retries.max(1);
        if s >= 0 {
            (base >> s.min(31)).max(1)
        } else {
            (base << (-s).min(8) as u32).min(ADAPTIVE_MAX_CONFLICT_BUDGET)
        }
    }
}

impl Default for AdaptiveBudget {
    fn default() -> Self {
        AdaptiveBudget::new(RetryPolicy::default())
    }
}

impl RetryStrategy for AdaptiveBudget {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn decide(&self, counts: &RetryCounts, cause: AbortCause) -> Decision {
        let mut budgets = self.base.clone();
        budgets.conflict_retries = self.conflict_budget();
        budgets.decide(counts, cause)
    }

    fn observe_region(&self, attempts: u32, path: Path) {
        if path == Path::Fallback {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.attempts_acc.fetch_add(attempts, Ordering::Relaxed);
        let n = self.regions.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.window) {
            return;
        }
        // Window boundary: re-evaluate. The counters are only
        // approximately windowed under real concurrency, which is fine —
        // the controller needs a trend, not an exact rate.
        let fb = self.fallbacks.swap(0, Ordering::Relaxed);
        let tries = self.attempts_acc.swap(0, Ordering::Relaxed);
        let scale = self.scale.load(Ordering::Relaxed);
        // Attempt depth, not just fallback rate: a window whose regions
        // average many attempts is burning its budget even when the
        // regions eventually commit or resolve on the middle path.
        let deep = tries > self.window.saturating_mul(ADAPTIVE_DEEP_ATTEMPTS);
        let shallow = tries <= self.window.saturating_mul(ADAPTIVE_SHALLOW_ATTEMPTS);
        let next = if fb * 4 > self.window || deep {
            // >25 % of regions serialized, or budget-deep retrying:
            // retries are being wasted.
            (scale + 1).min(3)
        } else if fb * 20 < self.window && shallow {
            // <5 % fallbacks and shallow regions: speculation wins,
            // grant a bigger budget.
            (scale - 1).max(-2)
        } else {
            scale
        };
        self.scale.store(next, Ordering::Relaxed);
    }
}

/// One region execution in flight: the stage composition over a fallback
/// cell and a retry strategy. [`ThreadCtx::htm_execute`] is the everyday
/// entry point.
pub struct Executor<'e> {
    fb: &'e TxCell<u64>,
    strategy: &'e dyn RetryStrategy,
    footprint: Option<&'e Footprint<'e>>,
    attempt_start: u64,
}

impl<'e> Executor<'e> {
    pub fn new(fb: &'e TxCell<u64>, strategy: &'e dyn RetryStrategy) -> Self {
        Executor {
            fb,
            strategy,
            footprint: None,
            attempt_start: 0,
        }
    }

    /// Declare the region's middle-path footprint: the advisory slots a
    /// [`Decision::Middle`] attempt locks (in sorted order) before
    /// speculating. Without one, `Decision::Middle` escalates straight to
    /// the global fallback.
    pub fn with_footprint(mut self, footprint: &'e Footprint<'e>) -> Self {
        self.footprint = Some(footprint);
        self
    }

    /// Drive `body` through the stage pipeline to completion.
    pub fn run<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        let mut counts = RetryCounts::default();
        let mut attempts = 0u32;
        let mut conflict_aborts = 0u32;
        let mut on_middle = false;
        // Metric accumulators: plain locals, flushed to the thread's shard
        // in one pass at episode completion (ThreadCtx::metric_episode) so
        // the retry loop itself never touches the shard atomics.
        let mut middle_attempts = 0u32;
        let mut backoffs = 0u32;
        let mut ab_htm = [0u32; euno_metrics::ABORT_BUCKETS];
        let mut ab_mid = [0u32; euno_metrics::ABORT_BUCKETS];

        loop {
            attempts += 1;
            // Middle path: take the footprint's slot locks *outside* the
            // episode (sorted order — deadlock-free), so only same-slot
            // contenders serialize behind us while disjoint regions keep
            // speculating.
            let holding = if on_middle {
                let fp = self.footprint.expect("middle path requires a footprint");
                let wait_before = ctx.stats.cycles_lock_wait;
                fp.acquire_all(ctx);
                let waited = ctx.stats.cycles_lock_wait - wait_before;
                middle_attempts += 1;
                if waited > 0 {
                    ctx.stats.cycles_middle_wait += waited;
                    ctx.trace(EventKind::MiddleWait { cycles: waited });
                }
                Some(fp)
            } else {
                None
            };
            match self.attempt_dispatch(ctx, &mut body, on_middle) {
                Ok(v) => {
                    // The episode is closed (committed): slot lock words
                    // may be touched directly again.
                    if let Some(fp) = holding {
                        fp.release_all(ctx);
                    }
                    let path = if on_middle { Path::Middle } else { Path::Htm };
                    ctx.metric_commit_episode(
                        on_middle,
                        attempts,
                        middle_attempts,
                        backoffs,
                        &ab_htm,
                        &ab_mid,
                    );
                    self.strategy.observe_region(attempts, path);
                    return ExecOutcome {
                        value: v,
                        attempts,
                        conflict_aborts,
                        path,
                    };
                }
                Err(cause) => {
                    // classify() closes the aborted episode; only then is
                    // it legal to release the slot locks (direct access).
                    self.classify(ctx, cause, &mut counts, &mut conflict_aborts);
                    if let Some(fp) = holding {
                        fp.release_all(ctx);
                    }
                    let bucket = crate::ctx::abort_bucket(&cause);
                    if on_middle {
                        ab_mid[bucket] += 1;
                    } else {
                        ab_htm[bucket] += 1;
                    }
                    match self.strategy.decide(&counts, cause) {
                        Decision::Retry { backoff: true } => {
                            backoffs += 1;
                            self.backoff(ctx, &counts)
                        }
                        Decision::Retry { backoff: false } => {}
                        Decision::Middle => {
                            counts.middle += 1;
                            if self.footprint.is_some() {
                                on_middle = true;
                            } else {
                                // No declared footprint: nothing for the
                                // middle path to lock — escalate straight
                                // to the global fallback (the classic
                                // two-path behaviour).
                                break;
                            }
                        }
                        Decision::Fallback => break,
                    }
                }
            }
        }

        ctx.metric_episode(attempts, middle_attempts, backoffs, &ab_htm, &ab_mid);
        let value = self.fallback(ctx, &mut body);
        ctx.metric_add(euno_metrics::Counter::Fallbacks, 1);
        self.strategy.observe_region(attempts, Path::Fallback);
        ExecOutcome {
            value,
            attempts,
            conflict_aborts,
            path: Path::Fallback,
        }
    }

    /// Stage 1 dispatch: route the speculative try to the software episode
    /// engine or, when the runtime was built on the RTM backend and the
    /// CPU supports it, to a genuine hardware transaction. Middle-path
    /// tries also elide under RTM — the advisory slot locks are taken
    /// outside the transaction, so only same-slot contenders serialize.
    fn attempt_dispatch<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        serialized: bool,
    ) -> Result<R, AbortCause> {
        #[cfg(all(feature = "hw-rtm", target_arch = "x86_64"))]
        if ctx.runtime().rtm_active() {
            return self.attempt_hw(ctx, body);
        }
        self.attempt(ctx, body, serialized)
    }

    /// Stage 1, hardware flavour: run the body inside a real RTM
    /// transaction with the fallback lock subscribed (classic lock
    /// elision). No software episode is opened — conflict detection,
    /// buffering and rollback are the silicon's job; `ThreadCtx::hw_txn`
    /// makes `tx_read`/`tx_write` degrade to plain loads and stores.
    ///
    /// A body `Err` cannot return normally (the transaction's writes must
    /// be rolled back), so it aborts with code 0x01; the fallback
    /// subscription aborts with 0xff. Control for either lands back at
    /// `xbegin` with the status word, which is translated to the engine's
    /// [`AbortCause`] taxonomy.
    #[cfg(all(feature = "hw-rtm", target_arch = "x86_64"))]
    fn attempt_hw<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> Result<R, AbortCause> {
        use crate::hw;
        let wait_before = ctx.stats.cycles_lock_wait;
        ctx.fb_wait_free(self.fb);
        let waited = ctx.stats.cycles_lock_wait - wait_before;
        if waited > 0 {
            ctx.stats.cycles_fallback_wait += waited;
            ctx.trace(EventKind::FallbackWait { cycles: waited });
        }
        self.attempt_start = ctx.clock;
        let st = unsafe { hw::xbegin() };
        if st == hw::XBEGIN_STARTED {
            // Subscribe: the lock word joins the read set, so a concurrent
            // fallback acquisition aborts us; if already held, bail now.
            if self.fb.raw().load(Ordering::Relaxed) != 0 {
                unsafe { hw::xabort_ff() };
            }
            // Speculative — rolled back with everything else on abort.
            ctx.hw_txn = true;
            ctx.hw_wrote = false;
            match body(&mut Tx { ctx }) {
                Ok(v) => {
                    if ctx.hw_wrote {
                        // Writing commit: advance the TL2 clock *inside*
                        // the transaction, so the bump publishes
                        // atomically with the write set and episode-free
                        // optimistic readers (`optimistic_validate`:
                        // `seq == snap`) abort instead of accepting a
                        // snapshot this commit landed in the middle of.
                        // The seq word joins the hardware conflict set —
                        // one extra line, the price of making elided
                        // writers visible to snapshot validation.
                        let seq = &ctx.runtime().seq;
                        let s = seq.load(Ordering::Relaxed);
                        seq.store(s + 1, Ordering::Relaxed);
                    }
                    unsafe { hw::xend() };
                    ctx.hw_txn = false;
                    ctx.hw_wrote = false;
                    return Ok(v);
                }
                Err(_) => {
                    unsafe { hw::xabort_01() };
                    // Unreachable inside a transaction; defensive exit for
                    // the no-RTM-in-flight case (xabort is a no-op there).
                    ctx.hw_txn = false;
                    ctx.hw_wrote = false;
                    return Err(AbortCause::Explicit(1));
                }
            }
        }
        ctx.hw_txn = false;
        ctx.hw_wrote = false;
        Err(Self::hw_abort_cause(st))
    }

    /// Translate an RTM status word into the engine's abort taxonomy.
    #[cfg(all(feature = "hw-rtm", target_arch = "x86_64"))]
    fn hw_abort_cause(st: u32) -> AbortCause {
        use crate::hw::status;
        use crate::line::LineId;
        if st & status::EXPLICIT != 0 {
            match status::xabort_code(st) {
                0xff => AbortCause::FallbackLocked,
                code => AbortCause::Explicit(code),
            }
        } else if st & status::CAPACITY != 0 {
            AbortCause::Capacity
        } else if st & status::CONFLICT != 0 {
            // Hardware says only *that* a line collided, not which one.
            AbortCause::Conflict(ConflictInfo {
                line: LineId(0),
                kind: crate::abort::ConflictKind::Unclassified,
                other_thread: None,
            })
        } else {
            AbortCause::Spurious
        }
    }

    /// Stage 1: one speculative try — wait out the fallback lock, open an
    /// HtmTx episode, subscribe to the lock word, run the body, commit.
    /// A middle-path try (`serialized`) additionally declares its
    /// same-slot contenders lock-serialized, which disables the abort
    /// storm extrapolation (the locks invalidate its independence
    /// assumption) while keeping the deterministic overlap check.
    fn attempt<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        serialized: bool,
    ) -> Result<R, AbortCause> {
        let wait_before = ctx.stats.cycles_lock_wait;
        ctx.fb_wait_free(self.fb);
        let waited = ctx.stats.cycles_lock_wait - wait_before;
        if waited > 0 {
            ctx.stats.cycles_fallback_wait += waited;
            ctx.trace(EventKind::FallbackWait { cycles: waited });
        }
        self.attempt_start = ctx.clock;
        let xbegin = ctx.runtime().cost.xbegin;
        ctx.charge(xbegin);
        ctx.episode_begin(EpisodeKind::HtmTx);
        if serialized {
            ctx.set_serialized();
        }
        ctx.fb_subscribe(self.fb)?;
        let v = body(&mut Tx { ctx })?;
        let xend = ctx.runtime().cost.xend;
        ctx.charge(xend);
        ctx.htm_commit()?;
        Ok(v)
    }

    /// Stage 2: abort bookkeeping — keep the attempt's speculative writes
    /// hot, close the episode, account wasted cycles (TSX detects
    /// conflicts eagerly: refund half the attempt so retry density matches
    /// mid-flight death), charge the abort penalty, tally the cause.
    fn classify(
        &mut self,
        ctx: &mut ThreadCtx,
        cause: AbortCause,
        counts: &mut RetryCounts,
        conflict_aborts: &mut u32,
    ) {
        let (code, line_addr) = trace_abort_code(&cause);
        ctx.trace(EventKind::EpisodeAbort {
            kind: codes::EP_HTM_TX,
            cause: code,
            line_addr,
        });
        ctx.note_attempt_writes();
        ctx.episode_abort();
        let mut wasted_attempt = ctx.clock - self.attempt_start;
        if matches!(cause, AbortCause::Conflict(_)) && ctx.mode() == Mode::Virtual {
            let refund = wasted_attempt / 2;
            ctx.clock -= refund;
            wasted_attempt -= refund;
        }
        let penalty = ctx.runtime().cost.abort_penalty;
        ctx.charge(penalty);
        if matches!(cause, AbortCause::Conflict(_)) {
            *conflict_aborts += 1;
        }
        counts.bump(cause);
        ctx.stats.cycles_wasted += wasted_attempt + penalty;
    }

    /// Stage 4: exponential backoff between retries.
    fn backoff(&mut self, ctx: &mut ThreadCtx, counts: &RetryCounts) {
        let b = ctx.runtime().cost.backoff(counts.total_attempted());
        ctx.charge(b);
        ctx.stats.cycles_wasted += b;
        ctx.stats.cycles_backoff += b;
        ctx.trace(EventKind::Backoff { cycles: b });
    }

    /// Stage 5: serialize on the fallback lock and run the body directly.
    fn fallback<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> R {
        let wait_before = ctx.stats.cycles_lock_wait;
        ctx.fb_acquire(self.fb);
        let waited = ctx.stats.cycles_lock_wait - wait_before;
        if waited > 0 {
            ctx.stats.cycles_fallback_wait += waited;
            ctx.trace(EventKind::FallbackWait { cycles: waited });
        }
        ctx.episode_begin(EpisodeKind::Fallback);
        ctx.fallback_mark(self.fb);
        let mut tries = 0;
        let value = loop {
            match body(&mut Tx { ctx }) {
                Ok(v) => break v,
                Err(e) => {
                    tries += 1;
                    assert!(
                        tries < 16,
                        "region body keeps failing on the serialized fallback path: {e:?}"
                    );
                }
            }
        };
        ctx.fallback_publish();
        ctx.fb_release(self.fb);
        value
    }
}

impl ThreadCtx {
    /// Execute `body` as an HTM region under `strategy` with a global-lock
    /// fallback (§2.1, §4.2.1).
    ///
    /// `body` may run many times: transactionally (reads validated, writes
    /// buffered) and, after retry exhaustion, once more on the serialized
    /// fallback path where reads/writes are direct. Bodies therefore must
    /// be idempotent up to their tx reads/writes and must not return
    /// `Err` on the fallback path.
    pub fn htm_execute<R>(
        &mut self,
        fb: &TxCell<u64>,
        strategy: &dyn RetryStrategy,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        self.htm_execute_with(fb, strategy, None, body)
    }

    /// [`htm_execute`](ThreadCtx::htm_execute) with a declared middle-path
    /// footprint: after the speculative budgets are exhausted the region
    /// retries while holding `footprint`'s advisory slot locks
    /// ([`Path::Middle`]) before escalating to the global fallback. With
    /// `None` the middle path is skipped (two-path behaviour).
    pub fn htm_execute_with<R>(
        &mut self,
        fb: &TxCell<u64>,
        strategy: &dyn RetryStrategy,
        footprint: Option<&Footprint<'_>>,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        let mut ex = Executor::new(fb, strategy);
        if let Some(fp) = footprint {
            ex = ex.with_footprint(fp);
        }
        ex.run(self, body)
    }

    /// Run one optimistic-read section (Masstree-style before/after
    /// validation) to completion: open an `OptimisticRead` episode, run
    /// `body`, close the episode, and retry — counting
    /// `optimistic_retries` and charging one backoff quantum — until
    /// `body` succeeds and `invalidated` clears the episode's overlap.
    ///
    /// `body` returns `None` when its own validation (version words,
    /// B-link fences) failed; `invalidated` judges the engine-level
    /// overlap that virtual mode reports on episode end.
    pub fn optimistic_execute<R>(
        &mut self,
        op_key: Option<u64>,
        mut invalidated: impl FnMut(Option<ConflictInfo>) -> bool,
        mut body: impl FnMut(&mut ThreadCtx) -> Option<R>,
    ) -> R {
        loop {
            self.episode_begin(EpisodeKind::OptimisticRead);
            if let Some(key) = op_key {
                self.set_op_key(key);
            }
            let attempt = body(self);
            let overlap = self.episode_end_optimistic();
            match attempt {
                Some(v) if !invalidated(overlap) => return v,
                _ => {
                    self.stats.optimistic_retries += 1;
                    self.trace(EventKind::ReadRetry {
                        key: op_key.unwrap_or(0),
                    });
                    let b = self.runtime().cost.backoff_base;
                    self.charge(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::sync::Arc;

    fn vctx() -> (Arc<Runtime>, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let ctx = rt.thread(1);
        (rt, ctx)
    }

    #[test]
    fn tx_read_write_commit_applies_buffer() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(5u64);
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)?;
            // Not yet visible outside the buffer...
            Ok(v)
        });
        assert_eq!(out.value, 5);
        assert_eq!(out.path, Path::Htm);
        assert_eq!(out.attempts, 1);
        assert_eq!(cell.load_plain(), 6);
        assert_eq!(ctx.exec_stages().commits, 1);
    }

    #[test]
    fn read_your_own_writes() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(1u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            tx.write(&cell, 10)?;
            assert_eq!(tx.read(&cell)?, 10);
            tx.write(&cell, 20)?;
            assert_eq!(tx.read(&cell)?, 20);
            Ok(())
        });
        assert_eq!(cell.load_plain(), 20);
    }

    #[test]
    fn overlapping_footprints_conflict_in_virtual_time() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let policy = RetryPolicy::default();

        // Thread A commits a write covering virtual interval [0, ~small).
        a.htm_execute(&fb, &policy, |tx| tx.write(&cell, 1));
        // Thread B starts at virtual time 0 too (fresh clock) and touches
        // the same line → must suffer at least one conflict abort.
        let out = b.htm_execute(&fb, &policy, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(
            out.attempts > 1 || out.path != Path::Htm,
            "expected a conflict abort, got {out:?}"
        );
        assert!(b.aborts().total() >= 1);
        assert_eq!(cell.load_plain(), 2);
    }

    #[test]
    fn disjoint_lines_do_not_conflict() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        // Line-aligned allocations: two distinct 64-byte-aligned boxes can
        // never share a cache line (unaligned small boxes can, depending on
        // allocator state).
        #[repr(align(64))]
        struct Padded(TxCell<u64>);
        let x = Box::new(Padded(TxCell::new(0u64)));
        let y = Box::new(Padded(TxCell::new(0u64)));
        assert_ne!(x.0.line(), y.0.line());
        let policy = RetryPolicy::default();
        a.htm_execute(&fb, &policy, |tx| tx.write(&x.0, 1));
        let out = b.htm_execute(&fb, &policy, |tx| tx.write(&y.0, 1));
        assert_eq!(out.attempts, 1);
        assert_eq!(b.aborts().total(), 0);
    }

    #[test]
    fn capacity_abort_falls_back() {
        let rt = Runtime::new(
            Mode::Virtual,
            crate::cost::CostModel {
                write_capacity_lines: 2,
                ..Default::default()
            },
        );
        let mut ctx = rt.thread(1);
        let fb = TxCell::new(0u64);
        let cells: Vec<Box<TxCell<u64>>> = (0..64).map(|_| Box::new(TxCell::new(0u64))).collect();
        let distinct: std::collections::HashSet<_> = cells.iter().map(|c| c.line()).collect();
        assert!(distinct.len() > 2);
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            for c in &cells {
                tx.write(c, 7)?;
            }
            Ok(())
        });
        assert!(out.used_fallback(), "capacity overflow must reach fallback");
        assert!(ctx.aborts().capacity >= 1);
        // Fallback applied the writes directly.
        assert!(cells.iter().all(|c| c.load_plain() == 7));
    }

    #[test]
    fn explicit_abort_reaches_fallback() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(9);
            }
            Ok(42)
        });
        assert_eq!(out.value, 42);
        assert_eq!(ctx.aborts().explicit, 1);
    }

    #[test]
    fn clock_advances_with_charges() {
        let (_rt, mut ctx) = vctx();
        let before = ctx.clock;
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| tx.write(&cell, 1));
        assert!(ctx.clock > before);
        assert!(ctx.stats.mem_accesses > 0);
    }

    #[test]
    fn concurrent_mode_commits_and_validates() {
        let rt = Runtime::new_concurrent();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let n = 4u64;
        let iters = 200u64;
        std::thread::scope(|s| {
            for t in 0..n {
                let mut ctx = rt.thread(t);
                let (fb, cell) = (&fb, &cell);
                s.spawn(move || {
                    for _ in 0..iters {
                        ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                            let v = tx.read(cell)?;
                            tx.write(cell, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            cell.load_plain(),
            n * iters,
            "increments must not be lost under real concurrency"
        );
    }

    #[test]
    fn fallback_serializes_and_still_updates() {
        // Force every transaction to abort via a zero-retry policy and an
        // always-explicit body on the HTM path.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let policy = RetryPolicy {
            conflict_retries: 0,
            capacity_retries: 0,
            explicit_retries: 0,
            spurious_retries: 0,
            fallback_lock_retries: 0,
            middle_retries: 0,
            backoff: false,
        };
        let out = ctx.htm_execute(&fb, &policy, |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)?;
                Ok(())
            } else {
                tx.explicit_abort(1)
            }
        });
        assert!(out.used_fallback());
        assert_eq!(cell.load_plain(), 1);
        assert_eq!(ctx.exec_stages().fallbacks, 1);
        assert_eq!(fb.load_plain(), 0, "fallback lock must be released");
    }

    // ----- strategy-layer behaviour -----

    #[test]
    fn strategies_expose_stable_names() {
        assert_eq!(RetryPolicy::default().name(), "budget");
        assert_eq!(DbxPolicy::default().name(), "dbx");
        assert_eq!(AggressivePolicy::default().name(), "aggressive");
        assert_eq!(AdaptiveBudget::default().name(), "adaptive");
    }

    #[test]
    fn aggressive_strategy_retries_where_default_escalates() {
        // Bump a cause tally past the default budget but inside the
        // persistent one: the two strategies must disagree. Exhausting
        // the speculative budget now escalates to the middle path first;
        // only a region that also burns its middle grants serializes.
        let mut counts = RetryCounts::default();
        let cause = AbortCause::Spurious;
        for _ in 0..RetryPolicy::default().spurious_retries + 1 {
            counts.bump(cause);
        }
        assert_eq!(
            RetryPolicy::default().decide(&counts, cause),
            Decision::Middle
        );
        assert_eq!(
            AggressivePolicy::default().decide(&counts, cause),
            Decision::Retry { backoff: true }
        );
        // Past the middle grants too: serialize.
        counts.middle = RetryPolicy::default().middle_retries;
        assert_eq!(
            RetryPolicy::default().decide(&counts, cause),
            Decision::Fallback
        );
        // `two_path()` disables the middle path entirely.
        assert_eq!(
            RetryPolicy::default().two_path().decide(
                &RetryCounts {
                    middle: 0,
                    ..counts
                },
                cause
            ),
            Decision::Fallback
        );
    }

    #[test]
    fn adaptive_budget_shrinks_under_fallback_storms() {
        let strat = AdaptiveBudget::default().with_window(16);
        let initial = strat.conflict_budget();
        // A full window of fallbacks: the budget must shrink.
        for _ in 0..16 {
            strat.observe_region(11, Path::Fallback);
        }
        assert!(strat.conflict_budget() < initial);
        // Windows of clean commits: the budget recovers and then grows.
        for _ in 0..64 {
            strat.observe_region(1, Path::Htm);
        }
        assert!(strat.conflict_budget() > initial);
        assert!(strat.conflict_budget() <= ADAPTIVE_MAX_CONFLICT_BUDGET);
    }

    /// Satellite regression: `observe_region` must respond to attempt
    /// *depth*, not just the fallback flag. A window whose regions all
    /// commit — but only after burning their whole retry budget — used to
    /// read as "0 % fallbacks, grow the budget"; it must shrink it.
    #[test]
    fn adaptive_budget_shrinks_on_deep_but_clean_windows() {
        let strat = AdaptiveBudget::default().with_window(16);
        let initial = strat.conflict_budget();
        for _ in 0..16 {
            strat.observe_region(10, Path::Htm); // deep, yet no fallback
        }
        assert!(
            strat.conflict_budget() < initial,
            "budget-deep windows must shrink the budget even without fallbacks"
        );
        // Middle-path commits count toward depth the same way.
        let strat = AdaptiveBudget::default().with_window(16);
        for _ in 0..16 {
            strat.observe_region(10, Path::Middle);
        }
        assert!(strat.conflict_budget() < initial);
    }

    #[test]
    fn adaptive_budget_is_selectable_at_the_executor_seam() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(3u64);
        let strat = AdaptiveBudget::default();
        let out = ctx.htm_execute(&fb, &strat, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v * 2)?;
            Ok(v)
        });
        assert_eq!(out.value, 3);
        assert_eq!(cell.load_plain(), 6);
    }

    #[test]
    fn stage_counters_track_backoff_and_fallback_wait() {
        // Conflicting threads: the loser retries with exponential backoff,
        // and the backoff stage counters must record it.
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let policy = RetryPolicy::default();
        a.htm_execute(&fb, &policy, |tx| tx.write(&cell, 1));
        b.htm_execute(&fb, &policy, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(
            b.exec_stages().backoffs >= 1,
            "conflict retries must back off"
        );
        assert!(b.stats.cycles_backoff > 0);
        assert!(b.stats.cycles_backoff <= b.stats.cycles_wasted);

        // A fallback run holds the lock in virtual time; the next region
        // on the same lock waits it out, and that wait is attributed to
        // the fallback-wait stage.
        let rt = Runtime::new_virtual();
        let mut holder = rt.thread(3);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let serialize = RetryPolicy {
            conflict_retries: 0,
            capacity_retries: 0,
            explicit_retries: 0,
            spurious_retries: 0,
            fallback_lock_retries: 0,
            middle_retries: 0,
            backoff: false,
        };
        holder.htm_execute(&fb, &serialize, |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            } else {
                tx.explicit_abort(1)
            }
        });
        let mut waiter = rt.thread(4);
        waiter.htm_execute(&fb, &RetryPolicy::default(), |tx| tx.read(&cell));
        assert!(
            waiter.stats.cycles_fallback_wait > 0,
            "waiting out the fallback lock must be attributed to the stage"
        );
        // The fallback lock was the only lock waited on: added once.
        assert_eq!(
            waiter.stats.cycles_fallback_wait,
            waiter.stats.cycles_lock_wait
        );
    }

    /// Each stage's cycle total is added exactly once. Under a cost model
    /// that charges only abort penalties and backoff, a region's whole
    /// clock is waste: every abort's penalty and every backoff lands in
    /// `cycles_wasted` once, backoff also in `cycles_backoff` once. (The
    /// wait totals are pinned to the thread's lock wait by the two wait
    /// tests.)
    #[test]
    fn executor_covers_cycle_accounting_exactly_once() {
        use crate::cost::CostModel;
        use euno_metrics::Counter as C;
        use euno_trace::TraceBuf;

        /// Backoff-retry the first abort, escalate the second to the
        /// middle path, serialize after that.
        struct BackoffMiddleFallback;
        impl RetryStrategy for BackoffMiddleFallback {
            fn name(&self) -> &'static str {
                "backoff-middle-fallback"
            }
            fn decide(&self, counts: &RetryCounts, _cause: AbortCause) -> Decision {
                match (counts.middle, counts.total_attempted()) {
                    (0, 1) => Decision::Retry { backoff: true },
                    (0, _) => Decision::Middle,
                    _ => Decision::Fallback,
                }
            }
        }

        let cost = CostModel {
            access_hit: 0,
            line_first_touch: 0,
            plain_first_touch: 0,
            line_transfer: 0,
            cas: 0,
            xbegin: 0,
            xend: 0,
            abort_penalty: 7,
            backoff_base: 5,
            op_overhead: 0,
            alu: 0,
            lock_acquire: 0,
            lock_release: 0,
            spin_iter: 0,
            spurious_abort_per_cycle: 0.0,
            ..CostModel::default()
        };
        let rt = Runtime::new(Mode::Virtual, cost);
        let mut ctx = rt.thread(1);
        ctx.set_tracer(Box::new(TraceBuf::with_default_capacity(ctx.id)));
        let fb = TxCell::new(0u64);
        let locks = BitLockVector::new(64);
        let fp = Footprint::new(&locks, &[4]);
        let region = |ctx: &mut ThreadCtx| {
            ctx.htm_execute_with(&fb, &BackoffMiddleFallback, Some(&fp), |tx| {
                if tx.is_fallback() {
                    Ok(())
                } else {
                    tx.explicit_abort(1)
                }
            })
        };
        assert_eq!(region(&mut ctx).path, Path::Fallback);
        assert_eq!(ctx.metric(C::AbortsHtmExplicit), 2);
        assert_eq!(ctx.metric(C::AbortsMiddleExplicit), 1);
        assert_eq!(ctx.metric(C::Backoffs), 1);
        let once = ctx.stats.clone();
        let trace = ctx.take_tracer().unwrap().into_thread_trace();
        let backoff: u64 = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Backoff { cycles } => Some(cycles),
                _ => None,
            })
            .sum();
        assert!(backoff > 0);
        assert_eq!(once.cycles_backoff, backoff);
        assert_eq!(
            once.cycles_wasted,
            3 * 7 + backoff,
            "backoff also counts as waste"
        );
        assert_eq!(ctx.clock, once.cycles_wasted, "nothing else was charged");
        // A second identical region doubles every total.
        region(&mut ctx);
        assert_eq!(ctx.stats.cycles_wasted, 2 * once.cycles_wasted);
        assert_eq!(ctx.stats.cycles_backoff, 2 * once.cycles_backoff);
    }

    /// The stage counts the report is built from are maintained by the
    /// executor on the thread's metrics shard — exactly once per stage
    /// transition, including the per-path commit and abort breakdowns.
    #[test]
    fn executor_maintains_shard_stage_counters_exactly_once() {
        use euno_metrics::Counter as C;
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(1);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        // Explicit aborts have no default budget: one attempt, one
        // explicit abort, then the fallback completes the region.
        assert!(out.used_fallback());
        assert_eq!(ctx.metric(C::Attempts), 1);
        assert_eq!(ctx.metric(C::AbortsHtmExplicit), 1);
        assert_eq!(ctx.metric(C::Fallbacks), 1);
        assert_eq!(ctx.metric(C::Commits), 0);

        // A clean commit lands in the total, the per-path and the
        // per-backend counter exactly once.
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert_eq!(out.path, Path::Htm);
        assert_eq!(ctx.metric(C::Commits), 1);
        assert_eq!(ctx.metric(C::CommitsHtm), 1);
        assert_eq!(ctx.metric(C::CommitsVirtual), 1);
        assert_eq!(ctx.metric(C::CommitsStm), 0);
        assert_eq!(ctx.metric(C::Middles), 0);
        assert_eq!(ctx.metric(C::Attempts), 2);
    }

    /// The executor's trace stream must pair every `EpisodeBegin` with a
    /// commit or an abort, and record the abort's cause taxonomy.
    #[test]
    fn executor_emits_paired_episode_events() {
        let (_rt, mut ctx) = vctx();
        ctx.set_tracer(Box::new(euno_trace::TraceBuf::with_default_capacity(
            ctx.id,
        )));
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(3);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(out.used_fallback());

        let trace = ctx.take_tracer().unwrap().into_thread_trace();
        let mut begins = 0u32;
        let mut ends = 0u32;
        let mut explicit_aborts = 0u32;
        let mut fallback_commits = 0u32;
        for ev in &trace.events {
            match ev.kind {
                EventKind::EpisodeBegin { .. } => begins += 1,
                EventKind::EpisodeCommit { kind } => {
                    ends += 1;
                    if kind == codes::EP_FALLBACK {
                        fallback_commits += 1;
                    }
                }
                EventKind::EpisodeAbort { cause, .. } => {
                    ends += 1;
                    if cause == codes::AB_EXPLICIT {
                        explicit_aborts += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(begins, 2, "one HTM attempt + one fallback episode");
        assert_eq!(begins, ends, "every begin pairs with a commit or abort");
        assert_eq!(explicit_aborts, 1);
        assert_eq!(fallback_commits, 1);
        // The fallback path also records its lock acquire/release.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LockAcquire { .. })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LockRelease { .. })));
    }

    // ----- middle-path behaviour -----

    use crate::lock::BitLockVector;

    /// Escalates to the middle path on the first abort and serializes
    /// after two middle grants — a compressed schedule for unit tests.
    struct EscalateFast;
    impl RetryStrategy for EscalateFast {
        fn name(&self) -> &'static str {
            "escalate-fast"
        }
        fn decide(&self, counts: &RetryCounts, _cause: AbortCause) -> Decision {
            if counts.middle < 2 {
                Decision::Middle
            } else {
                Decision::Fallback
            }
        }
    }

    #[test]
    fn middle_path_commits_with_footprint_locked() {
        let (_rt, mut ctx) = vctx();
        ctx.set_tracer(Box::new(euno_trace::TraceBuf::with_default_capacity(
            ctx.id,
        )));
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let locks = BitLockVector::new(64);
        let fp = Footprint::new(&locks, &[7, 3]);
        let mut first = true;
        let out = ctx.htm_execute_with(&fb, &EscalateFast, Some(&fp), |tx| {
            if first {
                first = false;
                return tx.explicit_abort(1);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert_eq!(out.path, Path::Middle);
        assert_eq!(out.attempts, 2);
        assert!(!out.used_fallback());
        assert_eq!(cell.load_plain(), 1);
        assert_eq!(ctx.exec_stages().commits, 1);
        assert_eq!(ctx.exec_stages().middles, 1);
        assert_eq!(ctx.exec_stages().middle_attempts, 1);
        assert_eq!(ctx.exec_stages().fallbacks, 0);
        assert_eq!(fb.load_plain(), 0, "global fallback lock never taken");
        // Both slot locks were released after the commit.
        assert!(!locks.is_locked(&mut ctx, 3));
        assert!(!locks.is_locked(&mut ctx, 7));
        // The slot acquisitions were traced in sorted order.
        let trace = ctx.take_tracer().unwrap().into_thread_trace();
        let acquires: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LockAcquire { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(acquires.len(), 2, "one acquire per footprint slot");
    }

    #[test]
    fn middle_decision_without_footprint_is_two_path() {
        // A region that never declared a footprint treats Decision::Middle
        // as Decision::Fallback — byte-for-byte the classic escalation.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &EscalateFast, |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(1);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert_eq!(out.path, Path::Fallback);
        assert_eq!(ctx.exec_stages().middle_attempts, 0);
        assert_eq!(ctx.exec_stages().middles, 0);
        assert_eq!(ctx.exec_stages().fallbacks, 1);
        assert_eq!(cell.load_plain(), 1);
    }

    #[test]
    fn middle_path_exhaustion_escalates_to_fallback() {
        // A body that aborts on every speculative attempt (middle ones
        // included) must burn the middle grants and still complete on the
        // serialized fallback, releasing every slot lock on the way.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let locks = BitLockVector::new(64);
        let fp = Footprint::new(&locks, &[11]);
        let out = ctx.htm_execute_with(&fb, &EscalateFast, Some(&fp), |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            } else {
                tx.explicit_abort(1)
            }
        });
        assert_eq!(out.path, Path::Fallback);
        assert_eq!(out.attempts, 3, "1 htm + 2 middle grants");
        assert_eq!(ctx.exec_stages().middle_attempts, 2);
        assert_eq!(ctx.exec_stages().middles, 0, "no middle attempt committed");
        assert_eq!(ctx.exec_stages().fallbacks, 1);
        assert_eq!(cell.load_plain(), 1);
        assert!(!locks.is_locked(&mut ctx, 11), "aborts must release slots");
        assert_eq!(fb.load_plain(), 0);
    }

    #[test]
    fn middle_path_waits_out_contended_slots_in_virtual_time() {
        // Thread A commits a middle-path region over slot 5; thread B (at
        // virtual time 0) then takes the same slot — the virtual lock
        // model must charge B the wait and attribute it to the middle
        // stage counters.
        let rt = Runtime::new_virtual();
        let locks = BitLockVector::new(64);
        let fb = TxCell::new(0u64);
        let cell_a = TxCell::new(0u64);
        let cell_b = TxCell::new(0u64);
        let fp = Footprint::new(&locks, &[5]);

        let run = |ctx: &mut ThreadCtx, cell: &TxCell<u64>| {
            let mut first = true;
            ctx.htm_execute_with(&fb, &EscalateFast, Some(&fp), |tx| {
                if first {
                    first = false;
                    return tx.explicit_abort(1);
                }
                tx.write(cell, 1)
            })
        };

        let mut a = rt.thread(1);
        let out_a = run(&mut a, &cell_a);
        assert_eq!(out_a.path, Path::Middle);
        assert_eq!(a.stats.cycles_middle_wait, 0, "slot was uncontended");

        let mut b = rt.thread(2);
        let out_b = run(&mut b, &cell_b);
        assert_eq!(out_b.path, Path::Middle);
        assert!(
            b.stats.cycles_middle_wait > 0,
            "B must wait out A's virtual hold on slot 5"
        );
        // The slot lock was the only lock waited on: added once.
        assert_eq!(b.stats.cycles_middle_wait, b.stats.cycles_lock_wait);
    }

    #[test]
    fn two_path_policy_never_takes_the_middle_path() {
        // `two_path()` on the default policy reproduces the legacy
        // executor even when a footprint is declared.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let locks = BitLockVector::new(64);
        let fp = Footprint::new(&locks, &[2]);
        let policy = RetryPolicy::default().two_path();
        let out = ctx.htm_execute_with(&fb, &policy, Some(&fp), |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            } else {
                tx.explicit_abort(1)
            }
        });
        assert_eq!(out.path, Path::Fallback);
        assert_eq!(ctx.exec_stages().middle_attempts, 0);
        assert_eq!(ctx.stats.cycles_middle_wait, 0);
        assert_eq!(cell.load_plain(), 1);
    }

    #[test]
    fn path_labels_and_ordering_are_stable() {
        assert_eq!(Path::Htm.label(), "htm");
        assert_eq!(Path::Middle.label(), "middle");
        assert_eq!(Path::Fallback.label(), "fallback");
        assert!(Path::Htm < Path::Middle && Path::Middle < Path::Fallback);
    }

    #[test]
    fn optimistic_execute_counts_retries() {
        let (_rt, mut ctx) = vctx();
        let mut tries = 0;
        let v = ctx.optimistic_execute(
            Some(7),
            |_| false,
            |_ctx| {
                tries += 1;
                if tries < 3 {
                    None
                } else {
                    Some(99u64)
                }
            },
        );
        assert_eq!(v, 99);
        assert_eq!(ctx.stats.optimistic_retries, 2);
    }
}
