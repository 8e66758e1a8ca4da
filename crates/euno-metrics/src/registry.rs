//! The metric registry: per-thread counter shards, global gauges and the
//! flip log, owned one-per-`Runtime`.
//!
//! **Sharding & the single-writer discipline.** Each thread gets its own
//! cache-line-aligned [`ThreadShard`] at registration, and with it the
//! shard's one [`ShardWriter`]. The writer is neither `Clone` nor `Sync`,
//! so exactly one thread can write the shard, and increments are a
//! relaxed load + store (no `lock`-prefixed RMW on the hot path); the
//! sampler and end-of-run aggregation read the same atomics concurrently
//! and — because every slot is written by exactly one thread and only
//! ever grows — observe a monotone, never-torn value per counter.
//! Cross-counter consistency is *not* promised within a snapshot (a
//! sampler may see a commit before its attempt); windows are therefore
//! reported per-counter. A counter that several threads bump on one
//! shared shard (a serve shard's submitters) goes through
//! [`ThreadShard::add_shared`], an atomic RMW on the shared
//! `Arc<ThreadShard>`.
//!
//! **Rollback.** The warmup harness discards warmup operations by rolling
//! the shard back with [`ShardWriter::mark`] / [`ShardWriter::restore`] —
//! a fixed-size copy, no allocation.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::{Counter, ExecStages, Gauge};
use crate::flip::{FlipKind, FlipLog};
use crate::hist::LogHistogram;

/// One thread's private slice of the registry. All slots are atomics so
/// the sampler can read live, but only the shard's [`ShardWriter`]
/// updates them (relaxed load+store) — see the module docs.
#[repr(align(128))]
pub struct ThreadShard {
    counters: [AtomicU64; Counter::COUNT],
    hist_buckets: [AtomicU64; LogHistogram::BUCKETS],
    hist_sum: AtomicU64,
    hist_max: AtomicU64,
}

/// Saved shard state for warmup rollback (counters only: the harness
/// never records latency for warmup operations, so the histogram needs no
/// mark).
#[derive(Clone)]
pub struct ShardMark {
    counters: [u64; Counter::COUNT],
}

impl ThreadShard {
    fn new() -> Self {
        ThreadShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_sum: AtomicU64::new(0),
            hist_max: AtomicU64::new(0),
        }
    }

    /// Multi-writer increment: an atomic read-modify-write, for a
    /// counter that several threads bump on one shared shard (a serve
    /// shard's submitters). Never mix with [`ShardWriter::add`] on the
    /// same counter: a concurrent load + store would erase this add.
    #[inline]
    pub fn add_shared(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Dense copy of all counters (sampler / aggregation read path).
    pub fn counter_values(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// The executor-stage view of this shard.
    pub fn exec_stages(&self) -> ExecStages {
        ExecStages::from_counters(&self.counter_values())
    }

    /// This shard's latency histogram, with the exact sum and max the
    /// shard tracked.
    pub fn histogram(&self) -> LogHistogram {
        let buckets = std::array::from_fn(|i| self.hist_buckets[i].load(Ordering::Relaxed));
        let mut h = LogHistogram::from_bucket_counts(&buckets);
        h.set_exact(
            self.hist_sum.load(Ordering::Relaxed),
            self.hist_max.load(Ordering::Relaxed),
        );
        h
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for b in &self.hist_buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.hist_sum.store(0, Ordering::Relaxed);
        self.hist_max.store(0, Ordering::Relaxed);
    }
}

/// The one writing handle of a [`ThreadShard`], returned by
/// [`Registry::register_shard`]. It is `Send` (a worker thread can take
/// it along) but neither `Clone` nor `Sync`, so no second thread can
/// ever write the shard; that is what makes the relaxed load + store
/// increments sound. Reads go through `Deref` to the shard.
///
/// A second writer does not compile:
///
/// ```compile_fail
/// let reg = euno_metrics::Registry::new();
/// let w = reg.register_shard();
/// let w2 = w.clone();
/// ```
///
/// ```compile_fail
/// let reg = euno_metrics::Registry::new();
/// let w = reg.register_shard();
/// std::thread::scope(|s| {
///     s.spawn(|| w.add(euno_metrics::Counter::Ops, 1));
/// });
/// ```
pub struct ShardWriter {
    shard: Arc<ThreadShard>,
    _not_sync: PhantomData<Cell<()>>,
}

impl ShardWriter {
    /// Single-writer increment: relaxed load + store, no RMW.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let cell = &self.shard.counters[c.index()];
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Record one latency sample into the shard histogram.
    #[inline]
    pub fn record_latency(&self, value: u64) {
        let s = &self.shard;
        let b = &s.hist_buckets[LogHistogram::index(value)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        s.hist_sum.store(
            s.hist_sum.load(Ordering::Relaxed).saturating_add(value),
            Ordering::Relaxed,
        );
        if value > s.hist_max.load(Ordering::Relaxed) {
            s.hist_max.store(value, Ordering::Relaxed);
        }
    }

    /// Save counter state before a warmup op (fixed-size copy, no alloc).
    pub fn mark(&self) -> ShardMark {
        ShardMark {
            counters: self.shard.counter_values(),
        }
    }

    /// Roll counters back to a [`mark`](ShardWriter::mark).
    pub fn restore(&self, mark: &ShardMark) {
        for (cell, &v) in self.shard.counters.iter().zip(mark.counters.iter()) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// A shared read handle, for threads that only read the shard or bump
    /// it with [`ThreadShard::add_shared`].
    pub fn shared(&self) -> Arc<ThreadShard> {
        Arc::clone(&self.shard)
    }
}

impl Deref for ShardWriter {
    type Target = ThreadShard;

    fn deref(&self) -> &ThreadShard {
        &self.shard
    }
}

/// Summed counters and merged latency histogram of a set of shards. A
/// run report derives every op, stage and abort count and its latency
/// distribution from the totals of the run's own thread shards.
#[derive(Clone, Debug)]
pub struct ShardTotals {
    pub counters: [u64; Counter::COUNT],
    pub latency: LogHistogram,
}

impl ShardTotals {
    /// One shard's counters and histogram.
    pub fn of(shard: &ThreadShard) -> Self {
        ShardTotals {
            counters: shard.counter_values(),
            latency: shard.histogram(),
        }
    }

    pub fn merge(&mut self, other: &ShardTotals) {
        for (acc, v) in self.counters.iter_mut().zip(other.counters.iter()) {
            *acc += v;
        }
        self.latency.merge(&other.latency);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }
}

impl Default for ShardTotals {
    fn default() -> Self {
        ShardTotals {
            counters: [0; Counter::COUNT],
            latency: LogHistogram::new(),
        }
    }
}

/// The per-runtime metric registry.
pub struct Registry {
    shards: Mutex<Vec<Arc<ThreadShard>>>,
    gauges: [AtomicU64; Gauge::COUNT],
    flips: FlipLog,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            shards: Mutex::new(Vec::new()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            flips: FlipLog::default(),
        }
    }

    /// Register a new thread and return its shard's only writer.
    /// Allocates (thread creation time — never on the op hot path).
    pub fn register_shard(&self) -> ShardWriter {
        let shard = Arc::new(ThreadShard::new());
        self.shards.lock().unwrap().push(shard.clone());
        ShardWriter {
            shard,
            _not_sync: PhantomData,
        }
    }

    /// Zero every shard, gauge and the flip log. Called by
    /// `reset_dynamics` so preload traffic never leaks into measured
    /// totals; registered threads keep their shard handles.
    pub fn reset(&self) {
        for s in self.shards.lock().unwrap().iter() {
            s.reset();
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        self.flips.reset();
    }

    /// Sum one counter over all shards.
    pub fn total(&self, c: Counter) -> u64 {
        self.shards.lock().unwrap().iter().map(|s| s.get(c)).sum()
    }

    /// Dense totals over all shards.
    pub fn totals(&self) -> [u64; Counter::COUNT] {
        let mut out = [0u64; Counter::COUNT];
        for s in self.shards.lock().unwrap().iter() {
            for (acc, cell) in out.iter_mut().zip(s.counter_values().iter()) {
                *acc += cell;
            }
        }
        out
    }

    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g.index()].store(v, Ordering::Relaxed);
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()].load(Ordering::Relaxed)
    }

    /// Record a CCM flip (called from the CCM with the flipping thread's
    /// clock). Also bumps nothing — counters are the caller's job.
    pub fn record_flip(&self, tick: u64, addr: u64, to_bypass: bool) {
        self.flips.record(
            tick,
            addr,
            if to_bypass {
                FlipKind::ToBypass
            } else {
                FlipKind::ToProtect
            },
        );
    }

    /// Record a programmed hotspot-shift boundary (workload drivers).
    pub fn mark_shift(&self, tick: u64) {
        self.flips.record(tick, 0, FlipKind::ShiftMark);
    }

    pub fn flips(&self) -> &FlipLog {
        &self.flips
    }

    /// Merge all shard histograms into one (end-of-run read).
    pub fn merged_histogram(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for s in self.shards.lock().unwrap().iter() {
            out.merge(&s.histogram());
        }
        out
    }

    /// Zero-allocation accumulation used by the sampler: sums counters and
    /// histogram buckets over all shards into caller-provided arrays,
    /// copies gauges, and returns the number of published flip events.
    pub fn accumulate_into(
        &self,
        counters: &mut [u64; Counter::COUNT],
        gauges: &mut [u64; Gauge::COUNT],
        hist: &mut [u64; LogHistogram::BUCKETS],
    ) -> u64 {
        counters.fill(0);
        hist.fill(0);
        for s in self.shards.lock().unwrap().iter() {
            for (acc, cell) in counters.iter_mut().zip(s.counters.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
            for (acc, cell) in hist.iter_mut().zip(s.hist_buckets.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
        }
        for (out, cell) in gauges.iter_mut().zip(self.gauges.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        self.flips.len() as u64
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = self.shards.lock().unwrap().len();
        write!(f, "Registry(shards={}, flips={})", shards, self.flips.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_add_and_stage_view() {
        let reg = Registry::new();
        let s = reg.register_shard();
        s.add(Counter::Attempts, 3);
        s.add(Counter::Commits, 2);
        s.add(Counter::Middles, 1);
        assert_eq!(s.get(Counter::Attempts), 3);
        let stages = s.exec_stages();
        assert_eq!(stages.attempts, 3);
        assert_eq!(stages.commits, 2);
        assert_eq!(stages.middles, 1);
        assert_eq!(reg.total(Counter::Commits), 2);
    }

    #[test]
    fn totals_sum_across_shards() {
        let reg = Registry::new();
        let a = reg.register_shard();
        let b = reg.register_shard();
        a.add(Counter::Ops, 10);
        b.add(Counter::Ops, 5);
        assert_eq!(reg.total(Counter::Ops), 15);
        reg.reset();
        assert_eq!(reg.total(Counter::Ops), 0);
        // Handles stay live after reset.
        a.add(Counter::Ops, 1);
        assert_eq!(reg.total(Counter::Ops), 1);
    }

    #[test]
    fn mark_restore_rolls_back_counters() {
        let reg = Registry::new();
        let s = reg.register_shard();
        s.add(Counter::Commits, 5);
        let mark = s.mark();
        s.add(Counter::Commits, 7);
        s.add(Counter::Fallbacks, 1);
        s.restore(&mark);
        assert_eq!(s.get(Counter::Commits), 5);
        assert_eq!(s.get(Counter::Fallbacks), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = Registry::new();
        reg.set_gauge(Gauge::EpochRetiredPending, 42);
        reg.set_gauge(Gauge::EpochRetiredPending, 17);
        assert_eq!(reg.gauge(Gauge::EpochRetiredPending), 17);
    }

    #[test]
    fn merged_histogram_keeps_exact_max() {
        let reg = Registry::new();
        let a = reg.register_shard();
        let b = reg.register_shard();
        a.record_latency(100);
        a.record_latency(1000);
        b.record_latency(999_937);
        let h = reg.merged_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 999_937);
        assert_eq!(h.quantile(1.0), 999_937);
    }

    #[test]
    fn flip_roundtrip_through_registry() {
        let reg = Registry::new();
        reg.mark_shift(50);
        reg.record_flip(80, 0xbeef, false);
        let lags = crate::adaptation_lags(&reg.flips().events());
        assert_eq!(lags.len(), 1);
        assert_eq!(lags[0].lag, Some(30));
    }
}
