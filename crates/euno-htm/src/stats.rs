//! Per-thread execution statistics and the abort-cause view.
//!
//! The paper's analysis figures (2 and 9) plot *aborts per operation broken
//! down by cause*, and §2.3 quotes the fraction of CPU cycles wasted in
//! aborted attempts (">94 % of total CPU cycles when θ = 0.9"). Op counts
//! and aborts by cause live in the thread's `euno-metrics` shard;
//! [`AbortCounts`] is their report view. [`ThreadStats`] keeps the cycle
//! totals and instruction proxies, which have no shard counter.

use euno_metrics::{Counter, ABORTS_HTM, ABORTS_MIDDLE};

/// Counters kept by one (virtual or OS) thread. Plain integers — each
/// thread owns its counters; aggregation happens after the run.
///
/// Op, stage and abort **counts** (ops, attempts, commits, middles,
/// fallbacks, backoffs, CCM flips, aborts by cause) live in the thread's
/// `euno-metrics` shard, not here — read them via
/// [`ThreadCtx::metric`](crate::ThreadCtx::metric),
/// [`ThreadCtx::exec_stages`](crate::ThreadCtx::exec_stages) and
/// [`ThreadCtx::aborts`](crate::ThreadCtx::aborts). This struct keeps
/// what the shard does not: cycle accounting and memory/CAS instruction
/// proxies.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    /// Optimistic-episode retries (Masstree-style version-validation
    /// failures; not HTM aborts).
    pub optimistic_retries: u64,
    /// Total virtual cycles consumed by this thread.
    pub cycles_total: u64,
    /// Thread clock at the moment measurement began (after warmup); the
    /// harness subtracts it from the makespan so warmup cycles don't
    /// dilute throughput. `None` until the thread finishes warmup — the
    /// merge below must not treat "never warmed up" as "warmed up at
    /// cycle 0", or merging into a default accumulator silently disables
    /// the warmup subtraction.
    pub measure_start_cycles: Option<u64>,
    /// Virtual cycles consumed inside attempts that later aborted, plus
    /// rollback penalties and backoff — the "wasted work" of §2.3.
    pub cycles_wasted: u64,
    /// Virtual cycles spent waiting for advisory locks and the fallback lock.
    pub cycles_lock_wait: u64,
    /// Virtual cycles spent in retry backoff (also counted in
    /// `cycles_wasted`).
    pub cycles_backoff: u64,
    /// Virtual cycles spent waiting to acquire (or waiting out) the
    /// fallback lock specifically (also counted in `cycles_lock_wait`).
    pub cycles_fallback_wait: u64,
    /// Virtual cycles spent acquiring middle-path footprint slot locks
    /// (also counted in `cycles_lock_wait`).
    pub cycles_middle_wait: u64,
    /// Instrumented memory accesses (instruction-count proxy; used for the
    /// "Masstree executes ~2.1× the instructions" comparison in §5.2).
    pub mem_accesses: u64,
    /// Atomic CAS operations issued.
    pub cas_ops: u64,
    /// Fresh `EpisodeState` heap allocations (scratch-pool misses). The
    /// pool recycles one episode box per thread, so in steady state this
    /// stays at 1 — the zero-alloc test asserts exactly that.
    pub episode_pool_allocs: u64,
}

/// Abort tallies following the paper's taxonomy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts {
    pub true_same_record: u64,
    pub false_different_record: u64,
    pub false_metadata: u64,
    pub false_structure: u64,
    pub unclassified_conflict: u64,
    pub capacity: u64,
    pub explicit: u64,
    pub spurious: u64,
    pub fallback_locked: u64,
}

impl AbortCounts {
    /// The view of a dense counter array (a shard or a sum of shards):
    /// each bucket is its HTM-path plus its middle-path counter.
    pub fn from_counters(c: &[u64; Counter::COUNT]) -> Self {
        let b = |i: usize| c[ABORTS_HTM[i].index()] + c[ABORTS_MIDDLE[i].index()];
        AbortCounts {
            true_same_record: b(0),
            false_different_record: b(1),
            false_metadata: b(2),
            false_structure: b(3),
            unclassified_conflict: b(4),
            capacity: b(5),
            explicit: b(6),
            spurious: b(7),
            fallback_locked: b(8),
        }
    }

    /// All conflict-caused aborts (the taxonomy of Figure 2).
    pub fn conflicts(&self) -> u64 {
        self.true_same_record
            + self.false_different_record
            + self.false_metadata
            + self.false_structure
            + self.unclassified_conflict
    }

    /// Conflicts attributable to the leaf level (record + metadata), as in
    /// the ">90 % of conflicts occur in the leaf level" measurement.
    pub fn leaf_level_conflicts(&self) -> u64 {
        self.conflicts() - self.false_structure
    }

    pub fn total(&self) -> u64 {
        self.conflicts() + self.capacity + self.explicit + self.spurious + self.fallback_locked
    }
}

impl ThreadStats {
    pub fn merge(&mut self, other: &ThreadStats) {
        self.optimistic_retries += other.optimistic_retries;
        self.cycles_total += other.cycles_total;
        // Earliest measurement start among threads that *have* one. A bare
        // `min` over plain u64s would let a `Default` accumulator (0) win
        // and erase every real warmup mark.
        self.measure_start_cycles = match (self.measure_start_cycles, other.measure_start_cycles) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.cycles_wasted += other.cycles_wasted;
        self.cycles_lock_wait += other.cycles_lock_wait;
        self.cycles_backoff += other.cycles_backoff;
        self.cycles_fallback_wait += other.cycles_fallback_wait;
        self.cycles_middle_wait += other.cycles_middle_wait;
        self.mem_accesses += other.mem_accesses;
        self.cas_ops += other.cas_ops;
        self.episode_pool_allocs += other.episode_pool_allocs;
    }

    /// Fraction of cycles burnt in aborted attempts (§2.3: >94 % at θ=0.9).
    pub fn wasted_cycle_fraction(&self) -> f64 {
        if self.cycles_total == 0 {
            0.0
        } else {
            self.cycles_wasted as f64 / self.cycles_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counters_sums_both_paths_per_bucket() {
        let mut c = [0u64; Counter::COUNT];
        c[Counter::AbortsHtmTrueSameRecord.index()] = 1;
        c[Counter::AbortsHtmFalseDifferentRecord.index()] = 1;
        c[Counter::AbortsMiddleFalseDifferentRecord.index()] = 1;
        c[Counter::AbortsMiddleFalseMetadata.index()] = 1;
        c[Counter::AbortsHtmFalseStructure.index()] = 1;
        c[Counter::AbortsHtmCapacity.index()] = 1;
        c[Counter::AbortsMiddleExplicit.index()] = 1;
        c[Counter::AbortsHtmSpurious.index()] = 1;
        c[Counter::AbortsHtmFallbackLocked.index()] = 1;
        c[Counter::Attempts.index()] = 50;
        let a = AbortCounts::from_counters(&c);
        assert_eq!(a.true_same_record, 1);
        assert_eq!(a.false_different_record, 2);
        assert_eq!(a.explicit, 1);
        assert_eq!(a.conflicts(), 5);
        assert_eq!(a.leaf_level_conflicts(), 4);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn merge_into_default_keeps_measure_start() {
        // Regression: `min(0, t)` used to pin the merged measure start to
        // the Default accumulator's 0, disabling warmup subtraction.
        let warmed = ThreadStats {
            measure_start_cycles: Some(12_345),
            ..Default::default()
        };
        let mut acc = ThreadStats::default();
        acc.merge(&warmed);
        assert_eq!(acc.measure_start_cycles, Some(12_345));

        // Two warmed threads: earliest start wins.
        let earlier = ThreadStats {
            measure_start_cycles: Some(7_000),
            ..Default::default()
        };
        acc.merge(&earlier);
        assert_eq!(acc.measure_start_cycles, Some(7_000));

        // Merging an un-warmed thread must not erase the mark.
        acc.merge(&ThreadStats::default());
        assert_eq!(acc.measure_start_cycles, Some(7_000));
    }

    #[test]
    fn merge_adds_stage_cycle_counters() {
        let mut a = ThreadStats::default();
        let b = ThreadStats {
            cycles_total: 500,
            cycles_backoff: 120,
            cycles_fallback_wait: 55,
            cycles_middle_wait: 17,
            mem_accesses: 7,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.cycles_total, 1000);
        assert_eq!(a.mem_accesses, 14);
        assert_eq!(a.cycles_backoff, 240);
        assert_eq!(a.cycles_fallback_wait, 110);
        assert_eq!(a.cycles_middle_wait, 34);
    }

    #[test]
    fn derived_ratios() {
        let mut s = ThreadStats::default();
        assert_eq!(s.wasted_cycle_fraction(), 0.0);
        s.cycles_total = 100;
        s.cycles_wasted = 94;
        assert!((s.wasted_cycle_fraction() - 0.94).abs() < 1e-12);
    }
}
