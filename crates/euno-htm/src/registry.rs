//! Sorted registries for line classes and object ranges.
//!
//! Trees register regions in bursts (build, preload, node splits); the
//! engine looks them up to classify conflicts and to attribute trace
//! events. Each registry is a plain sorted `Vec` behind a `Mutex`:
//! registrations edit it in place and lookups binary-search it under the
//! lock. Nothing is ever copied, so memory stays proportional to the
//! number of registered ranges.
//!
//! The lock is cheap because of who reads:
//!
//! - **Concurrent (TL2) mode** reads the class registry only to classify
//!   an abort (`ThreadCtx::line_conflict_cause`, `slot_conflict_cause`) —
//!   a few hundred reads per million operations on a splitting tree, none
//!   on a worker that never aborts.
//! - **Virtual mode** reads it inside [`VirtState::check`] and
//!   [`VirtState::storm_check`], on the scheduler's one OS thread, so
//!   the lock is never contended.
//! - The **object registry** is read only by the post-run profile
//!   builder.
//!
//! Both locks are *leaf* locks: nothing else is acquired while one is
//! held. The only nesting is `Runtime::virt` → class registry, in virtual
//! mode.
//!
//! [`VirtState::check`]: crate::runtime::VirtState::check
//! [`VirtState::storm_check`]: crate::runtime::VirtState::storm_check

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::line::{LineClass, LineId, LineSet};

/// One registered line range: `[start, end)` with its class, plus the
/// registration sequence number and the *original* range start it was
/// registered with. The latter two give every registered line a
/// deterministic rank (see [`ClassRegistry::rank_of`]) that survives
/// trim-insert splitting.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClassRange {
    start: u64,
    end: u64,
    class: LineClass,
    reg_id: u64,
    orig_start: u64,
}

/// A line's deterministic identity: `(registration sequence number,
/// offset within the registered range)`. Registration order and in-node
/// offsets are functions of the program's deterministic behaviour, not of
/// where the allocator placed a node — so ordering lines by rank is
/// stable across heap layouts, ASLR, and allocation-pattern changes,
/// where ordering by raw line id (address) is not. Unregistered lines
/// fall back to address order in the `u64::MAX` bucket.
pub(crate) type LineRank = (u64, u64);

/// Line-class registry: sorted, non-overlapping `[start, end)` line
/// ranges, newest registration winning on overlap — range-compressed
/// compared to the old per-line hash map (one entry per allocation
/// instead of one per 64-byte line).
pub(crate) struct ClassRegistry {
    ranges: Mutex<Vec<ClassRange>>,
    next_reg_id: AtomicU64,
}

impl ClassRegistry {
    pub(crate) fn new() -> Self {
        ClassRegistry {
            ranges: Mutex::new(Vec::new()),
            next_reg_id: AtomicU64::new(0),
        }
    }

    /// Tag lines `[first, last]` with `class`, splitting or replacing any
    /// previously registered overlapping ranges (trim-insert). Survivors
    /// of a split keep their original registration id and base, so their
    /// lines' ranks don't shift.
    pub(crate) fn register(&self, first: u64, last: u64, class: LineClass) {
        let (s, e) = (first, last + 1);
        let reg_id = self.next_reg_id.fetch_add(1, Ordering::Relaxed);
        let fresh = ClassRange {
            start: s,
            end: e,
            class,
            reg_id,
            orig_start: s,
        };
        let mut v = self.ranges.lock().unwrap();
        // First range ending after `s` — the earliest possible overlap.
        let i = v.partition_point(|r| r.end <= s);
        let mut j = i;
        let mut left = None;
        let mut right = None;
        while j < v.len() && v[j].start < e {
            if v[j].start < s {
                left = Some(ClassRange { end: s, ..v[j] });
            }
            if v[j].end > e {
                right = Some(ClassRange { start: e, ..v[j] });
            }
            j += 1;
        }
        let repl = left.into_iter().chain(std::iter::once(fresh)).chain(right);
        v.splice(i..j, repl);
    }

    #[inline]
    fn lookup(ranges: &[ClassRange], line: LineId) -> Option<&ClassRange> {
        let i = ranges.partition_point(|r| r.start <= line.0);
        if i > 0 {
            let r = &ranges[i - 1];
            if line.0 < r.end {
                return Some(r);
            }
        }
        None
    }

    #[inline]
    fn rank_in(ranges: &[ClassRange], line: LineId) -> LineRank {
        match Self::lookup(ranges, line) {
            Some(r) => (r.reg_id, line.0 - r.orig_start),
            None => (u64::MAX, line.0),
        }
    }

    #[inline]
    pub(crate) fn class_of(&self, line: LineId) -> LineClass {
        let v = self.ranges.lock().unwrap();
        Self::lookup(&v, line).map_or(LineClass::Unknown, |r| r.class)
    }

    /// Deterministic rank of a line (see [`LineRank`]).
    #[inline]
    pub(crate) fn rank_of(&self, line: LineId) -> LineRank {
        Self::rank_in(&self.ranges.lock().unwrap(), line)
    }

    /// The common line of `a` and `b` with the smallest [`LineRank`], if
    /// the sets intersect. This is the engine's canonical "which line do I
    /// report for this conflict" rule: unlike *smallest line id* (heap
    /// address order — sensitive to allocator placement), the answer is a
    /// deterministic function of the simulated schedule.
    pub(crate) fn best_common_line(&self, a: &LineSet, b: &LineSet) -> Option<LineId> {
        let mut common = a.common_iter(b).peekable();
        let first = common.next()?;
        // A lone common line needs no rank: the usual one-line conflict
        // skips the lock.
        if common.peek().is_none() {
            return Some(first);
        }
        let v = self.ranges.lock().unwrap();
        std::iter::once(first)
            .chain(common)
            .min_by_key(|&line| Self::rank_in(&v, line))
    }

    /// Number of distinct registered lines (ranges are non-overlapping,
    /// so widths sum exactly).
    pub(crate) fn registered_lines(&self) -> usize {
        let v = self.ranges.lock().unwrap();
        v.iter().map(|r| (r.end - r.start) as usize).sum()
    }
}

/// Object registry for trace attribution: `(base, len)` pairs sorted by
/// base. Re-registering an exact base replaces the entry (reused
/// allocation), including shrinking its length.
pub(crate) struct ObjectRegistry {
    objects: Mutex<Vec<(u64, u64)>>,
}

impl ObjectRegistry {
    pub(crate) fn new() -> Self {
        ObjectRegistry {
            objects: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn register(&self, base: u64, len: u64) {
        let mut v = self.objects.lock().unwrap();
        match v.binary_search_by_key(&base, |&(b, _)| b) {
            Ok(i) => v[i] = (base, len),
            Err(i) => v.insert(i, (base, len)),
        }
    }

    /// Base address of the registered object containing `addr`, if any.
    pub(crate) fn base_of(&self, addr: u64) -> Option<u64> {
        let v = self.objects.lock().unwrap();
        let i = match v.binary_search_by_key(&addr, |&(b, _)| b) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (base, len) = v[i];
        (addr < base + len).then_some(base)
    }

    pub(crate) fn len(&self) -> usize {
        self.objects.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_prior_updates() {
        let reg = ObjectRegistry::new();
        assert_eq!(reg.base_of(3), None);
        reg.register(3, 1);
        assert_eq!(reg.base_of(3), Some(3));
        // A second read without intervening updates sees the same entry.
        assert_eq!(reg.base_of(3), Some(3));
        reg.register(9, 1);
        assert_eq!((reg.base_of(3), reg.base_of(9)), (Some(3), Some(9)));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn class_trim_insert_splits_overlaps() {
        let reg = ClassRegistry::new();
        reg.register(10, 19, LineClass::Record);
        // Overwrite the middle: the Record range must split around it.
        reg.register(14, 15, LineClass::Metadata);
        assert_eq!(reg.class_of(LineId(10)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(13)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(14)), LineClass::Metadata);
        assert_eq!(reg.class_of(LineId(15)), LineClass::Metadata);
        assert_eq!(reg.class_of(LineId(16)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(19)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(20)), LineClass::Unknown);
        assert_eq!(reg.class_of(LineId(9)), LineClass::Unknown);
        assert_eq!(reg.registered_lines(), 10);

        // Overwrite spanning several existing ranges collapses them.
        reg.register(12, 17, LineClass::Structure);
        assert_eq!(reg.class_of(LineId(11)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(12)), LineClass::Structure);
        assert_eq!(reg.class_of(LineId(17)), LineClass::Structure);
        assert_eq!(reg.class_of(LineId(18)), LineClass::Record);
        assert_eq!(reg.registered_lines(), 10);
    }

    #[test]
    fn class_exact_overwrite_and_disjoint_ranges() {
        let reg = ClassRegistry::new();
        reg.register(5, 7, LineClass::Metadata);
        reg.register(5, 7, LineClass::Record); // same range, new class
        assert_eq!(reg.class_of(LineId(5)), LineClass::Record);
        assert_eq!(reg.class_of(LineId(7)), LineClass::Record);
        assert_eq!(reg.registered_lines(), 3);
        reg.register(100, 100, LineClass::Structure);
        assert_eq!(reg.class_of(LineId(100)), LineClass::Structure);
        assert_eq!(reg.registered_lines(), 4);
    }

    #[test]
    fn object_boundary_addresses() {
        let reg = ObjectRegistry::new();
        reg.register(0x1000, 256);
        reg.register(0x2000, 64);
        // First and last byte of each range resolve; one past does not.
        assert_eq!(reg.base_of(0x1000), Some(0x1000));
        assert_eq!(reg.base_of(0x10ff), Some(0x1000));
        assert_eq!(reg.base_of(0x1100), None);
        assert_eq!(reg.base_of(0x0fff), None);
        assert_eq!(reg.base_of(0x2000), Some(0x2000));
        assert_eq!(reg.base_of(0x203f), Some(0x2000));
        assert_eq!(reg.base_of(0x2040), None);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn object_reregistration_shrinks() {
        let reg = ObjectRegistry::new();
        reg.register(0x1000, 256);
        assert_eq!(reg.base_of(0x10ff), Some(0x1000));
        // Reused allocation: same base, smaller object. The old tail must
        // stop resolving even though it resolved before.
        reg.register(0x1000, 64);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.base_of(0x103f), Some(0x1000));
        assert_eq!(reg.base_of(0x1040), None);
        assert_eq!(reg.base_of(0x10ff), None);
    }

    #[test]
    fn concurrent_register_and_classify() {
        // Hammer registrations from one thread while another classifies;
        // every lookup must see either Unknown or a class registered for
        // that exact line — never torn data.
        let reg = std::sync::Arc::new(ClassRegistry::new());
        let w = {
            let reg = std::sync::Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    let class = if i % 2 == 0 {
                        LineClass::Record
                    } else {
                        LineClass::Metadata
                    };
                    reg.register(i % 64, i % 64, class);
                }
            })
        };
        for _ in 0..10_000 {
            let c = reg.class_of(LineId(7));
            assert!(
                matches!(
                    c,
                    LineClass::Unknown | LineClass::Record | LineClass::Metadata
                ),
                "unexpected class {c:?}"
            );
        }
        w.join().unwrap();
        // After the writer finishes, line 7 was last registered on
        // iteration 967 (odd → Metadata).
        assert_eq!(reg.class_of(LineId(7)), LineClass::Metadata);
    }
}
