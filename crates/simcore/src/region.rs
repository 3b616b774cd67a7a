//! Region-partitioned scheduling inside one
//! [`FutureEventList`](crate::queue::FutureEventList).
//!
//! # What a region is
//!
//! A *region* is a partition class of the simulation's event producers
//! (for the engine: a connected group of operators chosen by a min-cut
//! over the dataflow graph). Each region owns its own
//! [`BackendQueue`](crate::queue::BackendQueue) — its private future-event
//! list. The shell state (global clock, schedule-order `seq` minting,
//! past-clamp, processed counter) stays in the owning `FutureEventList`,
//! shared by all regions.
//!
//! # Pop order: region-major
//!
//! Events pop in `(at, region, seq)` order: the earliest instant first;
//! at one instant, region 0's pending events before region 1's, and so
//! on; inside one region, schedule (`seq`) order. Sequence numbers are
//! therefore never compared across regions. That is the property the
//! conservative PDES engines rely on: the sequential reference engine
//! (one shared list) and the thread-per-region executor (one replica list
//! per thread, each pruned to its own region) mint local `seq` values
//! independently per region, yet pop every region's events identically.
//!
//! A same-instant run drained by
//! [`pop_run_at_most`](crate::queue::FutureEventList::pop_run_at_most)
//! spans every region pending at that instant, concatenated in ascending
//! region index. Because the order depends on the region assignment, a
//! region count is a semantic choice, not a performance knob: the engine
//! only partitions in PDES mode (`resume_latency > 0`).
//!
//! Keeping each region's pending set in its own backend also keeps each
//! population small and lets the calendar backend tune its bucket width
//! from the gaps of its own region's traffic.

use crate::queue::{BackendQueue, Scheduled, SchedulerBackend};
use crate::time::SimTime;

/// Cached earliest timestamp of one region's queue. Kept exact across
/// pushes (a push below the cached minimum *is* the new minimum); only a
/// pop invalidates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Head {
    /// Unknown — refresh via `peek_time` before use.
    Stale,
    /// The region's queue is empty.
    Empty,
    /// The earliest pending timestamp in the region's queue.
    At(SimTime),
}

/// K per-region backend queues popped in region-major `(at, region, seq)`
/// order. See the module docs; construct via
/// [`FutureEventList::with_backend_regions`](crate::queue::FutureEventList::with_backend_regions).
pub struct RegionScheduler<E> {
    queues: Vec<BackendQueue<E>>,
    heads: Vec<Head>,
    /// Events popped out of each region (single pops and run drains both
    /// count per event) — the per-region load-balance view.
    pops: Vec<u64>,
}

impl<E> RegionScheduler<E> {
    /// `regions` queues on `kind`, pre-sized for about `cap` pending
    /// events total. Requires `regions >= 2` (a single region is just a
    /// plain list — the `FutureEventList` constructor handles that
    /// degradation).
    pub(crate) fn new(kind: SchedulerBackend, cap: usize, regions: usize) -> Self {
        assert!(regions >= 2, "RegionScheduler needs at least two regions");
        assert!(
            regions <= 64,
            "region count is a partition fan-out, not a thread pool"
        );
        let per = cap / regions + 1;
        Self {
            queues: (0..regions).map(|_| BackendQueue::new(kind, per)).collect(),
            heads: vec![Head::Empty; regions],
            pops: vec![0; regions],
        }
    }

    pub(crate) fn kind(&self) -> SchedulerBackend {
        self.queues[0].kind()
    }

    /// Number of regions (K).
    #[inline]
    pub fn regions(&self) -> usize {
        self.queues.len()
    }

    /// Total pending events across all regions.
    #[inline]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether every region's queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events popped out of `region` so far (single pops and run drains
    /// both count per event).
    #[inline]
    pub fn region_pops(&self, region: usize) -> u64 {
        self.pops[region]
    }

    /// Drop every region's pending events except `keep`'s. Used by the
    /// thread-per-region executor: each replica builds the full world,
    /// then prunes to the one region it owns. Pop counters are left
    /// untouched.
    pub(crate) fn retain_region(&mut self, keep: usize) {
        let kind = self.kind();
        for r in 0..self.queues.len() {
            if r != keep {
                self.queues[r] = BackendQueue::new(kind, 1);
                self.heads[r] = Head::Empty;
            }
        }
    }

    /// Insert an entry into `region` (clamped to the last region). The
    /// head cache stays exact: a timestamp below the cached minimum *is*
    /// the new minimum.
    #[inline]
    pub(crate) fn push(&mut self, region: usize, s: Scheduled<E>) {
        let r = region.min(self.regions() - 1);
        match self.heads[r] {
            Head::Empty => self.heads[r] = Head::At(s.at),
            Head::At(at) if s.at < at => self.heads[r] = Head::At(s.at),
            _ => {}
        }
        self.queues[r].push(s);
    }

    /// Re-derive any stale head from its queue.
    fn refresh_heads(&mut self) {
        for r in 0..self.queues.len() {
            if self.heads[r] == Head::Stale {
                self.heads[r] = match self.queues[r].peek_time() {
                    Some(at) => Head::At(at),
                    None => Head::Empty,
                };
            }
        }
    }

    /// The region holding the earliest instant, and that instant. A
    /// same-instant tie goes to the lowest region index (the strict `<`
    /// keeps the first-seen head). Heads must be fresh.
    fn min_head(&self) -> Option<(usize, SimTime)> {
        let mut best: Option<(usize, SimTime)> = None;
        for (r, h) in self.heads.iter().enumerate() {
            debug_assert_ne!(*h, Head::Stale);
            if let Head::At(at) = *h {
                if best.is_none_or(|(_, bat)| at < bat) {
                    best = Some((r, at));
                }
            }
        }
        best
    }

    /// Mark `region`'s head unknown after a pop (or exactly empty, which a
    /// length read proves for free).
    #[inline]
    fn invalidate_head(&mut self, region: usize) {
        self.heads[region] = if self.queues[region].len() == 0 {
            Head::Empty
        } else {
            Head::Stale
        };
    }

    /// Pop the region-major minimum entry if due at or before `t`.
    pub(crate) fn pop_at_most(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        self.refresh_heads();
        let (r, at) = self.min_head()?;
        if at > t {
            return None;
        }
        let s = self.queues[r].pop_at_most(t).expect("head said due");
        debug_assert_eq!(s.at, at);
        self.pops[r] += 1;
        self.invalidate_head(r);
        Some(s)
    }

    /// Drain the whole earliest-instant run (if due by `t`) into `buf`:
    /// every region pending at that instant, in ascending region index,
    /// each region's run in its own `seq` order.
    pub(crate) fn pop_run_at_most(
        &mut self,
        t: SimTime,
        buf: &mut Vec<E>,
    ) -> Option<(SimTime, usize)> {
        self.refresh_heads();
        let (r0, at) = self.min_head()?;
        if at > t {
            return None;
        }
        let mut n = 0usize;
        for r in r0..self.queues.len() {
            if self.heads[r] == Head::At(at) {
                let (got_at, got_n) = self.queues[r]
                    .pop_run_at_most(t, buf)
                    .expect("head said due");
                debug_assert_eq!(got_at, at);
                n += got_n;
                self.pops[r] += got_n as u64;
                self.invalidate_head(r);
            }
        }
        Some((at, n))
    }

    /// Timestamp of the earliest pending entry.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.refresh_heads();
        self.min_head().map(|(_, at)| at)
    }
}

#[cfg(test)]
mod tests {
    use crate::queue::{FutureEventList, SchedulerBackend};
    use crate::time::SimTime;

    const BACKENDS: [SchedulerBackend; 2] =
        [SchedulerBackend::BinaryHeap, SchedulerBackend::Calendar];

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn one_region_degrades_to_single_list() {
        for b in BACKENDS {
            let q: FutureEventList<u32> = FutureEventList::with_backend_regions(b, 64, 1);
            assert_eq!(q.regions(), 1);
            let q: FutureEventList<u32> = FutureEventList::with_backend_regions(b, 64, 0);
            assert_eq!(q.regions(), 1);
        }
    }

    #[test]
    fn pops_follow_the_at_region_seq_reference_order() {
        // Reference model: the pending set as `(at, region, seq, event)`
        // tuples; every pop takes the minimum, every run drain takes the
        // whole earliest instant in `(region, seq)` order. Random tagged
        // schedules (relative and absolute, some in the past), interleaved
        // single pops, run drains and peeks, both backends, several K.
        for b in BACKENDS {
            for k in [2usize, 3, 5] {
                for seed in 1u64..=4 {
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut q = FutureEventList::with_backend_regions(b, 0, k);
                    let mut model: Vec<(SimTime, usize, u64, u64)> = Vec::new();
                    let (mut now, mut seq, mut processed) = (0, 0u64, 0u64);
                    let mut buf: Vec<u64> = Vec::new();
                    for i in 0..8_000u64 {
                        match xorshift(&mut x) % 8 {
                            0..=3 => {
                                // Mixed-horizon schedule; heavy massing.
                                let d = match xorshift(&mut x) % 10 {
                                    0..=5 => xorshift(&mut x) % 40,
                                    6..=8 => xorshift(&mut x) % 5_000,
                                    _ => 500_000 + xorshift(&mut x) % 2_000_000,
                                };
                                let r = (xorshift(&mut x) as usize) % k;
                                let at = if xorshift(&mut x).is_multiple_of(2) {
                                    q.schedule_tagged(r, d, i);
                                    now + d
                                } else {
                                    // Absolute, up to 20 µs in the past.
                                    let at = (now + d).saturating_sub(20);
                                    q.schedule_at_tagged(r, at, i);
                                    at.max(now)
                                };
                                model.push((at, r, seq, i));
                                seq += 1;
                            }
                            4 | 5 => {
                                let want = model
                                    .iter()
                                    .enumerate()
                                    .min_by_key(|(_, e)| (e.0, e.1, e.2))
                                    .map(|(j, _)| j)
                                    .map(|j| model.remove(j))
                                    .map(|(at, _, _, ev)| (at, ev));
                                assert_eq!(q.pop(), want, "backend {b:?} k {k}");
                                if let Some((at, _)) = want {
                                    (now, processed) = (at, processed + 1);
                                }
                            }
                            6 => {
                                let t = now + xorshift(&mut x) % 1_000;
                                let got = q.pop_run_at_most(t, &mut buf);
                                let min = model.iter().map(|e| e.0).min().filter(|&m| m <= t);
                                assert_eq!(got, min, "backend {b:?} k {k}");
                                let mut run: Vec<_> =
                                    model.iter().copied().filter(|e| Some(e.0) == min).collect();
                                run.sort_unstable();
                                model.retain(|e| Some(e.0) != min);
                                let want: Vec<u64> = run.iter().map(|e| e.3).collect();
                                assert_eq!(buf, want, "backend {b:?} k {k}");
                                if let Some(at) = min {
                                    (now, processed) = (at, processed + run.len() as u64);
                                }
                            }
                            _ => {
                                assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
                            }
                        }
                        assert_eq!(q.len(), model.len());
                        assert_eq!(q.now(), now);
                        assert_eq!(q.processed(), processed);
                    }
                    model.sort_unstable();
                    for (at, _, _, ev) in model {
                        assert_eq!(q.pop(), Some((at, ev)), "backend {b:?} k {k}");
                    }
                    assert_eq!(q.pop(), None);
                }
            }
        }
    }

    #[test]
    fn same_instant_runs_drain_region_by_region() {
        for b in BACKENDS {
            let mut q = FutureEventList::with_backend_regions(b, 0, 3);
            // Interleave schedule order across regions at one instant.
            for i in 0..90u64 {
                q.schedule_at_tagged((i % 3) as usize, 500, i);
            }
            let mut buf = Vec::new();
            assert_eq!(q.pop_run_at_most(SimTime::MAX, &mut buf), Some(500));
            let want: Vec<u64> = (0..3).flat_map(|r| (r..90).step_by(3)).collect();
            assert_eq!(buf, want, "backend {b:?}");
            assert_eq!(
                (0..3).map(|r| q.region_processed(r)).collect::<Vec<_>>(),
                vec![30, 30, 30]
            );
        }
    }

    #[test]
    fn untagged_schedules_land_in_region_zero_and_stay_correct() {
        for b in BACKENDS {
            let mut single = FutureEventList::with_backend(b, 0);
            let mut multi = FutureEventList::with_backend_regions(b, 0, 2);
            for i in 0..100u64 {
                single.schedule((i * 13) % 64, i);
                multi.schedule((i * 13) % 64, i); // untagged → region 0
            }
            loop {
                let (s, m) = (single.pop(), multi.pop());
                assert_eq!(s, m, "backend {b:?}");
                if s.is_none() {
                    break;
                }
            }
            assert_eq!(multi.region_processed(1), 0, "region 1 never saw an event");
        }
    }
}
