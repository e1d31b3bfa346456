//! The Blacklisting memory scheduler (BLISS) of Subramanian et al. \[11\].
//!
//! BLISS observes which application each serviced access belongs to. If
//! one application receives `streak_threshold` (default 4) *consecutive*
//! services, it is blacklisted. Blacklists clear wholesale every
//! `clear_interval`. Arbitration priority is then:
//!
//! 1. non-blacklisted applications over blacklisted ones,
//! 2. row-buffer hits over non-hits,
//! 3. older entries over younger ones (FCFS age).
//!
//! The paper uses BLISS as the underlying arbiter for CD, ROD *and* DCA
//! (Table II), so design differences are attributable purely to queue
//! policy; we follow suit.

use dca_dram::RowOutcome;
use dca_sim_core::{Duration, SimTime};

use crate::queue::{AccessQueue, QueueEntry, SlotSet};

/// Maximum applications BLISS tracks (4 cores in the paper; sized for 16).
pub const MAX_APPS: usize = 16;

/// BLISS arbiter state.
#[derive(Clone, Debug)]
pub struct Bliss {
    blacklisted: [bool; MAX_APPS],
    last_app: Option<u8>,
    streak: u32,
    streak_threshold: u32,
    clear_interval: Duration,
    next_clear: SimTime,
    /// Total blacklisting events, for diagnostics.
    blacklist_events: u64,
}

impl Bliss {
    /// BLISS with the paper's parameters: blacklist after 4 consecutive
    /// services, clear every `clear_interval` (the original paper uses
    /// 10 000 memory cycles; we default to 12.5 µs which matches 10 000
    /// cycles of a 1.25 ns stacked-DRAM clock).
    pub fn new() -> Self {
        Self::with_params(4, Duration::from_ns(12_500))
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    /// Panics if `streak_threshold` or `clear_interval` is zero.
    pub fn with_params(streak_threshold: u32, clear_interval: Duration) -> Self {
        assert!(streak_threshold > 0, "streak_threshold must be positive");
        assert!(clear_interval.ps() > 0, "clear_interval must be positive");
        Bliss {
            blacklisted: [false; MAX_APPS],
            last_app: None,
            streak: 0,
            streak_threshold,
            clear_interval,
            next_clear: SimTime::ZERO + clear_interval,
            blacklist_events: 0,
        }
    }

    /// Whether `app` is currently blacklisted.
    pub fn is_blacklisted(&self, app: u8) -> bool {
        self.blacklisted[app as usize % MAX_APPS]
    }

    /// Number of blacklisting events so far.
    pub fn blacklist_events(&self) -> u64 {
        self.blacklist_events
    }

    /// Clear blacklists if the clearing interval has elapsed. O(1) however
    /// long the gap: `next_clear` jumps straight to the first interval
    /// boundary after `now`, as stepping one interval at a time would.
    pub fn maybe_clear(&mut self, now: SimTime) {
        if now >= self.next_clear {
            let interval = self.clear_interval.ps();
            let elapsed = (now - self.next_clear).ps() / interval + 1;
            self.blacklisted = [false; MAX_APPS];
            self.next_clear += Duration::from_ps(elapsed * interval);
        }
    }

    /// Record that an access of `app` was serviced; updates the streak and
    /// blacklist state.
    pub fn on_service(&mut self, app: u8, now: SimTime) {
        self.maybe_clear(now);
        if self.last_app == Some(app) {
            self.streak += 1;
        } else {
            self.last_app = Some(app);
            self.streak = 1;
        }
        if self.streak >= self.streak_threshold {
            let slot = app as usize % MAX_APPS;
            if !self.blacklisted[slot] {
                self.blacklisted[slot] = true;
                self.blacklist_events += 1;
            }
        }
    }

    /// Choose the best entry of `queue` among the slots in `candidates`.
    /// `row_outcome` reports how each entry would meet its bank's row
    /// buffer *right now*; it is called once per candidate.
    ///
    /// Priority is the lexicographic minimum of (blacklisted, not a row
    /// hit, `enqueued_at`, `id`). The key ends in the unique `id`, so the
    /// winner does not depend on the order candidates are visited in.
    ///
    /// Returns the winning slot, or `None` when `candidates` is empty.
    pub fn pick<F>(
        &self,
        queue: &AccessQueue,
        candidates: &SlotSet,
        mut row_outcome: F,
    ) -> Option<usize>
    where
        F: FnMut(&QueueEntry) -> RowOutcome,
    {
        let mut best: Option<(usize, (u8, SimTime, u64))> = None;
        for slot in candidates.iter() {
            let e = queue.entry(slot);
            // Rules 1 and 2 folded into one rank: blacklisted, then miss.
            let rank =
                (self.is_blacklisted(e.app) as u8) << 1 | (row_outcome(e) != RowOutcome::Hit) as u8;
            let key = (rank, e.enqueued_at, e.id);
            if best.is_none_or(|(_, b)| key < b) {
                best = Some((slot, key));
            }
        }
        best.map(|(slot, _)| slot)
    }
}

impl Default for Bliss {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ReadClass;
    use dca_dram::DramAccess;

    fn entry(id: u64, app: u8, bank: u32, row: u32, at: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(bank, row),
            app,
            class: ReadClass::Priority,
            enqueued_at: SimTime(at),
        }
    }

    /// Queue `entries` and pick among all of them; returns the winner's id.
    fn pick_id(
        b: &Bliss,
        entries: &[QueueEntry],
        row_outcome: impl FnMut(&QueueEntry) -> RowOutcome,
    ) -> Option<u64> {
        let mut q = AccessQueue::new(8, 16);
        for &e in entries {
            q.push(e).unwrap();
        }
        b.pick(&q, &q.live_slots(), row_outcome)
            .map(|slot| q.entry(slot).id)
    }

    #[test]
    fn four_consecutive_services_blacklist() {
        let mut b = Bliss::new();
        let t = SimTime(1);
        for _ in 0..3 {
            b.on_service(2, t);
            assert!(!b.is_blacklisted(2));
        }
        b.on_service(2, t);
        assert!(b.is_blacklisted(2));
        assert_eq!(b.blacklist_events(), 1);
    }

    #[test]
    fn interleaved_services_reset_streak() {
        let mut b = Bliss::new();
        let t = SimTime(1);
        for i in 0..20 {
            b.on_service((i % 2) as u8, t);
        }
        assert!(!b.is_blacklisted(0));
        assert!(!b.is_blacklisted(1));
    }

    #[test]
    fn blacklist_clears_after_interval() {
        let mut b = Bliss::with_params(4, Duration::from_ns(100));
        let t0 = SimTime(1);
        for _ in 0..4 {
            b.on_service(1, t0);
        }
        assert!(b.is_blacklisted(1));
        b.maybe_clear(SimTime(99_999));
        assert!(b.is_blacklisted(1), "99.999ns: interval not yet elapsed");
        b.maybe_clear(SimTime(100_000));
        assert!(!b.is_blacklisted(1), "cleared after 100ns interval");
    }

    #[test]
    #[should_panic(expected = "clear_interval must be positive")]
    fn zero_clear_interval_panics() {
        Bliss::with_params(4, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "streak_threshold must be positive")]
    fn zero_streak_threshold_panics() {
        Bliss::with_params(0, Duration::from_ns(100));
    }

    /// `next_clear` after `maybe_clear(now)`, stepped one interval at a
    /// time: the reference for the arithmetic catch-up.
    fn stepped_next_clear(mut next: SimTime, interval: Duration, now: SimTime) -> SimTime {
        while now >= next {
            next += interval;
        }
        next
    }

    #[test]
    fn long_idle_gap_catches_up_in_one_step() {
        let interval = Duration::from_ns(100);
        let mut b = Bliss::with_params(4, interval);
        let mut want = b.next_clear;
        // A jump of 10^6 intervals (plus a remainder), then a few short
        // and boundary-exact steps: same sequence as stepping.
        let jumps = [
            interval.ps() * 1_000_000 + 37,
            0,
            1,
            interval.ps() - 1,
            interval.ps(),
            interval.ps() * 3,
        ];
        let mut now = SimTime::ZERO;
        for jump in jumps {
            now += Duration::from_ps(jump);
            for _ in 0..4 {
                b.on_service(3, now);
            }
            want = stepped_next_clear(want, interval, now);
            b.maybe_clear(now);
            assert_eq!(b.next_clear, want, "at {now:?}");
            assert!(b.next_clear > now);
        }
        assert_eq!(
            b.next_clear.ps(),
            interval.ps() * 1_000_006,
            "next boundary after 10^6 intervals + 5 more"
        );
        // Reaching the next boundary clears the blacklist.
        assert!(b.is_blacklisted(3));
        b.maybe_clear(b.next_clear);
        assert!(!b.is_blacklisted(3));
    }

    #[test]
    fn pick_prefers_non_blacklisted() {
        let mut b = Bliss::new();
        for _ in 0..4 {
            b.on_service(0, SimTime(1));
        }
        let e0 = entry(0, 0, 0, 0, 0); // older, blacklisted app
        let e1 = entry(1, 1, 1, 0, 10); // younger, clean app
        assert_eq!(pick_id(&b, &[e0, e1], |_| RowOutcome::Closed), Some(1));
    }

    #[test]
    fn pick_prefers_row_hits_within_class() {
        let b = Bliss::new();
        let e0 = entry(0, 0, 0, 5, 0); // older, will be a conflict
        let e1 = entry(1, 1, 1, 7, 10); // younger, row hit
        let picked = pick_id(&b, &[e0, e1], |e| {
            if e.access.bank == 1 {
                RowOutcome::Hit
            } else {
                RowOutcome::Conflict
            }
        });
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn pick_falls_back_to_age_then_id() {
        let b = Bliss::new();
        let e0 = entry(7, 0, 0, 0, 50);
        let e1 = entry(3, 1, 1, 0, 50); // same age, smaller id
        assert_eq!(pick_id(&b, &[e0, e1], |_| RowOutcome::Closed), Some(3));
        let e2 = entry(9, 0, 0, 0, 40); // strictly older
        assert_eq!(pick_id(&b, &[e0, e1, e2], |_| RowOutcome::Closed), Some(9));
    }

    #[test]
    fn pick_honours_the_candidate_set() {
        let b = Bliss::new();
        let mut q = AccessQueue::new(8, 16);
        q.push(entry(0, 0, 0, 0, 0)).unwrap(); // oldest, bank 0
        q.push(entry(1, 0, 1, 0, 10)).unwrap();
        let bank1 = q.slots_on(1 << 1, None);
        let slot = b.pick(&q, &bank1, |_| RowOutcome::Closed).unwrap();
        assert_eq!(q.entry(slot).id, 1, "bank 0 was not a candidate");
    }

    #[test]
    fn empty_candidates_pick_none() {
        let b = Bliss::new();
        assert_eq!(pick_id(&b, &[], |_| RowOutcome::Hit), None);
    }

    #[test]
    fn blacklisted_row_hit_loses_to_clean_conflict() {
        // BLISS rule 1 dominates rule 2.
        let mut b = Bliss::new();
        for _ in 0..4 {
            b.on_service(0, SimTime(1));
        }
        let hog = entry(0, 0, 0, 5, 0);
        let clean = entry(1, 1, 1, 9, 100);
        let picked = pick_id(&b, &[hog, clean], |e| {
            if e.app == 0 {
                RowOutcome::Hit
            } else {
                RowOutcome::Conflict
            }
        });
        assert_eq!(picked, Some(1));
    }
}
