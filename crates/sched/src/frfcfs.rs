//! FR-FCFS (first-ready, first-come-first-served) arbitration.
//!
//! The classic open-page arbiter: row hits first, then oldest. Used as an
//! ablation point against BLISS (the paper's base arbiter) to show DCA's
//! gains are not an artefact of the underlying arbitration algorithm
//! (§IV-B: "our scheme is not limited to any scheduling algorithm").

use dca_dram::RowOutcome;

use dca_sim_core::SimTime;

use crate::queue::{AccessQueue, QueueEntry, SlotSet};

/// Stateless FR-FCFS arbiter.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// New arbiter.
    pub fn new() -> Self {
        FrFcfs
    }

    /// Choose the best entry of `queue` among the slots in
    /// `candidates`: row hits first, then by age, then by id. The key
    /// ends in the unique `id`, so the winner does not depend on the
    /// order candidates are visited in.
    pub fn pick<F>(
        &self,
        queue: &AccessQueue,
        candidates: &SlotSet,
        mut row_outcome: F,
    ) -> Option<usize>
    where
        F: FnMut(&QueueEntry) -> RowOutcome,
    {
        let mut best: Option<(usize, (bool, SimTime, u64))> = None;
        for slot in candidates.iter() {
            let e = queue.entry(slot);
            let key = (row_outcome(e) != RowOutcome::Hit, e.enqueued_at, e.id);
            if best.is_none_or(|(_, b)| key < b) {
                best = Some((slot, key));
            }
        }
        best.map(|(slot, _)| slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ReadClass;
    use dca_dram::DramAccess;

    fn entry(id: u64, bank: u32, at: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(bank, 0),
            app: 0,
            class: ReadClass::Priority,
            enqueued_at: SimTime(at),
        }
    }

    /// Queue `entries` and pick among all of them; returns the winner's id.
    fn pick_id(
        entries: &[QueueEntry],
        row_outcome: impl FnMut(&QueueEntry) -> RowOutcome,
    ) -> Option<u64> {
        let mut q = AccessQueue::new(8, 16);
        for &e in entries {
            q.push(e).unwrap();
        }
        FrFcfs::new()
            .pick(&q, &q.live_slots(), row_outcome)
            .map(|slot| q.entry(slot).id)
    }

    #[test]
    fn row_hit_beats_age() {
        let old_conflict = entry(0, 0, 0);
        let young_hit = entry(1, 1, 100);
        let picked = pick_id(&[old_conflict, young_hit], |e| {
            if e.access.bank == 1 {
                RowOutcome::Hit
            } else {
                RowOutcome::Conflict
            }
        });
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn age_breaks_ties() {
        let a = entry(0, 0, 50);
        let b = entry(1, 1, 20);
        assert_eq!(pick_id(&[a, b], |_| RowOutcome::Closed), Some(1));
    }

    #[test]
    fn id_breaks_age_ties() {
        let a = entry(5, 0, 50);
        let b = entry(2, 1, 50);
        assert_eq!(pick_id(&[a, b], |_| RowOutcome::Closed), Some(2));
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(pick_id(&[], |_| RowOutcome::Hit), None);
    }
}
