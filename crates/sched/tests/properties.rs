//! Property-based tests for queues, arbiters and hysteresis.

use std::collections::BTreeMap;

use dca_dram::{AccessKind, DramAccess, RowOutcome};
use dca_sched::{
    banks_of, AccessQueue, Bliss, DrainPolicy, FrFcfs, Hysteresis, QueueEntry, ReadClass, SlotSet,
};
use dca_sim_core::SimTime;
use proptest::prelude::*;

fn entry(id: u64, app: u8, bank: u32, at: u64) -> QueueEntry {
    QueueEntry {
        id,
        access: DramAccess::read(bank, (id % 8) as u32),
        app,
        class: ReadClass::Priority,
        enqueued_at: SimTime(at),
    }
}

/// Queue every entry (capacity 64, 16 banks).
fn queue_of(entries: &[QueueEntry]) -> AccessQueue {
    let mut q = AccessQueue::new(64, 16);
    for &e in entries {
        q.push(e).unwrap();
    }
    q
}

const BANKS: u32 = 16;

/// The capacities the index must handle: one word, exactly one word, the
/// ROD write queue's two words, and a third partial word.
const CAPACITIES: [usize; 4] = [32, 64, 96, 130];

/// Drive `q` through a push/remove sequence drawn from `ops`, keeping a
/// reference map id → entry of what should be live. `(op, x)`: op 0–2
/// push an entry derived from `x`, op 3 removes the live entry chosen
/// by `x`. Entries alternate read classes and spread over all banks.
fn apply_ops(
    q: &mut AccessQueue,
    live: &mut BTreeMap<u64, QueueEntry>,
    next_id: &mut u64,
    ops: &[(u32, u64)],
) {
    for &(op, x) in ops {
        if op < 3 {
            let id = *next_id;
            *next_id += 1;
            let e = QueueEntry {
                id,
                access: DramAccess {
                    bank: (x % BANKS as u64) as u32,
                    row: (x >> 8) as u32 % 4,
                    kind: if x >> 12 & 1 == 1 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    burst: dca_dram::BurstLen::Block64,
                },
                app: (x >> 16) as u8 % 4,
                class: if x >> 20 & 1 == 1 {
                    ReadClass::Priority
                } else {
                    ReadClass::LowPriority
                },
                // Few distinct ages, so the id tiebreak is exercised.
                enqueued_at: SimTime((x >> 24) % 8),
            };
            if q.push(e).is_ok() {
                live.insert(id, e);
            }
        } else if !live.is_empty() {
            let id = *live.keys().nth((x % live.len() as u64) as usize).unwrap();
            let slot = q.iter().find(|(_, e)| e.id == id).expect("live entry").0;
            let removed = q.remove(slot);
            assert_eq!(removed.id, id);
            live.remove(&id);
        }
    }
}

/// The controller filters a pick can run under.
#[derive(Clone, Copy, Debug)]
enum Filter {
    /// CD/ROD reads, DCA under ScheduleAll, and every write drain.
    All,
    /// DCA phase 2: priority reads only.
    PrOnly,
    /// DCA OFS: LRs that would not row-conflict.
    LrRowFriendly,
    /// DCA OFS: LRs on RRPC-cold banks.
    LrRrpcCold,
}

const FILTERS: [Filter; 4] = [
    Filter::All,
    Filter::PrOnly,
    Filter::LrRowFriendly,
    Filter::LrRrpcCold,
];

/// Bank row state for the pick oracle: open row per bank (`None` =
/// closed), free-bank mask, and RRPC-cold bank mask.
struct Banks {
    open: [Option<u32>; BANKS as usize],
    free: u64,
    cold: u64,
}

impl Banks {
    fn outcome(&self, e: &QueueEntry) -> RowOutcome {
        match self.open[e.access.bank as usize] {
            None => RowOutcome::Closed,
            Some(r) if r == e.access.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
        }
    }
}

/// Candidates as the controller builds them from the index.
fn indexed_candidates(q: &AccessQueue, filter: Filter, banks: &Banks) -> SlotSet {
    match filter {
        Filter::All => q.slots_on(banks.free, None),
        Filter::PrOnly => q.slots_on(banks.free, Some(ReadClass::Priority)),
        Filter::LrRowFriendly => {
            let mut set = q.slots_on(banks.free, Some(ReadClass::LowPriority));
            set.retain(|s| banks.outcome(q.entry(s)) != RowOutcome::Conflict);
            set
        }
        Filter::LrRrpcCold => {
            let cold = banks_of(banks.free & q.bank_mask())
                .filter(|&b| banks.cold >> b & 1 == 1)
                .fold(0u64, |m, b| m | 1 << b);
            q.slots_on(cold, Some(ReadClass::LowPriority))
        }
    }
}

/// The same filter written directly on one entry.
fn passes(e: &QueueEntry, filter: Filter, banks: &Banks) -> bool {
    let free = banks.free >> e.access.bank & 1 == 1;
    let lr = e.class == ReadClass::LowPriority;
    free && match filter {
        Filter::All => true,
        Filter::PrOnly => !lr,
        Filter::LrRowFriendly => lr && banks.outcome(e) != RowOutcome::Conflict,
        Filter::LrRrpcCold => lr && banks.cold >> e.access.bank & 1 == 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any push/remove sequence the slot index agrees with a
    /// recount of the live entries: per-bank slot sets, the priority
    /// class set and its count, the occupied-bank mask, and the cached
    /// occupancy.
    #[test]
    fn slot_index_matches_recount(
        cap_pick in 0usize..4,
        ops in prop::collection::vec((0u32..4, any::<u64>()), 1..400)
    ) {
        let cap = CAPACITIES[cap_pick];
        let mut q = AccessQueue::new(cap, BANKS as usize);
        let mut live = BTreeMap::new();
        let mut next_id = 0;
        for chunk in ops.chunks(7) {
            apply_ops(&mut q, &mut live, &mut next_id, chunk);
            prop_assert!(q.len() <= cap);
            prop_assert_eq!(q.len(), live.len());
            let mut ids: Vec<u64> = q.iter().map(|(_, e)| e.id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, live.keys().copied().collect::<Vec<_>>());
            let mut per_bank = vec![SlotSet::EMPTY; BANKS as usize];
            let mut priority = SlotSet::EMPTY;
            let mut mask = 0u64;
            for (slot, e) in q.iter() {
                prop_assert!(slot < cap, "slot {} past capacity {}", slot, cap);
                prop_assert_eq!(format!("{:?}", e), format!("{:?}", live[&e.id]));
                per_bank[e.access.bank as usize].insert(slot);
                if e.class == ReadClass::Priority {
                    priority.insert(slot);
                }
                mask |= 1 << e.access.bank;
            }
            for b in 0..BANKS {
                prop_assert_eq!(q.bank_slots(b), per_bank[b as usize], "bank {}", b);
            }
            prop_assert_eq!(q.priority_slots(), priority);
            prop_assert_eq!(q.priority_count(), priority.len());
            prop_assert_eq!(q.bank_mask(), mask);
            prop_assert_eq!(q.live_slots().len(), q.len());
            prop_assert_eq!(q.occupancy(), q.len() as f64 / cap as f64);
        }
    }

    /// The slot-set pick returns the same slot as a brute-force scan —
    /// filter every live entry, then take the minimum BLISS or FR-FCFS
    /// key — under random free-bank masks, open rows, blacklists and
    /// every controller filter, for read and write queues alike.
    #[test]
    fn slot_set_pick_matches_brute_force(
        cap_pick in 0usize..4,
        ops in prop::collection::vec((0u32..4, any::<u64>()), 1..300),
        free in any::<u64>(),
        cold in any::<u64>(),
        rows in any::<u64>(),
        hogs in 0u8..16
    ) {
        let cap = CAPACITIES[cap_pick];
        let mut q = AccessQueue::new(cap, BANKS as usize);
        let mut live = BTreeMap::new();
        let mut next_id = 0;
        apply_ops(&mut q, &mut live, &mut next_id, &ops);
        let mut bliss = Bliss::new();
        for app in 0..4u8 {
            if hogs >> app & 1 == 1 {
                for _ in 0..4 {
                    bliss.on_service(app, SimTime(1));
                }
            }
        }
        // Each bank: closed, or open on one of the four rows in use.
        let mut open = [None; BANKS as usize];
        for (b, o) in open.iter_mut().enumerate() {
            let code = (rows >> (3 * b)) & 7;
            *o = (code < 4).then_some(code as u32);
        }
        let banks = Banks { open, free: free & 0xFFFF, cold: cold & 0xFFFF };
        let bliss_key = |e: &QueueEntry| {
            (bliss.is_blacklisted(e.app), banks.outcome(e) != RowOutcome::Hit, e.enqueued_at, e.id)
        };
        let frfcfs_key = |e: &QueueEntry| (banks.outcome(e) != RowOutcome::Hit, e.enqueued_at, e.id);
        for filter in FILTERS {
            let set = indexed_candidates(&q, filter, &banks);
            let want: Vec<usize> = q
                .iter()
                .filter(|(_, e)| passes(e, filter, &banks))
                .map(|(s, _)| s)
                .collect();
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), want.clone(), "{:?}", filter);
            let want_bliss = want.iter().copied().min_by_key(|&s| bliss_key(q.entry(s)));
            let got_bliss = bliss.pick(&q, &set, |e| banks.outcome(e));
            prop_assert_eq!(got_bliss, want_bliss, "BLISS {:?}", filter);
            let want_fr = want.iter().copied().min_by_key(|&s| frfcfs_key(q.entry(s)));
            let got_fr = FrFcfs::new().pick(&q, &set, |e| banks.outcome(e));
            prop_assert_eq!(got_fr, want_fr, "FR-FCFS {:?}", filter);
        }
    }

    /// The queue never exceeds capacity, never loses or duplicates an
    /// entry, and hands back exactly what was pushed, under arbitrary
    /// push/remove interleavings. (Iteration is slot-ordered, not
    /// age-ordered — age lives in the entries themselves.)
    #[test]
    fn queue_capacity_and_conservation(
        ops in prop::collection::vec((any::<bool>(), 0usize..8), 1..200)
    ) {
        let mut q = AccessQueue::new(16, 1);
        let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut next_id = 0u64;
        for (push, pos) in ops {
            if push {
                let e = entry(next_id, 0, 0, next_id);
                if q.push(e).is_ok() {
                    live.insert(next_id);
                }
                next_id += 1;
            } else if !q.is_empty() {
                let slot = q.iter().nth(pos % q.len()).expect("in range").0;
                let removed = q.remove(slot);
                prop_assert!(live.remove(&removed.id), "removed unknown id");
            }
            prop_assert!(q.len() <= 16);
            prop_assert_eq!(q.len(), live.len());
            let mut ids: Vec<u64> = q.iter().map(|(_, e)| e.id).collect();
            ids.sort_unstable();
            let mut want: Vec<u64> = live.iter().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(ids, want, "queue contents drifted from reference");
        }
    }

    /// BLISS never picks a blacklisted app while a non-blacklisted
    /// candidate exists.
    #[test]
    fn bliss_never_prefers_blacklisted(
        apps in prop::collection::vec(0u8..4, 2..32),
        hog in 0u8..4
    ) {
        let mut bliss = Bliss::new();
        for _ in 0..4 {
            bliss.on_service(hog, SimTime(1));
        }
        let entries: Vec<QueueEntry> = apps
            .iter()
            .enumerate()
            .map(|(i, &a)| entry(i as u64, a, i as u32 % 16, i as u64))
            .collect();
        let q = queue_of(&entries);
        let picked = bliss
            .pick(&q, &q.live_slots(), |_| RowOutcome::Closed)
            .unwrap();
        let picked_app = q.entry(picked).app;
        let clean_exists = apps.iter().any(|&a| a != hog);
        if clean_exists {
            prop_assert_ne!(picked_app, hog, "picked the blacklisted hog");
        }
    }

    /// FR-FCFS picks a row hit whenever one exists.
    #[test]
    fn frfcfs_prefers_any_row_hit(
        banks in prop::collection::vec(0u32..16, 2..32),
        hit_bank in 0u32..16
    ) {
        let entries: Vec<QueueEntry> = banks
            .iter()
            .enumerate()
            .map(|(i, &b)| entry(i as u64, 0, b, i as u64))
            .collect();
        let q = queue_of(&entries);
        let picked = FrFcfs::new()
            .pick(&q, &q.live_slots(), |e| {
                if e.access.bank == hit_bank {
                    RowOutcome::Hit
                } else {
                    RowOutcome::Conflict
                }
            })
            .unwrap();
        if banks.contains(&hit_bank) {
            prop_assert_eq!(q.entry(picked).access.bank, hit_bank);
        }
    }

    /// Hysteresis output only changes when crossing a threshold, and the
    /// active set is consistent with the band.
    #[test]
    fn hysteresis_band_behaviour(occs in prop::collection::vec(0.0f64..1.0, 1..200)) {
        let mut h = Hysteresis::new(0.5, 0.8);
        let mut active = false;
        for occ in occs {
            let got = h.update(occ);
            if occ > 0.8 {
                active = true;
            } else if occ < 0.5 {
                active = false;
            }
            prop_assert_eq!(got, active);
        }
    }

    /// The drain policy never drains an empty-ish queue below the low
    /// mark and always drains above the high mark.
    #[test]
    fn drain_policy_bounds(occs in prop::collection::vec(0.0f64..1.0, 1..200), reads in any::<bool>()) {
        let mut d = DrainPolicy::paper();
        for occ in occs {
            let drain = d.should_drain(occ, reads);
            if occ > 0.85 {
                prop_assert!(drain, "must drain above high mark");
            }
            if occ < 0.50 {
                prop_assert!(!drain || d.forced(), "no drain below low mark unless forced tail");
            }
        }
    }
}
