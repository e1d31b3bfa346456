//! Bounded access queues with a bank-indexed slot index.
//!
//! [`AccessQueue`] stores each entry in a fixed *slot* (handed out by a
//! LIFO free stack, so push and remove are O(1) and never allocate) and
//! keeps an index of the live slots that is updated on every
//! [`AccessQueue::push`] and [`AccessQueue::remove`]:
//!
//! * one slot bitset per bank, `ceil(capacity / 64)` words each;
//! * a bitset of the [`ReadClass::Priority`] slots, plus their count;
//! * a mask of the banks that hold at least one entry.
//!
//! Arbitration never scans the queue. A controller asks for the slots on
//! a set of banks ([`AccessQueue::slots_on`]: OR the bitsets of those
//! banks, optionally masked by class) and the arbiter evaluates its key
//! only on that [`SlotSet`]. The work per pick therefore scales with the
//! number of *eligible* entries, not with the queue's occupancy.
//!
//! Visit order is ascending slot order, which is neither age nor
//! insertion order. Every arbiter's key ends in the entry's unique `id`,
//! so the minimum is unique and the winner does not depend on the order
//! the candidates are visited in.
//!
//! Slot ids are stable for the lifetime of their entry but recycled
//! afterwards; they are meaningful only between one arbitration pass and
//! the following `remove`.

use dca_dram::DramAccess;
use dca_sim_core::SimTime;

/// Words in a [`SlotSet`].
pub const SLOT_WORDS: usize = 4;

/// Largest queue capacity the slot index can represent.
pub const MAX_CAPACITY: usize = SLOT_WORDS * 64;

/// Largest bank count the index can represent: the occupied-bank mask,
/// like the channel's free-bank mask, is one `u64`.
pub const MAX_BANKS: usize = dca_dram::MAX_CHANNEL_BANKS;

/// Priority class of a read access in the DCA design (§IV-B).
///
/// Reads from cache *read* requests are [`ReadClass::Priority`] (PR);
/// reads from cache *writeback/refill* requests are
/// [`ReadClass::LowPriority`] (LR). CD and ROD ignore this field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// PR: on the critical path of a processor read.
    Priority,
    /// LR: tag reads for writebacks / refills; off the critical path.
    LowPriority,
}

/// One queued DRAM access plus the request metadata arbitration needs.
#[derive(Clone, Copy, Debug)]
pub struct QueueEntry {
    /// Unique id assigned by the controller; ties broken by id so
    /// arbitration is deterministic.
    pub id: u64,
    /// The DRAM access to perform.
    pub access: DramAccess,
    /// Issuing application (core) — BLISS's blacklisting unit.
    pub app: u8,
    /// PR/LR classification (meaningful for reads under DCA).
    pub class: ReadClass,
    /// When the entry entered the queue.
    pub enqueued_at: SimTime,
}

/// A set of queue slots: a fixed bitset of [`MAX_CAPACITY`] bits, so
/// candidate sets are built on the stack and copied freely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSet([u64; SLOT_WORDS]);

impl SlotSet {
    /// The empty set.
    pub const EMPTY: SlotSet = SlotSet([0; SLOT_WORDS]);

    /// True when no slot is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Number of slots in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `slot` is in the set.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Add `slot`.
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    /// Drop `slot`.
    #[inline]
    pub fn remove(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    /// Keep only the slots for which `keep` returns true.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for slot in self.iter() {
            if !keep(slot) {
                self.remove(slot);
            }
        }
    }

    /// The slots in ascending order.
    #[inline]
    pub fn iter(&self) -> SlotIter {
        SlotIter {
            bits: self.0[0],
            base: 0,
            words: self.0,
        }
    }
}

/// Ascending iterator over a [`SlotSet`].
#[derive(Clone, Debug)]
pub struct SlotIter {
    /// Unvisited bits of the current word.
    bits: u64,
    /// Slot number of the current word's bit 0.
    base: usize,
    words: [u64; SLOT_WORDS],
}

impl Iterator for SlotIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.base += 64;
            self.bits = *self.words.get(self.base / 64)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

/// Iterate the set bits of a bank mask, lowest bank first.
#[inline]
pub fn banks_of(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bank = mask.trailing_zeros();
            mask &= mask - 1;
            bank
        })
    })
}

/// A bounded queue of accesses with O(1) push and removal-by-slot, a
/// per-bank slot index for scan-free arbitration, and no allocation
/// after construction.
#[derive(Clone, Debug)]
pub struct AccessQueue {
    /// Entry storage by slot; only slots in `live` hold entries.
    entries: Vec<QueueEntry>,
    /// Stack of free slot ids (LIFO recycling, deterministic).
    free: Vec<u32>,
    /// Occupied slots.
    live: SlotSet,
    /// Occupied slots whose class is [`ReadClass::Priority`].
    priority: SlotSet,
    /// `|priority|`, so DCA's "any PR pending?" test is O(1).
    priority_count: usize,
    /// Per-bank slot bitsets, `words` words per bank.
    bank_slots: Vec<u64>,
    /// Words per bank bitset: `ceil(capacity / 64)`.
    words: usize,
    /// Banks with at least one queued entry.
    bank_mask: u64,
    /// `len / capacity`, recomputed on push/remove: controllers read it
    /// every scheduling slot, far more often than the queue changes.
    occupancy: f64,
    /// High-water mark, for reporting.
    peak: usize,
}

impl AccessQueue {
    /// An empty queue holding at most `capacity` entries, all addressed
    /// to banks `0..banks`. All storage is allocated up front; the queue
    /// never touches the allocator again.
    ///
    /// # Panics
    /// Panics unless `1 <= capacity <= MAX_CAPACITY` and
    /// `1 <= banks <= MAX_BANKS`.
    pub fn new(capacity: usize, banks: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity <= MAX_CAPACITY,
            "queue capacity {capacity} exceeds MAX_CAPACITY {MAX_CAPACITY}"
        );
        assert!(
            (1..=MAX_BANKS).contains(&banks),
            "bank count {banks} outside 1..={MAX_BANKS}"
        );
        let words = capacity.div_ceil(64);
        let placeholder = QueueEntry {
            id: 0,
            access: DramAccess::read(0, 0),
            app: 0,
            class: ReadClass::LowPriority,
            enqueued_at: SimTime::ZERO,
        };
        AccessQueue {
            entries: vec![placeholder; capacity],
            // Pop from the back: slot 0 is handed out first.
            free: (0..capacity as u32).rev().collect(),
            live: SlotSet::EMPTY,
            priority: SlotSet::EMPTY,
            priority_count: 0,
            bank_slots: vec![0; banks * words],
            words,
            bank_mask: 0,
            occupancy: 0.0,
            peak: 0,
        }
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.free.len() == self.entries.len()
    }

    /// True when at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Occupancy as a fraction of capacity.
    #[inline]
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    fn update_occupancy(&mut self) {
        self.occupancy = self.len() as f64 / self.capacity() as f64;
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Entries whose class is [`ReadClass::Priority`] (O(1)).
    #[inline]
    pub fn priority_count(&self) -> usize {
        self.priority_count
    }

    /// Occupied slots.
    #[inline]
    pub fn live_slots(&self) -> SlotSet {
        self.live
    }

    /// Occupied slots holding [`ReadClass::Priority`] entries.
    #[inline]
    pub fn priority_slots(&self) -> SlotSet {
        self.priority
    }

    /// Banks with at least one queued entry.
    #[inline]
    pub fn bank_mask(&self) -> u64 {
        self.bank_mask
    }

    /// Slots of the entries queued for `bank`.
    pub fn bank_slots(&self, bank: u32) -> SlotSet {
        self.slots_on(1 << bank, None)
    }

    /// Slots of the entries queued for any bank in `banks`, optionally
    /// restricted to one [`ReadClass`]: the OR of those banks' slot
    /// bitsets. Touches only banks that hold entries.
    #[inline]
    pub fn slots_on(&self, banks: u64, class: Option<ReadClass>) -> SlotSet {
        let mut set = SlotSet::EMPTY;
        for bank in banks_of(banks & self.bank_mask) {
            let base = bank as usize * self.words;
            for (w, word) in set.0[..self.words].iter_mut().enumerate() {
                *word |= self.bank_slots[base + w];
            }
        }
        match class {
            None => {}
            Some(ReadClass::Priority) => {
                for (w, p) in set.0.iter_mut().zip(self.priority.0) {
                    *w &= p;
                }
            }
            Some(ReadClass::LowPriority) => {
                for (w, p) in set.0.iter_mut().zip(self.priority.0) {
                    *w &= !p;
                }
            }
        }
        set
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `slot` is not occupied.
    #[inline]
    pub fn entry(&self, slot: usize) -> &QueueEntry {
        debug_assert!(self.live.contains(slot), "reading an empty queue slot");
        &self.entries[slot]
    }

    /// Push an entry; returns `Err(entry)` when full so callers can apply
    /// backpressure instead of losing accesses.
    ///
    /// # Panics
    /// Panics if the entry's bank is outside the queue's bank range.
    pub fn push(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        let bank = entry.access.bank as usize;
        assert!(
            bank * self.words < self.bank_slots.len(),
            "bank {bank} outside the queue's bank range"
        );
        let Some(slot) = self.free.pop() else {
            return Err(entry);
        };
        let slot = slot as usize;
        self.entries[slot] = entry;
        self.live.insert(slot);
        if entry.class == ReadClass::Priority {
            self.priority.insert(slot);
            self.priority_count += 1;
        }
        self.bank_slots[bank * self.words + slot / 64] |= 1 << (slot % 64);
        self.bank_mask |= 1 << bank;
        self.peak = self.peak.max(self.len());
        self.update_occupancy();
        Ok(())
    }

    /// Remove and return the entry in `slot` (slots come from the
    /// arbiters' picks). O(1); other entries keep their slots.
    ///
    /// # Panics
    /// Panics if `slot` is not currently occupied.
    pub fn remove(&mut self, slot: usize) -> QueueEntry {
        assert!(
            slot < self.capacity() && self.live.contains(slot),
            "removing an empty queue slot"
        );
        let entry = self.entries[slot];
        self.live.remove(slot);
        if entry.class == ReadClass::Priority {
            self.priority.remove(slot);
            self.priority_count -= 1;
        }
        let bank = entry.access.bank as usize;
        let base = bank * self.words;
        self.bank_slots[base + slot / 64] &= !(1 << (slot % 64));
        if self.bank_slots[base..base + self.words]
            .iter()
            .all(|&w| w == 0)
        {
            self.bank_mask &= !(1 << bank);
        }
        self.free.push(slot as u32);
        self.update_occupancy();
        entry
    }

    /// Iterator over `(slot, entry)` pairs in ascending slot order.
    /// Deterministic; age order is *not* implied.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &QueueEntry)> + '_ {
        self.live.iter().map(|s| (s, &self.entries[s]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_dram::DramAccess;

    fn entry(id: u64) -> QueueEntry {
        QueueEntry {
            id,
            access: DramAccess::read(0, 0),
            app: 0,
            class: ReadClass::Priority,
            enqueued_at: SimTime(id),
        }
    }

    fn ids(q: &AccessQueue) -> Vec<u64> {
        let mut v: Vec<u64> = q.iter().map(|(_, e)| e.id).collect();
        v.sort_unstable();
        v
    }

    /// Slot currently holding the entry with `id`.
    fn slot_of(q: &AccessQueue, id: u64) -> usize {
        q.iter().find(|(_, e)| e.id == id).expect("entry present").0
    }

    #[test]
    fn push_iter_and_stable_slots() {
        let mut q = AccessQueue::new(4, 1);
        for i in 0..4 {
            q.push(entry(i)).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(ids(&q), vec![0, 1, 2, 3]);
        // Removing one leaves everyone else's slot untouched.
        let s3 = slot_of(&q, 3);
        assert_eq!(q.remove(slot_of(&q, 2)).id, 2);
        assert_eq!(ids(&q), vec![0, 1, 3]);
        assert_eq!(slot_of(&q, 3), s3, "entry 3 kept its slot");
        assert_eq!(q.remove(slot_of(&q, 0)).id, 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slot_recycling_is_deterministic() {
        let mut a = AccessQueue::new(4, 1);
        let mut b = AccessQueue::new(4, 1);
        for q in [&mut a, &mut b] {
            q.push(entry(0)).unwrap();
            q.push(entry(1)).unwrap();
            q.remove(slot_of(q, 0));
            q.push(entry(2)).unwrap();
        }
        let order_a: Vec<(usize, u64)> = a.iter().map(|(s, e)| (s, e.id)).collect();
        let order_b: Vec<(usize, u64)> = b.iter().map(|(s, e)| (s, e.id)).collect();
        assert_eq!(order_a, order_b, "same ops ⇒ same slots and order");
        // The freed slot is reused immediately (LIFO).
        assert_eq!(slot_of(&a, 2), 0);
    }

    #[test]
    fn full_queue_rejects_and_returns_entry() {
        let mut q = AccessQueue::new(1, 1);
        q.push(entry(0)).unwrap();
        let rejected = q.push(entry(1)).unwrap_err();
        assert_eq!(rejected.id, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn occupancy_and_peak() {
        let mut q = AccessQueue::new(4, 1);
        assert_eq!(q.occupancy(), 0.0);
        q.push(entry(0)).unwrap();
        q.push(entry(1)).unwrap();
        assert_eq!(q.occupancy(), 0.5);
        q.remove(slot_of(&q, 0));
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn class_sets_and_priority_count() {
        let mut q = AccessQueue::new(8, 1);
        for i in 0..6 {
            let mut e = entry(i);
            if i % 3 == 0 {
                e.class = ReadClass::LowPriority;
            }
            q.push(e).unwrap();
        }
        let lr = q.slots_on(1, Some(ReadClass::LowPriority));
        let pr = q.slots_on(1, Some(ReadClass::Priority));
        assert_eq!((lr.len(), pr.len()), (2, 4));
        assert_eq!(pr, q.priority_slots());
        assert_eq!(q.priority_count(), 4);
        q.remove(slot_of(&q, 1)); // a Priority entry
        assert_eq!(q.priority_count(), 3);
        assert_eq!(q.priority_slots().len(), 3);
    }

    #[test]
    fn bank_index_tracks_push_and_remove() {
        let mut q = AccessQueue::new(96, 16);
        for i in 0..90u64 {
            let mut e = entry(i);
            e.access.bank = (i % 3) as u32 * 5; // banks 0, 5, 10
            q.push(e).unwrap();
        }
        assert_eq!(q.bank_mask(), 1 | 1 << 5 | 1 << 10);
        assert_eq!(q.bank_slots(5).len(), 30);
        // Slots past 64 land in the second word of the bank bitset.
        assert!(q.bank_slots(0).iter().any(|s| s >= 64));
        assert_eq!(q.slots_on(1 | 1 << 10 | 1 << 7, None).len(), 60);
        for s in q.bank_slots(5).iter() {
            q.remove(s);
        }
        assert_eq!(q.bank_mask(), 1 | 1 << 10);
        assert!(q.bank_slots(5).is_empty());
        assert_eq!(q.live_slots().len(), 60);
    }

    #[test]
    fn drain_and_refill_many_times() {
        // Exercise free-stack recycling well past one capacity's worth.
        let mut q = AccessQueue::new(8, 1);
        let mut next = 0u64;
        for round in 0..100u64 {
            while q.push(entry(next)).is_ok() {
                next += 1;
            }
            assert!(q.is_full());
            let victim = next - 1 - (round % 8);
            q.remove(slot_of(&q, victim));
            assert_eq!(q.len(), 7);
            assert!(!ids(&q).contains(&victim));
            while !q.is_empty() {
                let s = q.iter().next().unwrap().0;
                q.remove(s);
            }
            assert_eq!(q.bank_mask(), 0);
        }
        assert_eq!(q.peak(), 8);
        assert_eq!(q.priority_count(), 0);
    }

    #[test]
    fn slot_set_ops() {
        let mut s = SlotSet::EMPTY;
        assert!(s.is_empty());
        for slot in [0, 63, 64, 130, 255] {
            s.insert(slot);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130, 255]);
        assert!(s.contains(130) && !s.contains(129));
        s.retain(|slot| slot % 2 == 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 130]);
        assert_eq!(s.len(), 3);
        assert_eq!(banks_of(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "empty queue slot")]
    fn removing_free_slot_panics() {
        let mut q = AccessQueue::new(2, 1);
        q.push(entry(0)).unwrap();
        let s = slot_of(&q, 0);
        q.remove(s);
        q.remove(s);
    }

    #[test]
    #[should_panic(expected = "outside the queue's bank range")]
    fn pushing_out_of_range_bank_panics() {
        let mut q = AccessQueue::new(2, 4);
        let mut e = entry(0);
        e.access.bank = 4;
        let _ = q.push(e);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        AccessQueue::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CAPACITY")]
    fn oversized_capacity_panics() {
        AccessQueue::new(MAX_CAPACITY + 1, 1);
    }

    #[test]
    #[should_panic(expected = "bank count 65")]
    fn too_many_banks_panics() {
        AccessQueue::new(8, MAX_BANKS + 1);
    }
}
