//! Functional tag / dirty / replacement state.
//!
//! This array answers "hit or miss, which way, who's the victim" — the
//! *functional* half of the cache. The *timing* of reading and writing
//! this state through the DRAM array is what the controller designs
//! schedule; it is modelled by the access streams, not here.
//!
//! Replacement is pluggable per [`ReplacementPolicy`]:
//!
//! * [`ReplacementPolicy::Srrip`] (the default, and the only policy the
//!   seed model had): SRRIP (Jaleel et al., the paper's citation \[12\]
//!   for re-reference prediction) — 2-bit RRPV per way, hit promotes to
//!   0, insertion at 2, victim = first way with RRPV 3 (aging increments
//!   all until one qualifies).
//! * [`ReplacementPolicy::Lru`] / [`ReplacementPolicy::LruClean`] /
//!   [`ReplacementPolicy::LruDirty`]: true LRU stack positions per way
//!   (0 = MRU), with the gem5 `DRAMCacheCtrl` exemplar's `lruc`/`lrud`
//!   variants preferring to evict the LRU *clean* (no victim writeback)
//!   or LRU *dirty* (drain dirt early) way when one exists.
//!
//! For the direct-mapped organisation the set has one way and every
//! policy degenerates to the same trivial replacement.
//!
//! ## Checkpoints
//!
//! The live array is dense (`sets × ways` entries of 8 bytes — 30 MiB
//! at paper scale), but the functional warm-up fills only 7.5–10% of
//! it. A [`TagSnapshot`] therefore stores just the entries that
//! differ from the all-invalid default, as a sorted `u32` flat index
//! plus the entry. [`TagArray::snapshot`] compacts,
//! [`TagArray::from_snapshot`] and [`TagArray::restore`] expand (a
//! default array, then a scatter of the stored entries). Both types
//! encode to the same dense `(tag, flags, state)` record stream, so a
//! checkpoint blob does not depend on which one wrote it, and
//! [`TagSnapshot::decode`] reads that stream without allocating the
//! dense array.

use dca_sim_core::{prefetch_read, ByteReader, ByteWriter, CodecError};

/// Outcome of inserting a block into a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Way the block was placed in.
    pub way: u16,
    /// Evicted victim `(tag, was_dirty)` if a valid block was displaced.
    pub evicted: Option<(u32, bool)>,
}

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

/// Which replacement policy governs a [`TagArray`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// 2-bit SRRIP (seed behaviour, bit-identical to the pre-layer code).
    #[default]
    Srrip,
    /// True LRU: evict the least-recently-used way.
    Lru,
    /// LRU preferring clean victims (gem5 exemplar `lruc`): evict the
    /// LRU clean way when any way is clean, else plain LRU.
    LruClean,
    /// LRU preferring dirty victims (gem5 exemplar `lrud`): evict the
    /// LRU dirty way when any way is dirty, else plain LRU.
    LruDirty,
}

impl ReplacementPolicy {
    /// Every policy, SRRIP (the default) first.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Srrip,
        ReplacementPolicy::Lru,
        ReplacementPolicy::LruClean,
        ReplacementPolicy::LruDirty,
    ];

    /// Display label for reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Srrip => "srrip",
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::LruClean => "lruc",
            ReplacementPolicy::LruDirty => "lrud",
        }
    }

    /// Stable numeric code for codecs and fingerprints.
    pub fn code(self) -> u8 {
        match self {
            ReplacementPolicy::Srrip => 0,
            ReplacementPolicy::Lru => 1,
            ReplacementPolicy::LruClean => 2,
            ReplacementPolicy::LruDirty => 3,
        }
    }

    /// Inverse of [`ReplacementPolicy::code`].
    pub fn from_code(code: u8) -> Option<ReplacementPolicy> {
        ReplacementPolicy::ALL
            .into_iter()
            .find(|p| p.code() == code)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TagEntry {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Per-way replacement state: the RRPV under SRRIP, the LRU stack
    /// position (0 = MRU) under the LRU family.
    state: u8,
}

/// The functional tag array: `sets × ways` entries, flat storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagArray {
    entries: Vec<TagEntry>,
    sets: u64,
    ways: u16,
    policy: ReplacementPolicy,
}

impl TagArray {
    /// An all-invalid array under the default (SRRIP) policy.
    pub fn new(sets: u64, ways: u16) -> Self {
        Self::with_policy(sets, ways, ReplacementPolicy::Srrip)
    }

    /// An all-invalid array governed by `policy`.
    pub fn with_policy(sets: u64, ways: u16, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1);
        assert!(sets >= 1);
        assert!(
            sets.checked_mul(ways as u64)
                .is_some_and(|n| n <= MAX_ENTRIES),
            "tag array too large for a u32-indexed snapshot"
        );
        TagArray {
            entries: vec![TagEntry::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            policy,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Replacement policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    #[inline]
    fn base(&self, set: u64) -> usize {
        debug_assert!(set < self.sets);
        (set * self.ways as u64) as usize
    }

    /// Look up `tag` in `set`; returns the way on a hit. Pure.
    pub fn lookup(&self, set: u64, tag: u32) -> Option<u16> {
        let base = self.base(set);
        self.entries[base..base + self.ways as usize]
            .iter()
            .position(|e| e.valid && e.tag == tag)
            .map(|w| w as u16)
    }

    /// Hint that `set` will be looked up soon: start loading its entries
    /// into the host cache. Changes nothing.
    #[inline]
    pub fn prefetch(&self, set: u64) {
        let base = self.base(set);
        prefetch_read(&self.entries, base);
        prefetch_read(&self.entries, base + self.ways as usize - 1);
    }

    /// Whether (set, way) currently holds dirty data.
    pub fn is_dirty(&self, set: u64, way: u16) -> bool {
        self.entries[self.base(set) + way as usize].dirty
    }

    /// Record a hit on (set, way): promote its replacement state.
    pub fn touch(&mut self, set: u64, way: u16) {
        let base = self.base(set);
        match self.policy {
            ReplacementPolicy::Srrip => self.entries[base + way as usize].state = 0,
            _ => {
                // LRU family: move to MRU, older entries shift down.
                let old = self.entries[base + way as usize].state;
                for e in &mut self.entries[base..base + self.ways as usize] {
                    if e.valid && e.state < old {
                        e.state += 1;
                    }
                }
                self.entries[base + way as usize].state = 0;
            }
        }
    }

    /// Mark (set, way) dirty (hit by a writeback).
    pub fn set_dirty(&mut self, set: u64, way: u16, dirty: bool) {
        let base = self.base(set);
        self.entries[base + way as usize].dirty = dirty;
    }

    /// The LRU-family victim among a full set: the preferred class's
    /// oldest way, falling back to the overall LRU way. Ties cannot
    /// happen — stack positions are a permutation of `0..ways`.
    fn lru_victim(&self, base: usize) -> usize {
        let ways = &self.entries[base..base + self.ways as usize];
        let prefer: Option<fn(&TagEntry) -> bool> = match self.policy {
            ReplacementPolicy::LruClean => Some(|e| !e.dirty),
            ReplacementPolicy::LruDirty => Some(|e| e.dirty),
            _ => None,
        };
        let oldest = |pred: &dyn Fn(&TagEntry) -> bool| {
            ways.iter()
                .enumerate()
                .filter(|(_, e)| pred(e))
                .max_by_key(|(_, e)| e.state)
                .map(|(i, _)| i)
        };
        prefer
            .and_then(|p| oldest(&p))
            .or_else(|| oldest(&|_| true))
            .expect("full set has a victim")
    }

    /// Identify the victim way an insertion into `set` would use, without
    /// modifying anything. Invalid ways win first; otherwise the policy
    /// decides (SRRIP aging is *simulated* — the actual aging happens on
    /// insert).
    pub fn victim_way(&self, set: u64) -> (u16, Option<(u32, bool)>) {
        let base = self.base(set);
        let ways = &self.entries[base..base + self.ways as usize];
        if let Some(w) = ways.iter().position(|e| !e.valid) {
            return (w as u16, None);
        }
        let best = match self.policy {
            ReplacementPolicy::Srrip => {
                // SRRIP: pick the first way whose RRPV would reach MAX
                // first — i.e. the way with the highest current RRPV;
                // ties to lowest index.
                let mut best = 0usize;
                for (i, e) in ways.iter().enumerate().skip(1) {
                    if e.state > ways[best].state {
                        best = i;
                    }
                }
                best
            }
            _ => self.lru_victim(base),
        };
        let v = &ways[best];
        (best as u16, Some((v.tag, v.dirty)))
    }

    /// Insert `tag` into `set`, evicting per the policy if needed.
    pub fn insert(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        match self.policy {
            ReplacementPolicy::Srrip => self.insert_srrip(set, tag, dirty),
            _ => self.insert_lru(set, tag, dirty),
        }
    }

    fn insert_srrip(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        let base = self.base(set);
        // Reuse an invalid way when available.
        if let Some(w) = (0..self.ways as usize).find(|&w| !self.entries[base + w].valid) {
            self.entries[base + w] = TagEntry {
                tag,
                valid: true,
                dirty,
                state: RRPV_INSERT,
            };
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        // Age until some way reaches RRPV_MAX.
        loop {
            if let Some(w) =
                (0..self.ways as usize).find(|&w| self.entries[base + w].state >= RRPV_MAX)
            {
                let victim = self.entries[base + w];
                self.entries[base + w] = TagEntry {
                    tag,
                    valid: true,
                    dirty,
                    state: RRPV_INSERT,
                };
                return InsertOutcome {
                    way: w as u16,
                    evicted: Some((victim.tag, victim.dirty)),
                };
            }
            for w in 0..self.ways as usize {
                self.entries[base + w].state += 1;
            }
        }
    }

    fn insert_lru(&mut self, set: u64, tag: u32, dirty: bool) -> InsertOutcome {
        let base = self.base(set);
        if let Some(w) = (0..self.ways as usize).find(|&w| !self.entries[base + w].valid) {
            // New block enters at MRU; every resident ages one step.
            for e in &mut self.entries[base..base + self.ways as usize] {
                if e.valid {
                    e.state += 1;
                }
            }
            self.entries[base + w] = TagEntry {
                tag,
                valid: true,
                dirty,
                state: 0,
            };
            return InsertOutcome {
                way: w as u16,
                evicted: None,
            };
        }
        let w = self.lru_victim(base);
        let victim = self.entries[base + w];
        // Ways younger than the victim age one step; older ones keep
        // their positions — the stack stays a permutation of 0..ways.
        for e in &mut self.entries[base..base + self.ways as usize] {
            if e.state < victim.state {
                e.state += 1;
            }
        }
        self.entries[base + w] = TagEntry {
            tag,
            valid: true,
            dirty,
            state: 0,
        };
        InsertOutcome {
            way: w as u16,
            evicted: Some((victim.tag, victim.dirty)),
        }
    }

    /// Invalidate (set, way); returns `(tag, was_dirty)` if it was valid.
    /// The entry keeps its tag, dirty bit and state. Under the LRU family
    /// the ways older than it move up one stack position, so the valid
    /// ways' positions stay a permutation of `0..valid` (and below `ways`
    /// after later fills).
    pub fn invalidate(&mut self, set: u64, way: u16) -> Option<(u32, bool)> {
        let base = self.base(set);
        let e = self.entries[base + way as usize];
        if !e.valid {
            return None;
        }
        self.entries[base + way as usize].valid = false;
        if self.policy != ReplacementPolicy::Srrip {
            for o in &mut self.entries[base..base + self.ways as usize] {
                if o.valid && o.state > e.state {
                    o.state -= 1;
                }
            }
        }
        Some((e.tag, e.dirty))
    }

    /// Count of valid entries (test/diagnostic helper; O(sets×ways)).
    pub fn valid_count(&self) -> u64 {
        self.entries.iter().filter(|e| e.valid).count() as u64
    }

    /// Capture the complete tag/dirty/replacement state as a compact
    /// [`TagSnapshot`]: only the entries that differ from the all-invalid
    /// default are stored.
    pub fn snapshot(&self) -> TagSnapshot {
        let mut snap = TagSnapshot::empty(self.sets, self.ways, self.policy);
        for (i, e) in self.entries.iter().enumerate() {
            if *e != TagEntry::default() {
                snap.index.push(i as u32);
                snap.entries.push(*e);
            }
        }
        snap.index.shrink_to_fit();
        snap.entries.shrink_to_fit();
        snap
    }

    /// A dense array rebuilt from `snap`: a fresh all-invalid array,
    /// then a scatter of the stored entries.
    pub fn from_snapshot(snap: &TagSnapshot) -> TagArray {
        let mut t = TagArray::with_policy(snap.sets, snap.ways, snap.policy);
        t.scatter(snap);
        t
    }

    /// Overwrite this array's state with a previously captured snapshot.
    ///
    /// # Panics
    /// Panics on a geometry or policy mismatch.
    pub fn restore(&mut self, snap: &TagSnapshot) {
        assert_eq!(
            (self.sets, self.ways),
            (snap.sets, snap.ways),
            "snapshot geometry mismatch: {}x{} vs {}x{}",
            snap.sets,
            snap.ways,
            self.sets,
            self.ways
        );
        assert_eq!(self.policy, snap.policy, "snapshot policy mismatch");
        self.entries.fill(TagEntry::default());
        self.scatter(snap);
    }

    /// Write `snap`'s stored entries over this (all-default) array.
    fn scatter(&mut self, snap: &TagSnapshot) {
        for (&i, &e) in snap.index.iter().zip(&snap.entries) {
            self.entries[i as usize] = e;
        }
    }

    /// Serialise the full state into `w` (checkpoint-file payload).
    /// Layout: sets, ways, policy code, then one
    /// `(tag, valid|dirty flags, state)` record per entry.
    pub fn encode(&self, w: &mut ByteWriter) {
        put_header(w, self.sets, self.ways, self.policy);
        for e in &self.entries {
            put_record(w, e);
        }
    }
}

/// Entries a [`TagSnapshot`] can address: its flat index is a `u32`.
const MAX_ENTRIES: u64 = 1 << 32;

/// Bytes per `(tag, flags, state)` record in the tag codec.
const RECORD_BYTES: usize = 6;

fn put_header(w: &mut ByteWriter, sets: u64, ways: u16, policy: ReplacementPolicy) {
    w.put_u64(sets);
    w.put_u16(ways);
    w.put_u8(policy.code());
}

fn put_record(w: &mut ByteWriter, e: &TagEntry) {
    w.put_u32(e.tag);
    w.put_u8(e.valid as u8 | (e.dirty as u8) << 1);
    w.put_u8(e.state);
}

/// A compact checkpoint of a [`TagArray`].
///
/// After the functional warm-up only about a tenth of the paper-scale
/// array is filled, so the snapshot keeps the geometry and policy plus
/// only the entries that differ from the all-invalid default: a sorted
/// `u32` flat index (`set * ways + way`) and the entry itself, 12 bytes
/// per stored entry instead of 8 bytes per entry of the whole array.
/// Every non-default entry is kept, not only the valid ones, so an
/// invalidated entry (stale tag, dirty bit or replacement state) comes
/// back exactly. [`TagArray::snapshot`] builds one and
/// [`TagArray::from_snapshot`] / [`TagArray::restore`] expand it.
///
/// The codec streams the same dense layout as [`TagArray::encode`] —
/// default records fill the gaps — so a snapshot and the array it was
/// taken from encode to identical bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagSnapshot {
    sets: u64,
    ways: u16,
    policy: ReplacementPolicy,
    /// Flat indices of the stored entries, strictly ascending.
    index: Vec<u32>,
    /// The stored entries, parallel to `index`.
    entries: Vec<TagEntry>,
}

impl TagSnapshot {
    fn empty(sets: u64, ways: u16, policy: ReplacementPolicy) -> Self {
        TagSnapshot {
            sets,
            ways,
            policy,
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Number of sets of the captured array.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity of the captured array.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Replacement policy of the captured array.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of stored (non-default) entries.
    pub fn stored(&self) -> usize {
        self.index.len()
    }

    /// Heap bytes this snapshot holds.
    pub fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<TagEntry>()
    }

    /// Heap bytes the dense [`TagArray`] it expands to holds.
    pub fn dense_bytes(&self) -> usize {
        (self.sets * self.ways as u64) as usize * std::mem::size_of::<TagEntry>()
    }

    /// Serialise in the [`TagArray::encode`] layout, writing a default
    /// record for every entry the snapshot does not store.
    pub fn encode(&self, w: &mut ByteWriter) {
        put_header(w, self.sets, self.ways, self.policy);
        let mut next = 0usize;
        for (&i, e) in self.index.iter().zip(&self.entries) {
            w.put_zeros((i as usize - next) * RECORD_BYTES);
            put_record(w, e);
            next = i as usize + 1;
        }
        let n = (self.sets * self.ways as u64) as usize;
        w.put_zeros((n - next) * RECORD_BYTES);
    }

    /// Rebuild a snapshot from a [`TagArray::encode`] (or
    /// [`TagSnapshot::encode`]) payload, keeping only the non-default
    /// records. The dense array is never allocated.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TagSnapshot, CodecError> {
        let sets = r.u64()?;
        let ways = r.u16()?;
        if sets == 0 || ways == 0 {
            return Err(CodecError::new("invalid tag array geometry"));
        }
        let policy = ReplacementPolicy::from_code(r.u8()?)
            .ok_or(CodecError::new("unknown replacement policy code"))?;
        let n = sets
            .checked_mul(ways as u64)
            .filter(|&n| n <= MAX_ENTRIES)
            .ok_or(CodecError::new(
                "tag array entry count exceeds the snapshot index",
            ))? as usize;
        // Reject implausible counts from a corrupt header before
        // touching the records.
        if r.remaining() < n * RECORD_BYTES {
            return Err(CodecError::new("tag array entry count exceeds buffer"));
        }
        let records = r.bytes(n * RECORD_BYTES)?;
        // Per-policy bound on the per-way state byte.
        let state_ok = |s: u8| match policy {
            ReplacementPolicy::Srrip => s <= RRPV_MAX,
            _ => (s as u16) < ways,
        };
        let mut snap = TagSnapshot::empty(sets, ways, policy);
        for (i, rec) in records.chunks_exact(RECORD_BYTES).enumerate() {
            if rec == [0; RECORD_BYTES] {
                continue;
            }
            let tag = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let (flags, state) = (rec[4], rec[5]);
            if flags > 0b11 || !state_ok(state) {
                return Err(CodecError::new("invalid tag entry state"));
            }
            snap.index.push(i as u32);
            snap.entries.push(TagEntry {
                tag,
                valid: flags & 1 != 0,
                dirty: flags & 2 != 0,
                state,
            });
        }
        snap.index.shrink_to_fit();
        snap.entries.shrink_to_fit();
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = TagArray::new(16, 4);
        assert_eq!(t.lookup(3, 77), None);
        let out = t.insert(3, 77, false);
        assert_eq!(out.evicted, None);
        assert_eq!(t.lookup(3, 77), Some(out.way));
    }

    #[test]
    fn dirty_tracking() {
        let mut t = TagArray::new(4, 2);
        let out = t.insert(1, 5, false);
        assert!(!t.is_dirty(1, out.way));
        t.set_dirty(1, out.way, true);
        assert!(t.is_dirty(1, out.way));
        t.set_dirty(1, out.way, false);
        assert!(!t.is_dirty(1, out.way));
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(1, 4, policy);
            for tag in 0..4 {
                let out = t.insert(0, tag, false);
                assert_eq!(out.evicted, None, "{policy:?}: way {tag} should be free");
            }
            let out = t.insert(0, 99, false);
            assert!(out.evicted.is_some(), "{policy:?}: 5th insert must evict");
            assert_eq!(t.valid_count(), 4);
        }
    }

    #[test]
    fn srrip_protects_recently_touched() {
        let mut t = TagArray::new(1, 2);
        let a = t.insert(0, 1, false);
        let _b = t.insert(0, 2, false);
        // Touch tag 1 so its RRPV drops to 0; tag 2 stays at insert RRPV.
        t.touch(0, a.way);
        let out = t.insert(0, 3, false);
        let (victim_tag, _) = out.evicted.unwrap();
        assert_eq!(victim_tag, 2, "untouched block is the victim");
        assert_eq!(t.lookup(0, 1), Some(a.way));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::Lru);
        for tag in 1..=3 {
            t.insert(0, tag, false);
        }
        // Touch 1 then 2: tag 3 becomes the LRU way.
        t.touch(0, t.lookup(0, 1).unwrap());
        t.touch(0, t.lookup(0, 2).unwrap());
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((3, false)));
        assert!(t.lookup(0, 1).is_some());
        assert!(t.lookup(0, 2).is_some());
    }

    #[test]
    fn lruc_prefers_clean_victims() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::LruClean);
        t.insert(0, 1, true); // oldest, dirty
        t.insert(0, 2, false); // middle, clean
        t.insert(0, 3, true); // newest, dirty
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((2, false)), "clean way evicts first");
        // All dirty now: falls back to plain LRU (tag 1 is oldest).
        t.set_dirty(0, t.lookup(0, 9).unwrap(), true);
        let out = t.insert(0, 10, false);
        assert_eq!(out.evicted, Some((1, true)));
    }

    #[test]
    fn lrud_prefers_dirty_victims() {
        let mut t = TagArray::with_policy(1, 3, ReplacementPolicy::LruDirty);
        t.insert(0, 1, false); // oldest, clean
        t.insert(0, 2, true); // middle, dirty
        t.insert(0, 3, false); // newest, clean
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((2, true)), "dirty way evicts first");
        // All clean now: falls back to plain LRU (tag 1 is oldest).
        let out = t.insert(0, 10, false);
        assert_eq!(out.evicted, Some((1, false)));
    }

    #[test]
    fn lru_touch_never_evicts_and_keeps_permutation() {
        let mut t = TagArray::with_policy(2, 4, ReplacementPolicy::Lru);
        for tag in 0..4 {
            t.insert(1, tag, false);
        }
        for tag in 0..4u32 {
            t.touch(1, t.lookup(1, tag).unwrap());
            assert_eq!(t.valid_count(), 4);
            // Every resident must still be found.
            for probe in 0..4 {
                assert!(t.lookup(1, probe).is_some());
            }
        }
    }

    #[test]
    fn victim_way_predicts_insert() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(1, 4, policy);
            for tag in 0..4 {
                t.insert(0, tag, tag % 2 == 1);
            }
            let (way, evicted) = t.victim_way(0);
            let out = t.insert(0, 42, false);
            assert_eq!(way, out.way, "{policy:?}");
            assert_eq!(evicted, out.evicted, "{policy:?}");
        }
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut t = TagArray::new(1, 1);
        t.insert(0, 7, true);
        let out = t.insert(0, 8, false);
        assert_eq!(out.evicted, Some((7, true)));
        let out = t.insert(0, 9, false);
        assert_eq!(out.evicted, Some((8, false)));
    }

    #[test]
    fn invalidate_round_trip() {
        let mut t = TagArray::new(2, 2);
        let out = t.insert(1, 3, true);
        assert_eq!(t.invalidate(1, out.way), Some((3, true)));
        assert_eq!(t.invalidate(1, out.way), None);
        assert_eq!(t.lookup(1, 3), None);
    }

    #[test]
    fn lru_invalidate_keeps_stack_positions_in_range() {
        // Invalidate the MRU way, refill it: without closing the gap the
        // oldest way would age to position `ways` and the codec would
        // refuse the array.
        let mut t = TagArray::with_policy(1, 2, ReplacementPolicy::Lru);
        t.insert(0, 1, false);
        let b = t.insert(0, 2, false);
        t.invalidate(0, b.way);
        t.insert(0, 3, false);
        let mut w = dca_sim_core::ByteWriter::new();
        t.encode(&mut w);
        let buf = w.into_vec();
        let snap = TagSnapshot::decode(&mut dca_sim_core::ByteReader::new(&buf)).expect("decode");
        assert_eq!(TagArray::from_snapshot(&snap), t);
        assert_eq!(t.insert(0, 4, false).evicted, Some((1, false)));
    }

    #[test]
    fn direct_mapped_single_way() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(8, 1, policy);
            t.insert(5, 1, false);
            let out = t.insert(5, 2, true);
            assert_eq!(out.way, 0);
            assert_eq!(out.evicted, Some((1, false)));
            assert_eq!(t.lookup(5, 2), Some(0));
            assert_eq!(t.lookup(5, 1), None);
        }
    }

    #[test]
    fn snapshot_restore_and_codec_round_trip() {
        for policy in ReplacementPolicy::ALL {
            let mut t = TagArray::with_policy(64, 4, policy);
            let mut x = 5u64;
            for _ in 0..600 {
                x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
                let (set, tag) = (x % 64, (x >> 8) as u32 & 0xFF);
                match t.lookup(set, tag) {
                    Some(w) => t.touch(set, w),
                    None => {
                        t.insert(set, tag, x & 1 == 0);
                    }
                }
            }
            let snap = t.snapshot();

            // Codec round trip reproduces the snapshot bit-for-bit.
            let mut w = dca_sim_core::ByteWriter::new();
            snap.encode(&mut w);
            let buf = w.into_vec();
            let mut r = dca_sim_core::ByteReader::new(&buf);
            let decoded_snap = TagSnapshot::decode(&mut r).expect("decode");
            r.finish().expect("fully consumed");
            assert_eq!(decoded_snap, snap);
            let mut decoded = TagArray::from_snapshot(&decoded_snap);
            assert_eq!(decoded.policy(), policy);

            // Diverge, restore, then both must behave identically.
            for s in 0..64 {
                t.insert(s, 999, true);
            }
            t.restore(&snap);
            assert_eq!(t, decoded);
            for _ in 0..600 {
                x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
                let (set, tag) = (x % 64, (x >> 8) as u32 & 0xFF);
                assert_eq!(t.lookup(set, tag), decoded.lookup(set, tag));
                assert_eq!(t.victim_way(set), decoded.victim_way(set));
                assert_eq!(
                    t.insert(set, tag, x & 1 == 0),
                    decoded.insert(set, tag, x & 1 == 0)
                );
            }
        }
    }

    #[test]
    fn snapshot_stores_only_non_default_entries() {
        let mut t = TagArray::new(1024, 4);
        assert_eq!(t.snapshot().stored(), 0);
        for set in 0..10 {
            t.insert(set, 7, false);
        }
        // An invalidated entry keeps its tag and state: still stored.
        t.invalidate(3, 0);
        let snap = t.snapshot();
        assert_eq!(snap.stored(), 10);
        assert_eq!(t.valid_count(), 9);
        assert!(snap.heap_bytes() < snap.dense_bytes());
        assert_eq!(TagArray::from_snapshot(&snap), t);
        // Snapshot and dense array encode to the same bytes.
        let (mut a, mut b) = (
            dca_sim_core::ByteWriter::new(),
            dca_sim_core::ByteWriter::new(),
        );
        t.encode(&mut a);
        snap.encode(&mut b);
        assert_eq!(a.into_vec(), b.into_vec());
    }

    #[test]
    fn decode_rejects_invalid_state() {
        for policy in [ReplacementPolicy::Srrip, ReplacementPolicy::Lru] {
            let mut t = TagArray::with_policy(2, 1, policy);
            t.insert(0, 1, false);
            let mut w = dca_sim_core::ByteWriter::new();
            t.encode(&mut w);
            let mut buf = w.into_vec();
            let last = buf.len() - 1; // state byte of the final entry
            buf[last] = match policy {
                ReplacementPolicy::Srrip => RRPV_MAX + 1,
                _ => 1, // stack position must stay below ways (= 1)
            };
            let mut r = dca_sim_core::ByteReader::new(&buf);
            assert!(TagSnapshot::decode(&mut r).is_err(), "{policy:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_flags_and_oversized_counts() {
        let t = TagArray::new(2, 1);
        let mut w = dca_sim_core::ByteWriter::new();
        t.encode(&mut w);
        let mut buf = w.into_vec();
        buf[11 + 4] = 0b100; // flags byte of the first record
        let mut r = dca_sim_core::ByteReader::new(&buf);
        let err = TagSnapshot::decode(&mut r).unwrap_err();
        assert!(err.to_string().contains("entry state"));

        // A header promising more entries than a u32 index can address
        // (or than the buffer holds) is refused before any record.
        for (sets, ways) in [(1u64 << 32, 2u16), (3, 1)] {
            let mut w = dca_sim_core::ByteWriter::new();
            put_header(&mut w, sets, ways, ReplacementPolicy::Srrip);
            w.put_zeros(2 * RECORD_BYTES);
            let buf = w.into_vec();
            let mut r = dca_sim_core::ByteReader::new(&buf);
            let err = TagSnapshot::decode(&mut r).unwrap_err();
            assert!(
                err.to_string().contains("entry count"),
                "{sets}x{ways}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_policy() {
        let t = TagArray::new(2, 1);
        let mut w = dca_sim_core::ByteWriter::new();
        t.encode(&mut w);
        let mut buf = w.into_vec();
        buf[10] = 0xEE; // the policy byte follows sets (8) + ways (2)
        let mut r = dca_sim_core::ByteReader::new(&buf);
        let err = TagSnapshot::decode(&mut r).unwrap_err();
        assert!(err.to_string().contains("replacement policy"));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let a = TagArray::new(4, 2);
        let mut b = TagArray::new(8, 2);
        b.restore(&a.snapshot());
    }

    #[test]
    #[should_panic(expected = "policy mismatch")]
    fn restore_rejects_wrong_policy() {
        let a = TagArray::with_policy(4, 2, ReplacementPolicy::Lru);
        let mut b = TagArray::new(4, 2);
        b.restore(&a.snapshot());
    }

    #[test]
    fn sets_are_independent() {
        let mut t = TagArray::new(4, 1);
        t.insert(0, 1, false);
        t.insert(1, 2, false);
        assert_eq!(t.lookup(0, 1), Some(0));
        assert_eq!(t.lookup(1, 2), Some(0));
        assert_eq!(t.lookup(2, 1), None);
    }
}
