//! Generic set-associative SRAM cache (L1 / L2 functional model).
//!
//! # Layout
//!
//! State is stored as parallel arrays, not one record per line. Each
//! set's tags sit side by side, one `u64` per way, with a sentinel
//! (`u64::MAX`, a tag no block maps to) marking an empty way, so a probe
//! compares `ways` plain words and needs no separate valid bit. The LRU
//! stamps live in a second array with the same indexing, and each set's
//! dirty bits form one `u64` mask (bit `w` is way `w`), which caps
//! associativity at 64.
//!
//! Why: the functional warm-up (`System::warmup` in the `dca` crate)
//! streams hundreds of thousands of ops per core through the 8 MB,
//! 16-way L2, and its host time goes to host-cache misses, not
//! arithmetic. With this layout a 16-way probe reads 128 bytes of tags
//! (two host cache lines) and writes one stamp and one mask only on a
//! hit. A 24-byte `(tag, flags, stamp)` record per way spread the same
//! probe over about six lines. [`SramCache::prefetch`] lets a caller
//! that knows a future block start loading that block's set early.
//!
//! The checkpoint encoding is still one `(tag, flags, stamp)` record per
//! line, so warm-state files do not depend on the in-memory layout.

use dca_sim_core::{prefetch_read, ByteReader, ByteWriter, CodecError, Counter};

/// Statistics for one SRAM cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct SramStats {
    /// Total probes.
    pub accesses: Counter,
    /// Probe hits.
    pub hits: Counter,
    /// Probe misses.
    pub misses: Counter,
    /// Dirty evictions produced by allocations.
    pub writebacks: Counter,
}

impl SramStats {
    /// Hit rate over all probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

/// Tag value of an invalid way. No block maps to it: a tag is the block
/// address shifted right by log2(sets), and `allocate` refuses the one
/// block (`u64::MAX` in a single-set cache) whose tag would collide.
const INVALID: u64 = u64::MAX;

/// A set-associative write-back, write-allocate SRAM cache with LRU
/// replacement.
///
/// Functional only: the enclosing system model applies the fixed hit
/// latency (2 cycles L1, 20 cycles L2 per Table II). `probe` and
/// `allocate` are split so the system can model miss timing: a miss does
/// not install the block until its refill returns.
#[derive(Clone, Debug)]
pub struct SramCache {
    /// `sets × ways` tags, set-major; [`INVALID`] for an empty way.
    tags: Vec<u64>,
    /// LRU stamp per way, indexed like `tags`.
    stamps: Vec<u64>,
    /// Dirty-way mask per set.
    dirty: Vec<u64>,
    sets: u64,
    ways: u16,
    clock: u64,
    stats: SramStats,
}

impl SramCache {
    /// A cache of `capacity_bytes` with 64-byte blocks and `ways`
    /// associativity (1 to 64). Set count must come out a power of two.
    pub fn new(capacity_bytes: u64, ways: u16) -> Self {
        assert!((1..=64).contains(&ways), "associativity must be 1 to 64");
        let blocks = capacity_bytes / 64;
        let sets = blocks / ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let lines = (sets * ways as u64) as usize;
        SramCache {
            tags: vec![INVALID; lines],
            stamps: vec![0; lines],
            dirty: vec![0; sets as usize],
            sets,
            ways,
            clock: 0,
            stats: SramStats::default(),
        }
    }

    /// The paper's L1: 32 KB, 2-way.
    pub fn paper_l1() -> Self {
        Self::new(32 * 1024, 2)
    }

    /// The paper's shared L2: 8 MB, 16-way.
    pub fn paper_l2() -> Self {
        Self::new(8 * 1024 * 1024, 16)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SramStats {
        &self.stats
    }

    /// Heap bytes the tag, stamp and dirty arrays hold.
    pub fn heap_bytes(&self) -> usize {
        (self.tags.capacity() + self.stamps.capacity() + self.dirty.capacity())
            * std::mem::size_of::<u64>()
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        (block & (self.sets - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    /// Index of the first way of `set` in `tags` and `stamps`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways as usize
    }

    /// Mask of the ways of the set at `base` whose tag equals `tag`.
    /// Branch-free: every way is compared, with no data-dependent exit.
    #[inline]
    fn match_mask(&self, base: usize, tag: u64) -> u64 {
        self.tags[base..base + self.ways as usize]
            .iter()
            .enumerate()
            .fold(0, |m, (w, &t)| m | ((t == tag) as u64) << w)
    }

    /// The way holding `block`, as `(set, base, way)`, if present.
    #[inline]
    fn find(&self, block: u64) -> (usize, usize, Option<usize>) {
        let set = self.set_of(block);
        let base = self.base(set);
        let tag = self.tag_of(block);
        let m = if tag == INVALID {
            0
        } else {
            self.match_mask(base, tag)
        };
        (set, base, (m != 0).then(|| m.trailing_zeros() as usize))
    }

    /// Hint that `block` will be probed or allocated soon: start loading
    /// its set's tags and stamps into the host cache. Changes nothing.
    #[inline]
    pub fn prefetch(&self, block: u64) {
        let base = self.base(self.set_of(block));
        let last = base + self.ways as usize - 1;
        prefetch_read(&self.tags, base);
        prefetch_read(&self.tags, last);
        prefetch_read(&self.stamps, base);
        prefetch_read(&self.stamps, last);
    }

    /// Probe for `block`; on a hit, updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    pub fn probe(&mut self, block: u64, is_write: bool) -> bool {
        self.stats.accesses.inc();
        self.clock += 1;
        let (set, base, way) = self.find(block);
        let Some(w) = way else {
            self.stats.misses.inc();
            return false;
        };
        self.stamps[base + w] = self.clock;
        self.dirty[set] |= (is_write as u64) << w;
        self.stats.hits.inc();
        true
    }

    /// Probe without any state change (no LRU update, no stats).
    pub fn peek(&self, block: u64) -> bool {
        self.find(block).2.is_some()
    }

    /// Whether `block` is present and dirty (no state change).
    pub fn peek_dirty(&self, block: u64) -> bool {
        match self.find(block) {
            (set, _, Some(w)) => self.dirty[set] >> w & 1 != 0,
            _ => false,
        }
    }

    /// Install `block` (refill). Returns the evicted victim block and its
    /// dirtiness, if a valid line was displaced.
    ///
    /// # Panics
    /// Panics for the one block a single-set cache cannot hold,
    /// `u64::MAX`, whose tag is the invalid-way sentinel.
    pub fn allocate(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let tag = self.tag_of(block);
        assert_ne!(
            tag, INVALID,
            "block {block:#x} is outside the cache's range"
        );
        let (set, base, way) = self.find(block);
        // Already present (racing refills): just update.
        if let Some(w) = way {
            self.stamps[base + w] = self.clock;
            self.dirty[set] |= (dirty as u64) << w;
            return None;
        }
        // The first invalid way, else the least recently used one (the
        // lowest way on a tie).
        let empty = self.match_mask(base, INVALID);
        let victim = if empty != 0 {
            empty.trailing_zeros() as usize
        } else {
            let stamps = &self.stamps[base..base + self.ways as usize];
            (1..stamps.len()).fold(0, |v, w| if stamps[w] < stamps[v] { w } else { v })
        };
        let old = self.tags[base + victim];
        let evicted = (old != INVALID).then(|| {
            let vdirty = self.dirty[set] >> victim & 1 != 0;
            if vdirty {
                self.stats.writebacks.inc();
            }
            (old << self.sets.trailing_zeros() | set as u64, vdirty)
        });
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.dirty[set] = self.dirty[set] & !(1 << victim) | (dirty as u64) << victim;
        evicted
    }

    /// Capture the cache's complete functional state — lines, LRU clock
    /// and statistics — as an owned checkpoint. One flat clone; no
    /// structural transformation, so `snapshot` → [`SramCache::restore`]
    /// is exact by construction.
    pub fn snapshot(&self) -> SramCache {
        self.clone()
    }

    /// Overwrite this cache's state with a previously captured snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot was taken from a cache of different
    /// geometry — restoring across shapes is always a harness bug.
    pub fn restore(&mut self, snap: &SramCache) {
        assert_eq!(
            (self.sets, self.ways),
            (snap.sets, snap.ways),
            "snapshot geometry mismatch: {}x{} vs {}x{}",
            snap.sets,
            snap.ways,
            self.sets,
            self.ways
        );
        *self = snap.clone();
    }

    /// Serialise the full state into `w` (checkpoint-file payload).
    /// Layout: sets, ways, clock, the four statistics counters, then one
    /// `(tag, valid|dirty flags, stamp)` record per line, set-major. An
    /// invalid line is written with tag 0 and clear flags.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sets);
        w.put_u16(self.ways);
        w.put_u64(self.clock);
        for c in [
            self.stats.accesses,
            self.stats.hits,
            self.stats.misses,
            self.stats.writebacks,
        ] {
            w.put_u64(c.get());
        }
        for (i, (&tag, &stamp)) in self.tags.iter().zip(&self.stamps).enumerate() {
            let way = i % self.ways as usize;
            let valid = tag != INVALID;
            let dirty = self.dirty[i / self.ways as usize] >> way & 1 != 0;
            w.put_u64(if valid { tag } else { 0 });
            w.put_u8(valid as u8 | (dirty as u8) << 1);
            w.put_u64(stamp);
        }
    }

    /// Rebuild a cache from an [`SramCache::encode`] payload.
    ///
    /// Rejects, besides truncation and bad geometry, anything `encode`
    /// never writes: unknown flag bits, an invalid line with a tag or a
    /// dirty bit, and a valid line whose tag is the invalid sentinel.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<SramCache, CodecError> {
        let sets = r.u64()?;
        let ways = r.u16()?;
        if !(1..=64).contains(&ways) || !sets.is_power_of_two() {
            return Err(CodecError::new("invalid SRAM cache geometry"));
        }
        let clock = r.u64()?;
        let stats = SramStats {
            accesses: Counter(r.u64()?),
            hits: Counter(r.u64()?),
            misses: Counter(r.u64()?),
            writebacks: Counter(r.u64()?),
        };
        let n = sets
            .checked_mul(ways as u64)
            .ok_or(CodecError::new("SRAM cache line count overflow"))? as usize;
        // 17 bytes per line follow; reject implausible counts from a
        // corrupt header *before* allocating for them.
        if r.remaining() < n.saturating_mul(17) {
            return Err(CodecError::new("SRAM cache line count exceeds buffer"));
        }
        let mut tags = Vec::with_capacity(n);
        let mut stamps = Vec::with_capacity(n);
        let mut dirty = vec![0u64; sets as usize];
        for i in 0..n {
            let tag = r.u64()?;
            let flags = r.u8()?;
            let (valid, is_dirty) = (flags & 1 != 0, flags & 2 != 0);
            if flags > 0b11 {
                return Err(CodecError::new("invalid SRAM line flags"));
            }
            if valid && tag == INVALID {
                return Err(CodecError::new(
                    "SRAM line tag collides with the invalid sentinel",
                ));
            }
            if !valid && (tag != 0 || is_dirty) {
                return Err(CodecError::new(
                    "invalid SRAM line carries a tag or dirty bit",
                ));
            }
            tags.push(if valid { tag } else { INVALID });
            dirty[i / ways as usize] |= (is_dirty as u64) << (i % ways as usize);
            stamps.push(r.u64()?);
        }
        Ok(SramCache {
            tags,
            stamps,
            dirty,
            sets,
            ways,
            clock,
            stats,
        })
    }

    /// Clear the dirty bit of `block` if present (used by the Lee eager
    /// writeback: data is pushed downstream but the line stays resident).
    pub fn clean(&mut self, block: u64) -> bool {
        match self.find(block) {
            (set, _, Some(w)) if self.dirty[set] >> w & 1 != 0 => {
                self.dirty[set] &= !(1 << w);
                true
            }
            _ => false,
        }
    }

    /// All valid block addresses in the same set as `block` that are
    /// dirty, excluding `block` itself. Bounded by associativity.
    pub fn dirty_set_neighbours(&self, block: u64) -> Vec<u64> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = self.base(set);
        let shift = self.sets.trailing_zeros();
        let mask = self.dirty[set];
        (0..self.ways as usize)
            .filter(|&w| mask >> w & 1 != 0 && self.tags[base + w] != tag)
            .map(|w| self.tags[base + w] << shift | set as u64)
            .collect()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shapes() {
        let l1 = SramCache::paper_l1();
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.ways(), 2);
        let l2 = SramCache::paper_l2();
        assert_eq!(l2.sets(), 8192);
        assert_eq!(l2.ways(), 16);
    }

    #[test]
    fn probe_miss_then_allocate_then_hit() {
        let mut c = SramCache::new(4096, 2);
        assert!(!c.probe(100, false));
        assert_eq!(c.allocate(100, false), None);
        assert!(c.probe(100, false));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = SramCache::new(128, 1); // 2 sets, 1 way: tiny
        c.allocate(0, false);
        assert!(c.probe(0, true), "write hit");
        // Install a conflicting block in set 0 (block 2 -> same set).
        let evicted = c.allocate(2, false).unwrap();
        assert_eq!(evicted, (0, true));
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SramCache::new(256, 2); // 2 sets, 2 ways
        c.allocate(0, false); // set 0
        c.allocate(2, false); // set 0
        c.probe(0, false); // touch 0: now 2 is LRU
        let evicted = c.allocate(4, false).unwrap(); // set 0 again
        assert_eq!(evicted.0, 2);
    }

    #[test]
    fn victim_block_address_reconstruction() {
        let mut c = SramCache::new(4096, 1); // 64 sets
        let block = 0xABCDu64;
        c.allocate(block, true);
        let conflicting = block + 64; // same set, different tag
        let (victim, dirty) = c.allocate(conflicting, false).unwrap();
        assert_eq!(victim, block);
        assert!(dirty);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, false);
        c.allocate(2, false);
        assert!(c.peek(0));
        assert!(!c.peek(100));
        // peek(0) must NOT have refreshed 0's LRU position: 0 is oldest.
        let evicted = c.allocate(4, false).unwrap();
        assert_eq!(evicted.0, 0);
        assert_eq!(c.stats().accesses.get(), 0);
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, true);
        assert!(c.peek_dirty(0));
        assert!(c.clean(0));
        assert!(!c.peek_dirty(0));
        assert!(!c.clean(0), "already clean");
        // Eviction of the cleaned line is no longer a writeback.
        c.allocate(2, false);
        let evicted = c.allocate(4, false).unwrap();
        assert!(!evicted.1);
    }

    #[test]
    fn dirty_set_neighbours_lists_only_dirty() {
        let mut c = SramCache::new(1024, 4); // 4 sets, 4 ways
                                             // Blocks 0,4,8,12 all map to set 0 (4 sets).
        c.allocate(0, true);
        c.allocate(4, false);
        c.allocate(8, true);
        let mut n = c.dirty_set_neighbours(0);
        n.sort_unstable();
        assert_eq!(n, vec![8]);
    }

    #[test]
    fn allocate_existing_merges() {
        let mut c = SramCache::new(256, 2);
        c.allocate(0, false);
        assert_eq!(c.allocate(0, true), None, "no eviction on re-allocate");
        assert!(c.peek_dirty(0), "dirtiness merged in");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SramCache::new(3 * 64, 1);
    }

    /// Drive two caches with the same op stream and assert identical
    /// observable behaviour (hit/miss, evictions, stats).
    fn assert_same_behaviour(a: &mut SramCache, b: &mut SramCache, seed: u64) {
        let mut x = seed;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let block = (x >> 33) % 512;
            let is_write = x & 1 == 0;
            assert_eq!(a.probe(block, is_write), b.probe(block, is_write));
            if x & 2 == 0 {
                assert_eq!(a.allocate(block, is_write), b.allocate(block, is_write));
            }
        }
        assert_eq!(a.stats().accesses, b.stats().accesses);
        assert_eq!(a.stats().writebacks, b.stats().writebacks);
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        let mut c = SramCache::new(8 * 1024, 4);
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
            c.probe(x % 300, x & 1 == 0);
            c.allocate(x % 300, x & 1 == 0);
        }
        let snap = c.snapshot();
        // Diverge the live cache, then restore.
        for b in 0..200 {
            c.allocate(b, true);
        }
        let mut fresh = SramCache::new(8 * 1024, 4);
        fresh.restore(&snap);
        c.restore(&snap);
        assert_same_behaviour(&mut c, &mut fresh, 7);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut c = SramCache::new(4 * 1024, 2);
        for b in 0..150u64 {
            c.probe(b * 3, b % 2 == 0);
            c.allocate(b * 3, b % 2 == 0);
        }
        let mut w = dca_sim_core::ByteWriter::new();
        c.encode(&mut w);
        let buf = w.into_vec();
        let mut r = dca_sim_core::ByteReader::new(&buf);
        let mut d = SramCache::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(d.sets(), c.sets());
        assert_eq!(d.ways(), c.ways());
        assert_same_behaviour(&mut c, &mut d, 13);
    }

    #[test]
    fn decode_rejects_truncation_and_bad_flags() {
        let mut c = SramCache::new(1024, 1);
        c.allocate(5, true);
        let mut w = dca_sim_core::ByteWriter::new();
        c.encode(&mut w);
        let mut buf = w.into_vec();
        let mut r = dca_sim_core::ByteReader::new(&buf[..buf.len() - 1]);
        assert!(SramCache::decode(&mut r).is_err(), "truncated");
        // Corrupt a flags byte (header is 8+2+8+32 bytes, then tag u64).
        buf[50 + 8] = 0xFF;
        let mut r = dca_sim_core::ByteReader::new(&buf);
        assert!(SramCache::decode(&mut r).is_err(), "bad flags");
    }

    #[test]
    fn decode_rejects_sentinel_tag_and_non_canonical_invalid_lines() {
        let mut c = SramCache::new(1024, 1);
        c.allocate(5, true);
        let mut w = dca_sim_core::ByteWriter::new();
        c.encode(&mut w);
        let buf = w.into_vec();
        // Line 5 (set 5 of 16, tag 0) starts after the 50-byte header.
        let line = |i: usize| 50 + i * 17;
        let decode = |b: &[u8]| SramCache::decode(&mut dca_sim_core::ByteReader::new(b));
        assert!(decode(&buf).is_ok());
        let mut bad = buf.clone();
        bad[line(5)..line(5) + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&bad).is_err(), "valid line with the sentinel tag");
        let mut bad = buf.clone();
        bad[line(0)] = 1; // tag 1 on an invalid line
        assert!(decode(&bad).is_err(), "invalid line with a tag");
        let mut bad = buf.clone();
        bad[line(0) + 8] = 0b10; // dirty but not valid
        assert!(decode(&bad).is_err(), "invalid line marked dirty");
    }

    #[test]
    #[should_panic(expected = "outside the cache's range")]
    fn allocate_refuses_the_sentinel_block() {
        SramCache::new(64 * 4, 4).allocate(u64::MAX, false);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let small = SramCache::new(1024, 1);
        let mut big = SramCache::new(4096, 2);
        big.restore(&small.snapshot());
    }
}
