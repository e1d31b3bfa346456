//! Test-only reference model: the record-per-line SRAM cache that the
//! parallel-array [`SramCache`] replaced, kept to pin the new layout to
//! the old behaviour. Random `probe`/`peek`/`peek_dirty`/`allocate`/
//! `clean`/`dirty_set_neighbours` sequences must give equal answers,
//! equal statistics and byte-equal `encode` output.

use dca_sim_core::{ByteReader, ByteWriter, Counter};

use super::{SramCache, SramStats};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// One record of tag, flags and LRU stamp per line, scanned way by way.
struct AosCache {
    lines: Vec<Line>,
    sets: u64,
    ways: u16,
    clock: u64,
    stats: SramStats,
}

impl AosCache {
    fn new(capacity_bytes: u64, ways: u16) -> Self {
        let sets = capacity_bytes / 64 / ways as u64;
        assert!(sets.is_power_of_two());
        AosCache {
            lines: vec![Line::default(); (sets * ways as u64) as usize],
            sets,
            ways,
            clock: 0,
            stats: SramStats::default(),
        }
    }

    fn set_of(&self, block: u64) -> u64 {
        block & (self.sets - 1)
    }

    fn tag_of(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    /// The lines of `block`'s set, with the set and the block's tag.
    fn set_lines(&self, block: u64) -> (u64, u64, std::ops::Range<usize>) {
        let set = self.set_of(block);
        let base = (set * self.ways as u64) as usize;
        (set, self.tag_of(block), base..base + self.ways as usize)
    }

    fn probe(&mut self, block: u64, is_write: bool) -> bool {
        self.stats.accesses.inc();
        self.clock += 1;
        let (_, tag, range) = self.set_lines(block);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                if is_write {
                    line.dirty = true;
                }
                self.stats.hits.inc();
                return true;
            }
        }
        self.stats.misses.inc();
        false
    }

    fn peek(&self, block: u64) -> bool {
        let (_, tag, range) = self.set_lines(block);
        self.lines[range].iter().any(|l| l.valid && l.tag == tag)
    }

    fn peek_dirty(&self, block: u64) -> bool {
        let (_, tag, range) = self.set_lines(block);
        self.lines[range]
            .iter()
            .any(|l| l.valid && l.tag == tag && l.dirty)
    }

    fn allocate(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let (set, tag, range) = self.set_lines(block);
        for line in &mut self.lines[range.clone()] {
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                line.dirty |= dirty;
                return None;
            }
        }
        let mut victim = range.start;
        for idx in range {
            if !self.lines[idx].valid {
                victim = idx;
                break;
            }
            if self.lines[idx].stamp < self.lines[victim].stamp {
                victim = idx;
            }
        }
        let v = self.lines[victim];
        let evicted = v.valid.then(|| {
            if v.dirty {
                self.stats.writebacks.inc();
            }
            (v.tag << self.sets.trailing_zeros() | set, v.dirty)
        });
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty,
            stamp: self.clock,
        };
        evicted
    }

    fn clean(&mut self, block: u64) -> bool {
        let (_, tag, range) = self.set_lines(block);
        for line in &mut self.lines[range] {
            if line.valid && line.tag == tag && line.dirty {
                line.dirty = false;
                return true;
            }
        }
        false
    }

    fn dirty_set_neighbours(&self, block: u64) -> Vec<u64> {
        let (set, tag, range) = self.set_lines(block);
        let shift = self.sets.trailing_zeros();
        self.lines[range]
            .iter()
            .filter(|l| l.valid && l.dirty && l.tag != tag)
            .map(|l| l.tag << shift | set)
            .collect()
    }

    fn encode(&self, w: &mut ByteWriter) {
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
        for line in &self.lines {
            w.put_u64(line.tag);
            w.put_u8(line.valid as u8 | (line.dirty as u8) << 1);
            w.put_u64(line.stamp);
        }
    }
}

fn counters(s: &SramStats) -> [Counter; 4] {
    [s.accesses, s.hits, s.misses, s.writebacks]
}

fn encoded(f: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    f(&mut w);
    w.into_vec()
}

/// Drive both models with `steps` random calls over `blocks` distinct
/// block addresses and compare every answer, then the statistics and
/// the encoded state.
fn differential(capacity: u64, ways: u16, blocks: u64, steps: usize, seed: u64) {
    let mut soa = SramCache::new(capacity, ways);
    let mut aos = AosCache::new(capacity, ways);
    let mut x = seed | 1;
    for step in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = (x >> 8) % blocks;
        let flag = x & 1 == 0;
        let ctx = || format!("{ways}-way step {step} block {block}");
        match (x >> 1) % 8 {
            0 | 1 => assert_eq!(soa.probe(block, flag), aos.probe(block, flag), "{}", ctx()),
            2 | 3 => assert_eq!(
                soa.allocate(block, flag),
                aos.allocate(block, flag),
                "{}",
                ctx()
            ),
            4 => assert_eq!(soa.peek(block), aos.peek(block), "{}", ctx()),
            5 => assert_eq!(soa.peek_dirty(block), aos.peek_dirty(block), "{}", ctx()),
            6 => assert_eq!(soa.clean(block), aos.clean(block), "{}", ctx()),
            _ => assert_eq!(
                soa.dirty_set_neighbours(block),
                aos.dirty_set_neighbours(block),
                "{}",
                ctx()
            ),
        }
    }
    assert_eq!(
        counters(soa.stats()),
        counters(&aos.stats),
        "{ways}-way stats"
    );
    let bytes = encoded(|w| soa.encode(w));
    assert_eq!(bytes, encoded(|w| aos.encode(w)), "{ways}-way encode");
    let mut r = ByteReader::new(&bytes);
    let decoded = SramCache::decode(&mut r).expect("decode");
    r.finish().expect("fully consumed");
    assert_eq!(
        encoded(|w| decoded.encode(w)),
        bytes,
        "{ways}-way round trip"
    );
}

#[test]
fn matches_record_per_line_model_on_all_shapes() {
    for seed in [1, 7, 0xDCA] {
        // 1 way: every allocation into a full set evicts.
        differential(64 * 64, 1, 200, 20_000, seed);
        // 2 ways, the L1 shape, scaled down.
        differential(64 * 64, 2, 200, 20_000, seed);
        // 16 ways, the L2 shape, scaled down; a fuller block range makes
        // LRU victims and dirty neighbours common.
        differential(64 * 16 * 8, 16, 400, 40_000, seed);
        // One set, so every block competes for the same 16 ways.
        differential(64 * 16, 16, 40, 5_000, seed);
    }
}

#[test]
fn fresh_caches_encode_identically() {
    for (cap, ways) in [(32 * 1024, 2), (1024, 1), (64 * 16 * 4, 16)] {
        let soa = SramCache::new(cap, ways);
        let aos = AosCache::new(cap, ways);
        assert_eq!(encoded(|w| soa.encode(w)), encoded(|w| aos.encode(w)));
    }
}
