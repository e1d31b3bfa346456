//! Synthetic instruction-stream generators.
//!
//! Each core runs one infinite, deterministic op stream derived from its
//! benchmark's [`Profile`](crate::profile::Profile). Ops carry the
//! compute-gap preceding them, so the core model never materialises
//! individual compute instructions.

use dca_sim_core::rng::Prng;
use dca_sim_core::{ByteReader, ByteWriter, CodecError};

use crate::profile::{Benchmark, Pattern, Profile};

/// One memory operation in a core's instruction stream.
#[derive(Clone, Copy, Debug)]
pub struct TraceOp {
    /// Compute instructions preceding this op.
    pub gap: u32,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Absolute 64-byte block address.
    pub block: u64,
    /// Synthetic instruction address of the op (for MAP-I).
    pub pc: u32,
    /// Whether this load's address depends on the previous load of its
    /// chain (pointer chasing) — serialises with that load.
    pub dependent: bool,
    /// Chain id for dependence tracking (< 8).
    pub chain: u8,
}

/// Entries in the far-reuse history ring. Every *fresh* (pattern-
/// generated) block is recorded, so the ring spans the last ~160 k
/// distinct blocks (~10 MB) per core — several times the core's share of
/// the 8 MB shared L2 (so most revisits miss the SRAM hierarchy) while
/// comfortably inside the 240 MB DRAM cache (so revisits hit there once
/// warm). Reuse ops themselves are not recorded, preventing the reuse
/// set from collapsing onto a small L2-resident hot set.
///
/// Entries are region-relative block positions, below the profile's
/// `ws_blocks`, so they fit a `u32`: a full ring is 640 KB per core,
/// half of what `u64` entries took. Each reuse op reads one uniformly
/// random entry, so the ring's size sets how often that read misses the
/// host cache.
const HISTORY: usize = 163_840;

/// Alignment of concurrent streams, in blocks. 3840 blocks (240 KB) is a
/// whole number of bank rotations in both cache geometries (64 frames of
/// 60 blocks direct-mapped; 960 frames of 4 sets set-associative), so
/// lockstep streams at this spacing hit the same bank at different rows.
pub const STREAM_ALIGN: u64 = 3840;

/// Deterministic generator of one benchmark's op stream.
#[derive(Clone, Debug)]
pub struct TraceGen {
    profile: Profile,
    rng: Prng,
    /// Base block address of this core's private region.
    base: u64,
    /// Stream cursors (streaming / mixed patterns).
    streams: Vec<u64>,
    /// Segment length each stream wraps within.
    seg_len: u64,
    /// Chase cursors (chase pattern).
    chains: Vec<u64>,
    /// Far-reuse history: recent fresh blocks (region-relative).
    history: Vec<u32>,
    /// Ring write cursor for `history` once full.
    hist_slot: usize,
    /// Round-robin pick counter.
    pick: u64,
    /// Ops generated.
    count: u64,
}

impl TraceGen {
    /// A generator for `profile` over the region starting at block
    /// `base`, seeded with `seed`.
    ///
    /// Streams are laid out like real multi-array scientific codes: each
    /// stream walks its own array, and the arrays sit at large aligned
    /// offsets from one another ([`STREAM_ALIGN`] blocks — a whole number
    /// of bank rotations in both cache geometries). Concurrent streams
    /// therefore alias to the *same bank* at *different rows*, the exact
    /// row-conflict structure the permutation-based XOR remap \[9\] was
    /// designed to break (§VI-A "With Remapping").
    pub fn new(profile: Profile, base: u64, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let ws = profile.ws_blocks;
        assert!(
            ws <= 1 << 32,
            "working set of {ws} blocks exceeds the u32 reuse history"
        );
        let n_streams = match profile.pattern {
            Pattern::Stream { streams } => streams as usize,
            Pattern::Mixed { .. } => 2,
            Pattern::Chase { .. } => 0,
        };
        let chains = match profile.pattern {
            Pattern::Chase { chains } => chains as usize,
            _ => 0,
        };
        let seg_len = if n_streams > 0 {
            (ws / n_streams as u64 / STREAM_ALIGN).max(1) * STREAM_ALIGN
        } else {
            0
        };
        let streams = (0..n_streams).map(|s| s as u64 * seg_len).collect();
        let chains = (0..chains).map(|_| rng.gen_range(0..ws)).collect();
        TraceGen {
            profile,
            rng,
            base,
            streams,
            seg_len,
            chains,
            history: Vec::new(),
            hist_slot: 0,
            pick: 0,
            count: 0,
        }
    }

    /// The driving profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Heap bytes the cursor and reuse-history vectors hold.
    pub fn heap_bytes(&self) -> usize {
        (self.streams.capacity() + self.chains.capacity()) * std::mem::size_of::<u64>()
            + self.history.capacity() * std::mem::size_of::<u32>()
    }

    /// Capture the generator mid-stream — RNG state, stream/chase
    /// cursors, reuse history and op count — as an owned checkpoint.
    /// Restoring resumes the op stream at exactly the next op.
    pub fn snapshot(&self) -> TraceGen {
        self.clone()
    }

    /// Overwrite this generator's state with a previously captured
    /// snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot drives a different benchmark or region —
    /// that would splice one workload's cursors into another's stream.
    pub fn restore(&mut self, snap: &TraceGen) {
        assert_eq!(
            (self.profile.bench, self.base),
            (snap.profile.bench, snap.base),
            "snapshot workload identity mismatch"
        );
        *self = snap.clone();
    }

    /// Serialise the full generator state into `w` (checkpoint-file
    /// payload). The profile itself is not stored — only the benchmark
    /// id, from which [`TraceGen::decode`] rebuilds it — so profile
    /// tuning changes naturally invalidate nothing (the warm-state
    /// fingerprint, not this payload, is what must change then).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.profile.bench.id());
        w.put_u64(self.base);
        for s in self.rng.state() {
            w.put_u64(s);
        }
        w.put_u64(self.seg_len);
        w.put_u64_slice(&self.streams);
        w.put_u64_slice(&self.chains);
        // Same layout as a `u64` slice: length, then one u64 per entry.
        w.put_u64(self.history.len() as u64);
        for &pos in &self.history {
            w.put_u64(pos as u64);
        }
        w.put_u64(self.hist_slot as u64);
        w.put_u64(self.pick);
        w.put_u64(self.count);
    }

    /// Rebuild a generator from a [`TraceGen::encode`] payload.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TraceGen, CodecError> {
        let id = r.u32()? as usize;
        let bench = *Benchmark::ALL
            .get(id)
            .ok_or(CodecError::new("unknown benchmark id"))?;
        let base = r.u64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if rng_state == [0; 4] {
            return Err(CodecError::new("all-zero RNG state"));
        }
        let seg_len = r.u64()?;
        let streams = r.u64_vec()?;
        let chains = r.u64_vec()?;
        let history = r.u64_vec()?;
        let hist_slot = r.u64()?;
        // The ring fills before its cursor moves: a partial ring has
        // cursor 0, a full one any cursor inside the ring. Anything else
        // would diverge from the encoded stream, or overflow the cursor
        // once the ring filled.
        let ring_ok = match history.len() {
            n if n < HISTORY => hist_slot == 0,
            HISTORY => hist_slot < HISTORY as u64,
            _ => false,
        };
        if !ring_ok {
            return Err(CodecError::new("history ring out of bounds"));
        }
        let profile = bench.profile();
        // Entries are positions inside the working set; that bound is
        // also what makes the `u32` conversion lossless.
        if history.iter().any(|&pos| pos >= profile.ws_blocks) {
            return Err(CodecError::new("history entry outside the working set"));
        }
        let history = history.into_iter().map(|pos| pos as u32).collect();
        // Cursor counts are fixed by the benchmark's pattern; a blob
        // that disagrees would panic deep in `next_op` (`pick % len`),
        // so reject it here instead.
        let (want_streams, want_chains) = match profile.pattern {
            Pattern::Stream { streams } => (streams as usize, 0),
            Pattern::Mixed { .. } => (2, 0),
            Pattern::Chase { chains } => (0, chains as usize),
        };
        if streams.len() != want_streams || chains.len() != want_chains {
            return Err(CodecError::new("cursor counts do not match benchmark"));
        }
        Ok(TraceGen {
            profile,
            rng: Prng::from_state(rng_state),
            base,
            streams,
            seg_len,
            chains,
            history,
            hist_slot: hist_slot as usize,
            pick: r.u64()?,
            count: r.u64()?,
        })
    }

    /// Ops generated so far.
    pub fn generated(&self) -> u64 {
        self.count
    }

    /// Sample the compute gap before the next op (uniform in
    /// `[0, 2·mean]`, so the mean is the profile's `mean_gap`).
    fn sample_gap(&mut self) -> u32 {
        self.rng.gen_range(0..=2 * self.profile.mean_gap)
    }

    /// Remember a freshly visited block (region-relative) in the history.
    fn remember(&mut self, pos: u64) {
        // `new` bounds `ws_blocks` by 2^32 and `pos < ws_blocks`.
        let pos = pos as u32;
        if self.history.len() < HISTORY {
            self.history.push(pos);
        } else {
            self.hist_slot = (self.hist_slot + 1) % HISTORY;
            self.history[self.hist_slot] = pos;
        }
    }

    /// Produce the next op.
    pub fn next_op(&mut self) -> TraceOp {
        self.count += 1;
        self.pick = self.pick.wrapping_add(1);
        let gap = self.sample_gap();
        let ws = self.profile.ws_blocks;
        let bench_pc_base = self.profile.bench.id() * 4096;
        let is_store = self.rng.gen_bool(self.profile.store_fraction);

        // Far-reuse component: revisit a uniformly sampled block from the
        // recent-fresh-block history. The most recent slice of the window
        // is still L2-resident; the bulk has been evicted from SRAM but
        // lives in the DRAM cache — giving the mid-distance temporal
        // reuse that makes DRAM caches pay off on SPEC.
        if !self.history.is_empty() && self.rng.gen_bool(self.profile.reuse_prob) {
            let idx = self.rng.gen_range(0..self.history.len());
            let pos = self.history[idx] as u64;
            return TraceOp {
                gap,
                is_store,
                block: self.base + pos,
                pc: bench_pc_base + 2048 + (idx % 13) as u32,
                dependent: false,
                chain: 0,
            };
        }

        let op = match self.profile.pattern {
            Pattern::Stream { .. } => {
                let s = (self.pick % self.streams.len() as u64) as usize;
                let pos = self.streams[s];
                // Advance within this stream's segment, wrapping at its
                // end — streams stay in lockstep alignment.
                let seg_start = s as u64 * self.seg_len;
                let next = pos + 1;
                self.streams[s] = if next >= seg_start + self.seg_len || next >= ws {
                    seg_start
                } else {
                    next
                };
                TraceOp {
                    gap,
                    is_store,
                    block: self.base + pos,
                    pc: bench_pc_base + s as u32 * 16 + is_store as u32,
                    dependent: false,
                    chain: 0,
                }
            }
            Pattern::Chase { .. } => {
                let c = (self.pick % self.chains.len() as u64) as usize;
                let cur = self.chains[c];
                if is_store {
                    // Update the node just visited: no new dependence.
                    TraceOp {
                        gap,
                        is_store: true,
                        block: self.base + cur,
                        pc: bench_pc_base + 512 + c as u32,
                        dependent: false,
                        chain: c as u8,
                    }
                } else {
                    // Follow the chain: pseudo-random next node.
                    let next = self.rng.gen_range(0..ws);
                    self.chains[c] = next;
                    TraceOp {
                        gap,
                        is_store: false,
                        block: self.base + next,
                        pc: bench_pc_base + 256 + c as u32,
                        dependent: true,
                        chain: c as u8,
                    }
                }
            }
            Pattern::Mixed { stream_prob } => {
                if self.rng.gen_bool(stream_prob) {
                    let s = (self.pick % self.streams.len() as u64) as usize;
                    let pos = self.streams[s];
                    let seg_start = s as u64 * self.seg_len;
                    let next = pos + 1;
                    self.streams[s] = if next >= seg_start + self.seg_len || next >= ws {
                        seg_start
                    } else {
                        next
                    };
                    TraceOp {
                        gap,
                        is_store,
                        block: self.base + pos,
                        pc: bench_pc_base + s as u32 * 16 + is_store as u32,
                        dependent: false,
                        chain: 0,
                    }
                } else {
                    let pos = self.rng.gen_range(0..ws);
                    TraceOp {
                        gap,
                        is_store,
                        block: self.base + pos,
                        pc: bench_pc_base + 1024 + (pos % 7) as u32,
                        dependent: false,
                        chain: 0,
                    }
                }
            }
        };
        self.remember(op.block - self.base);
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;

    fn gen_for(b: Benchmark, seed: u64) -> TraceGen {
        TraceGen::new(b.profile(), 1 << 26, seed)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = gen_for(Benchmark::Mcf, 7);
        let mut b = gen_for(Benchmark::Mcf, 7);
        for _ in 0..1000 {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x.block, y.block);
            assert_eq!(x.is_store, y.is_store);
            assert_eq!(x.gap, y.gap);
            assert_eq!(x.pc, y.pc);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = gen_for(Benchmark::Lbm, 1);
        let mut b = gen_for(Benchmark::Lbm, 2);
        let same = (0..100)
            .filter(|_| a.next_op().block == b.next_op().block)
            .count();
        assert!(same < 50, "streams should diverge, {same} matches");
    }

    #[test]
    fn addresses_stay_in_region() {
        for bench in Benchmark::ALL {
            let base = 1u64 << 26;
            let ws = bench.profile().ws_blocks;
            let mut g = TraceGen::new(bench.profile(), base, 3);
            for _ in 0..10_000 {
                let op = g.next_op();
                assert!(op.block >= base && op.block < base + ws, "{bench:?}");
            }
        }
    }

    #[test]
    fn streaming_is_sequential_within_each_stream() {
        let mut g = gen_for(Benchmark::Libquantum, 5);
        // Fresh stream ops advance by one block *within their stream*
        // (identified by pc); far-reuse ops use a separate pc range.
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let (mut seq, mut fresh) = (0, 0);
        for _ in 0..5000 {
            let op = g.next_op();
            let stream_pc = op.pc & !1; // strip the store bit
            if (op.pc % 4096) >= 2048 {
                continue; // reuse op
            }
            fresh += 1;
            if let Some(&prev) = last.get(&stream_pc) {
                if op.block == prev + 1 {
                    seq += 1;
                }
            }
            last.insert(stream_pc, op.block);
        }
        assert!(
            seq as f64 > fresh as f64 * 0.8,
            "libquantum streams sequentially per stream: {seq}/{fresh}"
        );
    }

    #[test]
    fn streams_are_bank_aligned() {
        // Concurrent streams start at STREAM_ALIGN-multiple offsets so
        // they alias to the same bank sequence (the remap study's
        // premise): the first block of every stream is aligned.
        let profile = Benchmark::GemsFDTD.profile();
        let mut g = TraceGen::new(profile, 0, 5);
        let mut first_of_stream: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for _ in 0..500 {
            let op = g.next_op();
            if (op.pc % 4096) < 2048 {
                first_of_stream.entry(op.pc & !1).or_insert(op.block);
            }
        }
        assert!(first_of_stream.len() >= 7, "all 7 streams observed");
        for (&pc, &b) in &first_of_stream {
            assert_eq!(b % STREAM_ALIGN, 0, "stream pc={pc} starts at {b}");
        }
    }

    #[test]
    fn chase_loads_are_dependent() {
        let mut g = gen_for(Benchmark::Mcf, 5);
        let mut dep_loads = 0;
        let mut loads = 0;
        for _ in 0..2000 {
            let op = g.next_op();
            if !op.is_store {
                loads += 1;
                if op.dependent {
                    dep_loads += 1;
                }
            }
        }
        // Chain-following loads are dependent; far-reuse revisits are
        // not, and reuse dominates (reuse_prob 0.78).
        let frac = dep_loads as f64 / loads as f64;
        assert!(
            frac > 0.08 && frac < 0.6,
            "mcf has a dependent chase component, got {frac:.2}"
        );
    }

    #[test]
    fn far_reuse_revisits_past_blocks() {
        let mut g = gen_for(Benchmark::Libquantum, 5);
        let mut seen = std::collections::HashSet::new();
        let mut revisits = 0u32;
        for _ in 0..50_000 {
            let op = g.next_op();
            if !seen.insert(op.block) {
                revisits += 1;
            }
        }
        assert!(
            revisits > 5_000,
            "the reuse component must revisit blocks, got {revisits}"
        );
    }

    #[test]
    fn store_fraction_approximates_profile() {
        let mut g = gen_for(Benchmark::Lbm, 9);
        let stores = (0..20_000).filter(|_| g.next_op().is_store).count();
        let frac = stores as f64 / 20_000.0;
        let want = Benchmark::Lbm.profile().store_fraction;
        assert!((frac - want).abs() < 0.02, "got {frac}, want ~{want}");
    }

    #[test]
    fn mean_gap_approximates_profile() {
        let mut g = gen_for(Benchmark::Gcc, 11);
        let total: u64 = (0..20_000).map(|_| g.next_op().gap as u64).sum();
        let mean = total as f64 / 20_000.0;
        let want = Benchmark::Gcc.profile().mean_gap as f64;
        assert!((mean - want).abs() < 0.2, "got {mean}, want ~{want}");
    }

    fn ops_equal(a: &TraceOp, b: &TraceOp) -> bool {
        a.block == b.block
            && a.is_store == b.is_store
            && a.gap == b.gap
            && a.pc == b.pc
            && a.dependent == b.dependent
            && a.chain == b.chain
    }

    #[test]
    fn snapshot_restore_resumes_the_stream_exactly() {
        for bench in [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Milc] {
            let mut g = gen_for(bench, 11);
            for _ in 0..5_000 {
                g.next_op();
            }
            let snap = g.snapshot();
            let reference: Vec<TraceOp> = (0..2_000).map(|_| g.next_op()).collect();
            // Diverge further, then rewind.
            for _ in 0..777 {
                g.next_op();
            }
            g.restore(&snap);
            for want in &reference {
                let got = g.next_op();
                assert!(ops_equal(&got, want), "{bench:?} diverged after restore");
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_mid_stream() {
        for bench in Benchmark::ALL {
            let mut g = TraceGen::new(bench.profile(), 3 << 26, 23);
            for _ in 0..3_000 {
                g.next_op();
            }
            let mut w = dca_sim_core::ByteWriter::new();
            g.encode(&mut w);
            let buf = w.into_vec();
            let mut r = dca_sim_core::ByteReader::new(&buf);
            let mut decoded = TraceGen::decode(&mut r).expect("decode");
            r.finish().expect("fully consumed");
            assert_eq!(decoded.generated(), g.generated());
            for _ in 0..2_000 {
                let (a, b) = (g.next_op(), decoded.next_op());
                assert!(ops_equal(&a, &b), "{bench:?} codec round trip diverged");
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_bench_and_truncation() {
        let mut g = gen_for(Benchmark::Gcc, 3);
        g.next_op();
        let mut w = dca_sim_core::ByteWriter::new();
        g.encode(&mut w);
        let mut buf = w.into_vec();
        let mut r = dca_sim_core::ByteReader::new(&buf[..buf.len() - 3]);
        assert!(TraceGen::decode(&mut r).is_err(), "truncated");
        buf[0] = 0xFF; // benchmark id far out of range
        let mut r = dca_sim_core::ByteReader::new(&buf);
        assert!(TraceGen::decode(&mut r).is_err(), "unknown bench");
        // Swap the id to a benchmark with a different pattern (gcc is
        // Mixed with 2 stream cursors; mcf is Chase with 8 chains): the
        // cursor counts no longer match and decode must reject, not
        // hand back a generator that panics in next_op.
        buf[0] = Benchmark::Mcf.id() as u8;
        let mut r = dca_sim_core::ByteReader::new(&buf);
        assert!(TraceGen::decode(&mut r).is_err(), "cursor count mismatch");
    }

    /// Encode `g` with its reuse ring replaced by `history` and cursor
    /// `slot`, and try to decode the result.
    fn decode_with_ring(history: Vec<u32>, slot: usize) -> Result<TraceGen, CodecError> {
        let mut g = gen_for(Benchmark::Gcc, 3);
        g.history = history;
        g.hist_slot = slot;
        let mut w = dca_sim_core::ByteWriter::new();
        g.encode(&mut w);
        TraceGen::decode(&mut dca_sim_core::ByteReader::new(&w.into_vec()))
    }

    #[test]
    fn decode_accepts_partial_and_full_rings() {
        assert!(decode_with_ring(vec![1, 2, 3], 0).is_ok());
        assert!(decode_with_ring(vec![7; HISTORY], 0).is_ok());
        assert!(decode_with_ring(vec![7; HISTORY], HISTORY - 1).is_ok());
    }

    #[test]
    fn decode_rejects_cursor_on_empty_ring() {
        // Once such a ring filled, `remember` would overflow the cursor.
        assert!(decode_with_ring(vec![], usize::MAX).is_err());
        assert!(decode_with_ring(vec![], 1).is_err());
    }

    #[test]
    fn decode_rejects_cursor_on_partial_ring() {
        // A partial ring never moved its cursor; a moved one would make
        // the decoded stream diverge from the encoded one.
        assert!(decode_with_ring(vec![1, 2, 3], 2).is_err());
    }

    #[test]
    fn decode_rejects_cursor_past_full_ring() {
        assert!(decode_with_ring(vec![7; HISTORY], HISTORY).is_err());
    }

    #[test]
    fn decode_rejects_overlong_ring() {
        assert!(decode_with_ring(vec![7; HISTORY + 1], 0).is_err());
    }

    #[test]
    fn decode_rejects_history_entry_outside_working_set() {
        let ws = Benchmark::Gcc.profile().ws_blocks as u32;
        assert!(decode_with_ring(vec![ws - 1], 0).is_ok());
        assert!(decode_with_ring(vec![ws], 0).is_err());
        // Above u32 range, where `u32` storage would truncate silently:
        // write the u64 entry by hand.
        let g = gen_for(Benchmark::Gcc, 3);
        let mut w = dca_sim_core::ByteWriter::new();
        g.encode(&mut w);
        let mut buf = w.into_vec();
        // A fresh generator's blob ends in four u64s: the (empty) ring's
        // length, the cursor, the pick counter and the op count. Make
        // the ring one entry of 2^32 + 1.
        let tail = buf.split_off(buf.len() - 32);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&((1u64 << 32) + 1).to_le_bytes());
        buf.extend_from_slice(&tail[8..]);
        let mut r = dca_sim_core::ByteReader::new(&buf);
        assert!(TraceGen::decode(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "workload identity mismatch")]
    fn restore_rejects_cross_benchmark_snapshot() {
        let mcf = gen_for(Benchmark::Mcf, 1);
        let mut gcc = gen_for(Benchmark::Gcc, 1);
        gcc.restore(&mcf.snapshot());
    }

    #[test]
    fn chains_use_distinct_ids() {
        let mut g = gen_for(Benchmark::Mcf, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let op = g.next_op();
            if op.dependent {
                seen.insert(op.chain);
            }
        }
        assert_eq!(seen.len(), 8, "mcf has 8 chains");
    }
}
