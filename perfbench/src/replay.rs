//! A staged replay of the functional warm-up, one span per layer.
//!
//! `System::capture_warm` runs each op through the L1, the L2 and the
//! DRAM-cache tags in one fused loop, so its layers cannot be timed apart
//! from outside. The replay makes the same public calls in the same
//! order, but layer by layer over buffered op streams: every op first,
//! then every L1 call, then every L2 call, then every tag update. This is
//! exact because each layer's state depends only on the calls it
//! receives, never on a lower layer's answer. The resulting warm-state
//! blob is byte-compared with `capture_warm(..).encode()`, so the split
//! always describes the same program.

use dca::{SystemConfig, WarmState, WARM_FORMAT_VERSION};
use dca_cpu::{Benchmark, OpStream};
use dca_dram_cache::{CacheGeometry, MapI, TagArray};
use dca_mem_hier::SramCache;
use dca_sim_core::{digest64, ByteWriter, SeedSplitter};

use crate::spans::{SpanId, Spans};

/// Magic prefix of an encoded `WarmState` (see `dca::warm`).
const WARM_MAGIC: &[u8; 8] = b"DCAWARM\0";

/// Time and call count of one replay stage.
#[derive(Clone, Copy, Default)]
pub struct Stage {
    pub secs: f64,
    pub calls: u64,
}

impl Stage {
    pub fn ns_per_call(self) -> f64 {
        self.secs * 1e9 / self.calls.max(1) as f64
    }
}

pub struct Replay {
    pub cpu: Stage,
    pub l1: Stage,
    pub l2: Stage,
    pub tags: Stage,
    /// Valid DRAM-cache blocks over all ways after warm-up.
    pub fill_frac: f64,
    /// The replayed state in `WarmState::encode` layout.
    pub blob: Vec<u8>,
}

/// An op bound for the L2: a demand access after an L1 miss, or the
/// write-back probe of a dirty L1 victim.
enum L2Call {
    Access { block: u64, store: bool },
    Writeback { block: u64 },
}

/// Replay the warm-up `System::capture_warm(cfg, benches)` performs.
pub fn replay(cfg: &SystemConfig, benches: &[Benchmark], sp: &Spans, parent: SpanId) -> Replay {
    let n = benches.len();
    let geom = CacheGeometry::new(cfg.org_kind, cfg.dram_org, cfg.mapping);
    let seeds = SeedSplitter::new(cfg.seed);
    let mut gens: Vec<OpStream> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let base = (i as u64 + 1) << 26;
            OpStream::for_bench(*b, base, seeds.split("core").split_index(i as u64).seed())
        })
        .collect();
    let mut l1: Vec<SramCache> = benches.iter().map(|_| SramCache::paper_l1()).collect();
    let mut l2 = SramCache::paper_l2();
    let mut tags = TagArray::with_policy(geom.num_sets(), cfg.org_kind.ways(), cfg.replacement);
    let predictor = MapI::paper();

    // cpu: the op streams, round-robin over cores as warm-up draws them.
    let mut ops: Vec<(u64, bool)> = Vec::with_capacity(cfg.warmup_ops as usize * n);
    let (_, secs, id) = sp.time("cpu.next_op", Some(parent), || {
        for _ in 0..cfg.warmup_ops {
            for g in gens.iter_mut() {
                let op = g.next_op();
                ops.push((op.block, op.is_store));
            }
        }
    });
    let cpu = Stage {
        secs,
        calls: ops.len() as u64,
    };
    sp.count(id, "calls", cpu.calls);

    // L1: probe; on a miss the L2 sees the access, then the refill's
    // dirty victim (if any) is written back into the L2.
    let mut l2_calls = Vec::new();
    let mut l1_calls = 0u64;
    let (_, secs, id) = sp.time("mem-hier.l1", Some(parent), || {
        for (k, &(block, store)) in ops.iter().enumerate() {
            let cache = &mut l1[k % n];
            l1_calls += 1;
            if cache.probe(block, store) {
                continue;
            }
            l2_calls.push(L2Call::Access { block, store });
            l1_calls += 1;
            if let Some((victim, true)) = cache.allocate(block, store) {
                l2_calls.push(L2Call::Writeback { block: victim });
            }
        }
    });
    let l1_stage = Stage {
        secs,
        calls: l1_calls,
    };
    sp.count(id, "calls", l1_calls);
    drop(ops);

    // L2: a missing access warms the tags with the block, then with the
    // refill's dirty victim (`true` marks a dirty victim).
    let mut tag_calls: Vec<(u64, bool)> = Vec::new();
    let mut l2_count = 0u64;
    let (_, secs, id) = sp.time("mem-hier.l2", Some(parent), || {
        for call in &l2_calls {
            l2_count += 1;
            match *call {
                L2Call::Access { block, store } => {
                    if l2.probe(block, store) {
                        continue;
                    }
                    tag_calls.push((block, false));
                    l2_count += 1;
                    if let Some((victim, true)) = l2.allocate(block, store) {
                        tag_calls.push((victim, true));
                    }
                }
                L2Call::Writeback { block } => {
                    l2.probe(block, true);
                }
            }
        }
    });
    let l2_stage = Stage {
        secs,
        calls: l2_count,
    };
    sp.count(id, "calls", l2_count);
    drop(l2_calls);

    let (_, secs, id) = sp.time("dram-cache.tag", Some(parent), || {
        for &(block, dirty_victim) in &tag_calls {
            let p = geom.place(block);
            match (tags.lookup(p.set, p.tag), dirty_victim) {
                (Some(w), false) => tags.touch(p.set, w),
                (Some(w), true) => tags.set_dirty(p.set, w, true),
                (None, dirty) => {
                    tags.insert(p.set, p.tag, dirty);
                }
            }
        }
    });
    let tag_stage = Stage {
        secs,
        calls: tag_calls.len() as u64,
    };
    sp.count(id, "calls", tag_stage.calls);

    let mut w = ByteWriter::new();
    w.put_bytes(WARM_MAGIC);
    w.put_u32(WARM_FORMAT_VERSION);
    w.put_u64(WarmState::fingerprint_for(cfg, benches));
    w.put_u32(n as u32);
    for c in &l1 {
        c.encode(&mut w);
    }
    l2.encode(&mut w);
    tags.encode(&mut w);
    predictor.encode(&mut w);
    w.put_u32(n as u32);
    for g in &gens {
        g.encode(&mut w);
    }
    let mut blob = w.into_vec();
    let d = digest64(&blob);
    blob.extend_from_slice(&d.to_le_bytes());

    Replay {
        cpu,
        l1: l1_stage,
        l2: l2_stage,
        tags: tag_stage,
        fill_frac: tags.valid_count() as f64 / (tags.sets() * tags.ways() as u64) as f64,
        blob,
    }
}
