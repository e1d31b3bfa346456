//! One digest over every field of a [`SystemReport`].
//!
//! The structs are destructured without `..`, so a field added to any of
//! them stops this file from compiling until the digest covers it too.

use dca::{ChannelReport, CoreReport, CtrlStats, SystemReport};
use dca_mem_hier::MainMemStats;
use dca_sim_core::digest64;

/// Little-endian byte sink that [`digest64`] hashes once at the end.
#[derive(Default)]
pub struct Hasher(Vec<u8>);

impl Hasher {
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        digest64(&self.0)
    }
}

/// Digest of a whole report: cores, channels with every controller
/// counter, main memory, fills, latency and the engine's event count.
pub fn report(r: &SystemReport) -> u64 {
    let SystemReport {
        cores,
        channels,
        l2_miss_latency,
        cache_read_hits,
        cache_read_misses,
        predictor_accuracy,
        mem_reads,
        mem_writes,
        main_mem,
        writeback_requests,
        refill_requests,
        cache_fills,
        fill_bypasses,
        end_time,
        events_processed,
        timeline,
    } = r;
    let mut h = Hasher::default();
    h.u64(cores.len() as u64);
    for c in cores {
        core(&mut h, c);
    }
    h.u64(channels.len() as u64);
    for c in channels {
        channel(&mut h, c);
    }
    h.u64(l2_miss_latency.count());
    h.f64(l2_miss_latency.mean_ns());
    h.f64(l2_miss_latency.p99_ns());
    for v in [
        *cache_read_hits,
        *cache_read_misses,
        *mem_reads,
        *mem_writes,
        *writeback_requests,
        *refill_requests,
        *cache_fills,
        *fill_bypasses,
        end_time.ps(),
        *events_processed,
    ] {
        h.u64(v);
    }
    h.f64(*predictor_accuracy);
    main_memory(&mut h, main_mem);
    h.u64(
        timeline
            .as_ref()
            .map_or(u64::MAX, |t| t.entries().len() as u64),
    );
    h.finish()
}

fn core(h: &mut Hasher, c: &CoreReport) {
    let CoreReport {
        bench,
        insts,
        cycles,
        ipc,
    } = c;
    h.str(bench);
    h.u64(*insts);
    h.u64(*cycles);
    h.f64(*ipc);
}

fn channel(h: &mut Hasher, c: &ChannelReport) {
    let ChannelReport {
        reads,
        writes,
        turnarounds,
        accesses_per_turnaround,
        read_row_hit_rate,
        read_row_conflicts,
        ctrl,
    } = c;
    h.u64(*reads);
    h.u64(*writes);
    h.u64(*turnarounds);
    h.f64(*accesses_per_turnaround);
    h.f64(*read_row_hit_rate);
    h.u64(*read_row_conflicts);
    let CtrlStats {
        pr_served,
        lr_served,
        writes_served,
        ofs_row_friendly,
        ofs_rrpc_cold,
        forced_drain_slots,
        spilled,
        sched_all_entries,
        pr_wait_ps,
        lr_wait_ps,
        write_wait_ps,
    } = ctrl;
    for v in [
        pr_served.get(),
        lr_served.get(),
        writes_served.get(),
        ofs_row_friendly.get(),
        ofs_rrpc_cold.get(),
        forced_drain_slots.get(),
        spilled.get(),
        sched_all_entries.get(),
        *pr_wait_ps,
        *lr_wait_ps,
        *write_wait_ps,
    ] {
        h.u64(v);
    }
}

fn main_memory(h: &mut Hasher, m: &MainMemStats) {
    let MainMemStats {
        backend,
        reads,
        writes,
        busy_ps,
        row_hits,
        row_conflicts,
        turnarounds,
        peak_queue,
        queue_wait_ps,
    } = m;
    h.str(backend);
    for v in [
        *reads,
        *writes,
        *busy_ps,
        *row_hits,
        *row_conflicts,
        *turnarounds,
        *peak_queue,
        *queue_wait_ps,
    ] {
        h.u64(v);
    }
}
