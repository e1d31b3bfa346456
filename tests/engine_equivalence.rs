//! Determinism regression across the two event engines.
//!
//! The calendar-queue engine replaced the original `BinaryHeap` engine on
//! the promise that `(time, insertion-seq)` delivery order — and hence
//! every simulation statistic — is preserved bit-for-bit. These tests
//! hold that promise under the full system model: the same seed must
//! produce identical `SystemReport`s run-to-run on each engine, and the
//! calendar queue must match the heap oracle on every design, on both
//! cache organisations, and on both the flat and the cycle-level DDR4
//! main memory.

use dca::{
    ChannelReport, CoreReport, CtrlStats, Design, EngineSel, System, SystemConfig, SystemReport,
};
use dca_cpu::mix;
use dca_dram_cache::OrgKind;
use dca_mem_hier::MainMemStats;

/// Both engines. The heap engine is the oracle the calendar queue is
/// compared against.
const ENGINES: [EngineSel; 2] = [EngineSel::Heap, EngineSel::Calendar];

/// Run mix 3 on `cfg` (the paper config of some design, org and main
/// memory) at test scale.
fn run_cfg(mut cfg: SystemConfig, engine: EngineSel, seed: u64) -> SystemReport {
    cfg.target_insts = 40_000;
    cfg.warmup_ops = 150_000;
    cfg.seed = seed;
    cfg.engine = engine;
    System::new(cfg, &mix(3).benches).run()
}

fn run(design: Design, org: OrgKind, engine: EngineSel, seed: u64) -> SystemReport {
    run_cfg(SystemConfig::paper(design, org), engine, seed)
}

/// Every statistic the report carries: each integer field of the report,
/// its cores, channels, controllers and main memory, plus the bit
/// patterns of the floats derived from them. The destructuring names
/// every field, so a field added to any of these structs fails to
/// compile here until it is fingerprinted.
fn fingerprint(r: &SystemReport) -> Vec<u64> {
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
        timeline: _,
    } = r;
    let MainMemStats {
        backend,
        reads: mm_reads,
        writes: mm_writes,
        busy_ps,
        row_hits,
        row_conflicts,
        turnarounds: mm_turnarounds,
        peak_queue,
        queue_wait_ps,
    } = main_mem;
    let mut v = vec![
        end_time.ps(),
        *events_processed,
        *mem_reads,
        *mem_writes,
        *writeback_requests,
        *refill_requests,
        *cache_fills,
        *fill_bypasses,
        *cache_read_hits,
        *cache_read_misses,
        predictor_accuracy.to_bits(),
        l2_miss_latency.count(),
        l2_miss_latency.mean_ns().to_bits(),
        l2_miss_latency.p99_ns().to_bits(),
        u64::from(*backend == "cycle"),
        *mm_reads,
        *mm_writes,
        *busy_ps,
        *row_hits,
        *row_conflicts,
        *mm_turnarounds,
        *peak_queue,
        *queue_wait_ps,
    ];
    for c in cores {
        let CoreReport {
            bench: _,
            insts,
            cycles,
            ipc,
        } = c;
        v.extend([*insts, *cycles, ipc.to_bits()]);
    }
    for ch in channels {
        let ChannelReport {
            reads,
            writes,
            turnarounds,
            accesses_per_turnaround,
            read_row_hit_rate,
            read_row_conflicts,
            ctrl,
        } = ch;
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
        v.extend([
            *reads,
            *writes,
            *turnarounds,
            accesses_per_turnaround.to_bits(),
            read_row_hit_rate.to_bits(),
            *read_row_conflicts,
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
        ]);
    }
    v
}

/// Assert the calendar queue reproduces the heap oracle on `cfg`, and
/// return the calendar run's report.
fn assert_engines_agree(cfg: SystemConfig, seed: u64, what: &str) -> SystemReport {
    let oracle = run_cfg(cfg, EngineSel::Heap, seed);
    let calendar = run_cfg(cfg, EngineSel::Calendar, seed);
    assert_eq!(
        fingerprint(&calendar),
        fingerprint(&oracle),
        "calendar diverges from the heap oracle on {what}"
    );
    calendar
}

#[test]
fn same_engine_same_seed_identical() {
    for engine in ENGINES {
        let a = run(Design::Dca, OrgKind::DirectMapped, engine, 11);
        let b = run(Design::Dca, OrgKind::DirectMapped, engine, 11);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{engine:?} engine is not reproducible"
        );
    }
}

#[test]
fn all_engines_agree_bit_for_bit_all_designs() {
    for design in Design::ALL {
        let cfg = SystemConfig::paper(design, OrgKind::DirectMapped);
        assert_engines_agree(cfg, 11, &format!("{} DM flat", design.label()));
    }
}

#[test]
fn all_engines_agree_set_assoc_and_other_seed() {
    for design in Design::ALL {
        let cfg = SystemConfig::paper(design, OrgKind::paper_set_assoc());
        assert_engines_agree(cfg, 99, &format!("{} SA flat", design.label()));
    }
}

#[test]
fn all_engines_agree_on_the_cycle_level_main_memory() {
    // The cycle-level device schedules its own MemPump/MemArrive events,
    // so it is a second event stream the engines must order identically.
    for org in [OrgKind::DirectMapped, OrgKind::paper_set_assoc()] {
        for design in Design::ALL {
            let cfg = SystemConfig::paper_cycle_mem(design, org);
            let what = format!("{} {} cycle-level", design.label(), org.label());
            let r = assert_engines_agree(cfg, 11, &what);
            assert_eq!(r.main_mem.backend, "cycle", "{what}");
            assert!(r.main_mem.reads > 0, "{what}: the device saw no traffic");
        }
    }
}
