//! System configuration (paper Table II).

use dca_dram::{MappingScheme, Organization, TimingParams};
use dca_dram_cache::{OrgKind, ReplacementPolicy};
use dca_mem_hier::MainMemConfig;
use dca_sched::queue::{MAX_BANKS, MAX_CAPACITY};

use crate::controller::REQUEST_ACCESSES;

/// The controller designs raced against each other: the paper's three
/// plus a Banshee-style bandwidth-efficient fourth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    /// Conventional Design (§III-A): queue by access type.
    Cd,
    /// Request-Oriented Design (§III-B): queue by request type.
    Rod,
    /// DRAM-Cache-Aware (§IV): CD queues + PR/LR split + OFS.
    Dca,
    /// Banshee-style bandwidth-efficient design (Yu et al.): CD queues,
    /// but miss fills are gated by page-granular frequency counters so
    /// cold pages bypass the cache and fill traffic drops
    /// ([`BansheeParams`]).
    Banshee,
}

impl Design {
    /// All designs, the paper's three in presentation order first.
    pub const ALL: [Design; 4] = [Design::Cd, Design::Rod, Design::Dca, Design::Banshee];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Design::Cd => "CD",
            Design::Rod => "ROD",
            Design::Dca => "DCA",
            Design::Banshee => "BAN",
        }
    }
}

/// Which event engine drives the simulation loop. Every variant delivers
/// events in the same total `(time, seq)` order, so the choice cannot
/// affect results — `tests/engine_equivalence.rs` locks all of them to
/// bit-identical `SystemReport` fingerprints. The knob selects wall-clock
/// behaviour only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineSel {
    /// The original `BinaryHeap` engine — the A/B oracle and perf
    /// baseline.
    Heap,
    /// Two-level calendar queue at the fixed
    /// [`SystemConfig::event_slot_shift`] slot width (default).
    #[default]
    Calendar,
    /// Calendar queue with runtime density-adaptive slot width: the
    /// queue samples events-per-slot and resizes itself when clustering
    /// changes, so no per-workload `event_slot_shift` tuning is needed.
    CalendarAdaptive,
    /// Domain-sharded event storage: one calendar queue per shard
    /// (events are tagged with a static domain — front-end, per
    /// DRAM-cache channel, main memory — at their schedule sites) with a
    /// deterministic min-merge across shards. `threads` sets the shard
    /// count (1–8). See the engine notes in `core::system` for why the
    /// system-level merge stays on one thread while the parallel
    /// protocol itself lives in `dca_sim_core::shardloop`.
    Sharded {
        /// Shard count; must be in `1..=8`.
        threads: u8,
    },
}

impl EngineSel {
    /// Stable lowercase token for job ids and CLI surfaces: `heap`,
    /// `cal`, `cala`, or `sh<threads>`.
    pub fn token(self) -> String {
        match self {
            EngineSel::Heap => "heap".to_string(),
            EngineSel::Calendar => "cal".to_string(),
            EngineSel::CalendarAdaptive => "cala".to_string(),
            EngineSel::Sharded { threads } => format!("sh{threads}"),
        }
    }

    /// Inverse of [`EngineSel::token`].
    pub fn parse_token(tok: &str) -> Option<EngineSel> {
        match tok {
            "heap" => Some(EngineSel::Heap),
            "cal" => Some(EngineSel::Calendar),
            "cala" => Some(EngineSel::CalendarAdaptive),
            _ => {
                let n = tok.strip_prefix("sh")?;
                let threads: u8 = n.parse().ok()?;
                (1..=8)
                    .contains(&threads)
                    .then_some(EngineSel::Sharded { threads })
            }
        }
    }
}

/// Which base arbitration algorithm orders candidates within a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arbiter {
    /// BLISS \[11\] — the paper's choice for all designs.
    Bliss,
    /// FR-FCFS — ablation only.
    FrFcfs,
}

/// DCA-specific knobs (§IV).
#[derive(Clone, Copy, Debug)]
pub struct DcaParams {
    /// Flushing factor: an LR with a row conflict may still issue when
    /// its bank's RRPC is below this (paper default FF-4).
    pub flushing_factor: u8,
    /// Algorithm 1 ScheduleAll turn-on occupancy (paper: 85 %).
    pub read_q_hi: f64,
    /// Algorithm 1 ScheduleAll turn-off occupancy (paper: 75 %).
    pub read_q_lo: f64,
}

impl Default for DcaParams {
    fn default() -> Self {
        DcaParams {
            flushing_factor: 4,
            read_q_hi: 0.85,
            read_q_lo: 0.75,
        }
    }
}

/// Banshee-style fill-gate knobs ([`Design::Banshee`]).
#[derive(Clone, Copy, Debug)]
pub struct BansheeParams {
    /// A page's miss fills are admitted only once its frequency counter
    /// has reached this value — the first `fill_threshold - 1` misses
    /// to a cold page bypass the cache.
    pub fill_threshold: u8,
    /// Saturation cap for the per-page frequency counters (Banshee uses
    /// small saturating counters in the page-table/TLB entries).
    pub counter_cap: u8,
}

impl Default for BansheeParams {
    fn default() -> Self {
        BansheeParams {
            fill_threshold: 2,
            counter_cap: 7,
        }
    }
}

/// Full system configuration.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Controller design under test.
    pub design: Design,
    /// DRAM-cache organisation (set-associative / direct-mapped).
    pub org_kind: OrgKind,
    /// DRAM-cache replacement policy (SRRIP default; warm-up drives the
    /// tag array through it, so it is part of the warm fingerprint).
    pub replacement: ReplacementPolicy,
    /// Bank-index mapping (plain or XOR remap \[9\]).
    pub mapping: MappingScheme,
    /// Base arbiter (paper: BLISS for everything).
    pub arbiter: Arbiter,
    /// Stacked-DRAM timing.
    pub timing: TimingParams,
    /// Stacked-DRAM organisation.
    pub dram_org: Organization,
    /// Off-chip main-memory backend behind the DRAM cache: the flat
    /// seed model (Table II's 50 ns + bus, the default — bit-identical
    /// to the pre-refactor simulator) or the cycle-level DDR4-style
    /// device.
    pub main_mem: MainMemConfig,
    /// Read-queue entries per channel (Table II: 64; 32 for ROD).
    pub read_q_cap: usize,
    /// Write-queue entries per channel (Table II: 64; 96 for ROD).
    pub write_q_cap: usize,
    /// Write-queue drain thresholds (Table II: 50 %/85 %).
    pub write_lo: f64,
    /// See [`SystemConfig::write_lo`].
    pub write_hi: f64,
    /// DCA knobs.
    pub dca: DcaParams,
    /// Banshee fill-gate knobs (consulted only by [`Design::Banshee`]).
    pub banshee: BansheeParams,
    /// Enable Lee et al. DRAM-aware L2 writeback \[20\] (Fig 19).
    pub lee_writeback: bool,
    /// Enable the MAP-I hit/miss predictor \[7\] (paper: on).
    pub predictor: bool,
    /// Instructions per core for the timing run.
    pub target_insts: u64,
    /// Functional warm-up memory operations per core before timing.
    pub warmup_ops: u64,
    /// Experiment seed.
    pub seed: u64,
    /// L1 hit latency in CPU cycles (Table II: 2).
    pub l1_lat_cycles: u64,
    /// L2 hit latency in CPU cycles (Table II: 20).
    pub l2_lat_cycles: u64,
    /// Shared L2 MSHR count.
    pub mshrs: usize,
    /// Record a detailed access timeline (examples/diagnostics only).
    pub record_timeline: bool,
    /// Event engine driving the run ([`EngineSel`]; default calendar).
    /// Results are bit-identical for every variant; the knob exists for
    /// A/B determinism tests and `perf_smoke` measurements.
    pub engine: EngineSel,
    /// **log2 of the calendar-queue slot width, in picoseconds** — shift
    /// 10 means `2^10 ps ≈ 1 ns` slots, so the 1024-bucket ring spans
    /// ~1 µs. A pure performance knob — delivery order, and hence every
    /// result, is identical for any value; the `event_clustered_*` and
    /// `event_rolling_window_*` microbenches bracket the trade-off.
    ///
    /// Valid range is `0..=`[`dca_sim_core::events::MAX_SLOT_SHIFT`]
    /// (40, a ring slot of ~18 minutes of simulated time): beyond that
    /// the slot-index computation `time >> shift` would exceed what the
    /// u64 picosecond clock can address and, in release builds, silently
    /// wrap the shift amount. [`SystemConfig::validate`] rejects such
    /// values up front instead of leaving them to a debug-only assert.
    ///
    /// Used by [`EngineSel::Calendar`] (fixed width) and as the starting
    /// width for [`EngineSel::Sharded`] shard queues; ignored by the
    /// heap engine, and only the *initial* width for
    /// [`EngineSel::CalendarAdaptive`].
    pub event_slot_shift: u32,
}

impl SystemConfig {
    /// Table II configuration for `design` × `org_kind`.
    pub fn paper(design: Design, org_kind: OrgKind) -> Self {
        let (read_q_cap, write_q_cap) = match design {
            Design::Rod => (32, 96),
            _ => (64, 64),
        };
        SystemConfig {
            design,
            org_kind,
            replacement: ReplacementPolicy::Srrip,
            mapping: MappingScheme::Direct,
            arbiter: Arbiter::Bliss,
            timing: TimingParams::paper_stacked(),
            dram_org: Organization::paper(),
            main_mem: MainMemConfig::paper_flat(),
            read_q_cap,
            write_q_cap,
            write_lo: 0.50,
            write_hi: 0.85,
            dca: DcaParams::default(),
            banshee: BansheeParams::default(),
            lee_writeback: false,
            predictor: true,
            target_insts: 2_000_000,
            warmup_ops: 400_000,
            seed: 0xDCA_2016,
            l1_lat_cycles: 2,
            l2_lat_cycles: 20,
            mshrs: 32,
            record_timeline: false,
            engine: EngineSel::Calendar,
            event_slot_shift: dca_sim_core::events::SLOT_SHIFT,
        }
    }

    /// Check knob ranges that would otherwise surface only as a panic
    /// (or, for oversized slot shifts in release builds, a silently
    /// wrapped shift amount) deep inside `System::assemble`.
    pub fn validate(&self) -> Result<(), String> {
        let max = dca_sim_core::events::MAX_SLOT_SHIFT;
        if self.event_slot_shift > max {
            return Err(format!(
                "event_slot_shift {} exceeds MAX_SLOT_SHIFT {} (log2 picoseconds; \
                 larger shifts overflow the ring-width computation)",
                self.event_slot_shift, max
            ));
        }
        for (field, cap) in [
            ("read_q_cap", self.read_q_cap),
            ("write_q_cap", self.write_q_cap),
        ] {
            if cap < REQUEST_ACCESSES {
                return Err(format!(
                    "{field} {cap} is below {REQUEST_ACCESSES}: a cache request is \
                     admitted only when each queue has room for its \
                     {REQUEST_ACCESSES} accesses, so this queue would admit nothing"
                ));
            }
            if cap > MAX_CAPACITY {
                return Err(format!(
                    "{field} {cap} exceeds {MAX_CAPACITY}, the largest queue the \
                     slot index represents"
                ));
            }
        }
        check_banks("dram_org", &self.dram_org)?;
        if let MainMemConfig::Cycle { org, queue_cap, .. } = self.main_mem {
            check_banks("main_mem org", &org)?;
            if queue_cap as usize > MAX_CAPACITY {
                return Err(format!(
                    "main_mem queue_cap {queue_cap} exceeds {MAX_CAPACITY}, the \
                     largest queue the slot index represents"
                ));
            }
        }
        if let EngineSel::Sharded { threads } = self.engine {
            if threads == 0 || threads > 8 {
                return Err(format!(
                    "sharded engine thread count {threads} outside 1..=8"
                ));
            }
        }
        Ok(())
    }

    /// Convenience: the paper config with the XOR remapping enabled.
    pub fn paper_remap(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.mapping = MappingScheme::XorRemap;
        cfg
    }

    /// Convenience: the paper config with the cycle-level DDR4
    /// main-memory backend instead of the flat model.
    pub fn paper_cycle_mem(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.main_mem = MainMemConfig::ddr4();
        cfg
    }

    /// Convenience: the paper config with the slow 3DXPoint-like
    /// cycle-level main memory — the regime where the DRAM cache stops
    /// being an optimisation and becomes load-bearing.
    pub fn paper_xpoint(design: Design, org_kind: OrgKind) -> Self {
        let mut cfg = Self::paper(design, org_kind);
        cfg.main_mem = MainMemConfig::xpoint();
        cfg
    }

    /// Scale the run length (both warm-up and timing) by `factor` — used
    /// by tests and quick benches.
    pub fn scaled(mut self, insts: u64, warmup: u64) -> Self {
        self.target_insts = insts;
        self.warmup_ops = warmup;
        self
    }
}

/// Reject a bank count the per-bank slot index and the free-bank mask
/// (one `u64` each) cannot represent.
fn check_banks(field: &str, org: &Organization) -> Result<(), String> {
    let banks = org.banks_per_channel() as usize;
    if (1..=MAX_BANKS).contains(&banks) {
        Ok(())
    } else {
        Err(format!(
            "{field} has {banks} banks per channel; the scheduler's bank masks \
             hold 1..={MAX_BANKS}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rod_gets_asymmetric_queues() {
        let cd = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped);
        let rod = SystemConfig::paper(Design::Rod, OrgKind::DirectMapped);
        let dca = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        assert_eq!((cd.read_q_cap, cd.write_q_cap), (64, 64));
        assert_eq!((rod.read_q_cap, rod.write_q_cap), (32, 96));
        assert_eq!((dca.read_q_cap, dca.write_q_cap), (64, 64));
    }

    #[test]
    fn labels() {
        assert_eq!(Design::Cd.label(), "CD");
        assert_eq!(Design::Rod.label(), "ROD");
        assert_eq!(Design::Dca.label(), "DCA");
        assert_eq!(Design::Banshee.label(), "BAN");
        assert_eq!(Design::ALL.len(), 4);
    }

    #[test]
    fn banshee_gets_cd_queues_and_srrip_default() {
        let ban = SystemConfig::paper(Design::Banshee, OrgKind::DirectMapped);
        assert_eq!((ban.read_q_cap, ban.write_q_cap), (64, 64));
        assert_eq!(ban.replacement, ReplacementPolicy::Srrip);
        assert_eq!(ban.banshee.fill_threshold, 2);
        assert!(ban.banshee.counter_cap >= ban.banshee.fill_threshold);
    }

    #[test]
    fn xpoint_variant_flips_main_mem_only() {
        let a = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        let b = SystemConfig::paper_xpoint(Design::Dca, OrgKind::DirectMapped);
        assert!(!a.main_mem.is_cycle());
        assert!(b.main_mem.is_cycle());
        assert_eq!(a.read_q_cap, b.read_q_cap);
    }

    #[test]
    fn dca_defaults_match_paper() {
        let d = DcaParams::default();
        assert_eq!(d.flushing_factor, 4);
        assert_eq!(d.read_q_hi, 0.85);
        assert_eq!(d.read_q_lo, 0.75);
    }

    #[test]
    fn engine_tokens_round_trip() {
        let all = [
            EngineSel::Heap,
            EngineSel::Calendar,
            EngineSel::CalendarAdaptive,
            EngineSel::Sharded { threads: 1 },
            EngineSel::Sharded { threads: 4 },
        ];
        for e in all {
            assert_eq!(EngineSel::parse_token(&e.token()), Some(e));
        }
        assert_eq!(EngineSel::parse_token("sh0"), None);
        assert_eq!(EngineSel::parse_token("sh9"), None);
        assert_eq!(EngineSel::parse_token("sh"), None);
        assert_eq!(EngineSel::parse_token("turbo"), None);
        assert_eq!(EngineSel::default(), EngineSel::Calendar);
    }

    #[test]
    fn validate_rejects_overflowing_slot_shift_and_bad_threads() {
        let mut cfg = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        assert!(cfg.validate().is_ok());
        cfg.event_slot_shift = dca_sim_core::events::MAX_SLOT_SHIFT;
        assert!(cfg.validate().is_ok());
        cfg.event_slot_shift = dca_sim_core::events::MAX_SLOT_SHIFT + 1;
        assert!(cfg.validate().is_err());
        cfg.event_slot_shift = dca_sim_core::events::SLOT_SHIFT;
        cfg.engine = EngineSel::Sharded { threads: 0 };
        assert!(cfg.validate().is_err());
        cfg.engine = EngineSel::Sharded { threads: 9 };
        assert!(cfg.validate().is_err());
        cfg.engine = EngineSel::Sharded { threads: 4 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_queues_that_cannot_admit() {
        let base = SystemConfig::paper(Design::Cd, OrgKind::DirectMapped);
        let mut cfg = base;
        cfg.read_q_cap = REQUEST_ACCESSES;
        cfg.write_q_cap = REQUEST_ACCESSES;
        assert!(cfg.validate().is_ok(), "room for exactly one request");
        cfg.read_q_cap = 2;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("read_q_cap 2"), "{err}");
        let mut cfg = base;
        cfg.write_q_cap = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("write_q_cap 0"), "{err}");
    }

    #[test]
    fn validate_rejects_queues_too_large_for_the_slot_index() {
        let base = SystemConfig::paper(Design::Rod, OrgKind::DirectMapped);
        let mut cfg = base;
        cfg.read_q_cap = MAX_CAPACITY;
        cfg.write_q_cap = MAX_CAPACITY;
        assert!(cfg.validate().is_ok());
        cfg.read_q_cap = MAX_CAPACITY + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("read_q_cap"), "{err}");
        let mut cfg = base;
        cfg.write_q_cap = MAX_CAPACITY + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("write_q_cap"), "{err}");
        let mut cfg = SystemConfig::paper_cycle_mem(Design::Dca, OrgKind::DirectMapped);
        assert!(cfg.validate().is_ok());
        if let MainMemConfig::Cycle { queue_cap, .. } = &mut cfg.main_mem {
            *queue_cap = MAX_CAPACITY as u32 + 1;
        }
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("main_mem queue_cap"), "{err}");
    }

    #[test]
    fn validate_rejects_bank_counts_the_masks_cannot_hold() {
        let base = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        let mut cfg = base;
        cfg.dram_org.banks_per_rank = MAX_BANKS as u32;
        assert!(cfg.validate().is_ok());
        cfg.dram_org.ranks = 2;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("dram_org has 128 banks"), "{err}");
        let mut cfg = base;
        cfg.dram_org.banks_per_rank = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("dram_org has 0 banks"), "{err}");
        let mut cfg = SystemConfig::paper_cycle_mem(Design::Dca, OrgKind::DirectMapped);
        if let MainMemConfig::Cycle { org, .. } = &mut cfg.main_mem {
            org.banks_per_rank = MAX_BANKS as u32 + 1;
        }
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("main_mem org has 65 banks"), "{err}");
    }

    #[test]
    fn remap_variant_flips_mapping_only() {
        let a = SystemConfig::paper(Design::Dca, OrgKind::DirectMapped);
        let b = SystemConfig::paper_remap(Design::Dca, OrgKind::DirectMapped);
        assert_eq!(a.mapping, MappingScheme::Direct);
        assert_eq!(b.mapping, MappingScheme::XorRemap);
        assert_eq!(a.read_q_cap, b.read_q_cap);
    }
}
