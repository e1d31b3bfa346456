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

/// Which event engine drives the simulation loop. Both deliver events
/// in the same total `(time, seq)` order, so the choice cannot affect
/// results — `tests/engine_equivalence.rs` locks them to bit-identical
/// `SystemReport` fingerprints. The knob selects wall-clock behaviour
/// only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineSel {
    /// The original `BinaryHeap` engine — the A/B oracle and perf
    /// baseline.
    Heap,
    /// Two-level calendar queue at the default slot width (default).
    #[default]
    Calendar,
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
    /// Results are bit-identical for both; the knob exists for A/B
    /// determinism tests and `perf_smoke` measurements.
    pub engine: EngineSel,
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
        }
    }

    /// Check knob ranges that would otherwise surface only as a panic
    /// deep inside `System::assemble`.
    pub fn validate(&self) -> Result<(), String> {
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
