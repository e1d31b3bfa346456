//! The three workloads and the work one rep of each does, run inside a
//! child process of the driver (see `main.rs`).

use dca::{Design, EngineSel, System, SystemConfig, SystemReport, WarmState};
use dca_bench::{
    evaluate, run_parallel, AloneIpc, DesignSummary, MainMemKind, RunSpec, Scale, WarmCache,
};
use dca_cpu::{mix, Benchmark};
use dca_dram_cache::OrgKind;
use dca_metrics::weighted_speedup;

use crate::digest::{self, Hasher};
use crate::replay::replay;
use crate::spans::{SpanId, Spans};

/// Warm-up ops per core: the harness default, kept so reports stay as
/// the figures see them.
const WARMUP_OPS: u64 = 400_000;

/// The designs the paper compares, in report order.
const DESIGNS: [Design; 3] = [Design::Cd, Design::Rod, Design::Dca];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StreamDm,
    ChaseSaDdr4,
    Fig8Session,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StreamDm,
        Workload::ChaseSaDdr4,
        Workload::Fig8Session,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamDm => "stream-dm",
            Workload::ChaseSaDdr4 => "chase-sa-ddr4",
            Workload::Fig8Session => "fig8-session",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Table I mixes the workload runs; the first is the one its
    /// core-level pass (and traced replay) uses.
    fn mixes(self) -> &'static [u32] {
        match self {
            Workload::StreamDm => &[4],
            Workload::ChaseSaDdr4 => &[10],
            Workload::Fig8Session => &[1, 13],
        }
    }

    fn org(self) -> OrgKind {
        match self {
            Workload::StreamDm => OrgKind::DirectMapped,
            _ => OrgKind::paper_set_assoc(),
        }
    }

    fn main_mem(self) -> MainMemKind {
        match self {
            Workload::ChaseSaDdr4 => MainMemKind::Ddr4 { slow: 1 },
            _ => MainMemKind::Flat,
        }
    }

    /// Instructions per core in one simulated run.
    fn insts(self) -> u64 {
        match self {
            Workload::StreamDm | Workload::ChaseSaDdr4 => 250_000,
            Workload::Fig8Session => 100_000,
        }
    }

    /// The scale the harness would read from `DCA_INSTS`/`DCA_WARMUP`;
    /// the driver passes both to the child so `AloneIpc` sees them too.
    pub fn scale(self) -> Scale {
        Scale {
            insts: self.insts(),
            warmup: WARMUP_OPS,
            mixes: self.mixes().to_vec(),
        }
    }

    fn spec(self, design: Design, seed: u64) -> RunSpec {
        let mut spec =
            RunSpec::at_scale(design, self.org(), &self.scale()).with_main_mem(self.main_mem());
        spec.seed = seed;
        spec
    }

    fn config(self, design: Design, seed: u64) -> SystemConfig {
        self.spec(design, seed).config()
    }

    fn benches(self) -> [Benchmark; 4] {
        mix(self.mixes()[0]).benches
    }

    /// Whether alone IPCs come from a separate child (outside the reps)
    /// rather than from the rep's own set-up.
    pub fn alone_outside_reps(self) -> bool {
        self != Workload::Fig8Session
    }
}

/// What a child reports: a digest of everything it simulated, the
/// checks it made, and named metrics.
#[derive(Default)]
pub struct Out {
    pub digest: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Vec<(String, f64)>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// The single line the driver parses.
    pub fn line(&self) -> String {
        let mut s = format!("RESULT digest={:016x}", self.digest);
        for (name, ok) in &self.checks {
            s.push_str(&format!(" check.{name}={}", u8::from(*ok)));
        }
        for (name, v) in &self.metrics {
            s.push_str(&format!(" {name}={v}"));
        }
        s
    }
}

/// Alone IPCs of the workload's benchmarks by the harness protocol
/// (`AloneIpc`: CD, no remap, the workload's organisation and main
/// memory), in core order.
pub fn alone(w: Workload) -> Out {
    let table = AloneIpc::new();
    let benches = w.benches();
    let sp = Spans::new(false);
    let (ipcs, secs, _) = sp.time("bench.alone", None, || {
        run_parallel(benches.to_vec(), |b| {
            table.get_with(b, w.org(), w.main_mem())
        })
    });
    let mut h = Hasher::default();
    for &v in &ipcs {
        h.f64(v);
    }
    let stats = WarmCache::global().stats();
    let mut out = Out {
        digest: h.finish(),
        ..Out::default()
    };
    out.put("bench.alone_s", secs);
    out.put(
        "bench.warm_hit_frac",
        stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64,
    );
    for (i, v) in ipcs.iter().enumerate() {
        out.put(&format!("alone.{i}"), *v);
    }
    out
}

/// One rep: set-up, then the timed phase, then (when traced) the
/// per-layer passes that sit outside the timed window.
pub fn rep(w: Workload, seed: u64, alone_ipc: &[f64], traced: bool) -> (Out, Spans) {
    let sp = Spans::new(traced);
    let root = sp.open("rep", None);
    let (mut out, pass) = match w {
        Workload::Fig8Session => (fig8_session(w, seed, &sp, root), None),
        _ => {
            let pass = core_pass(w, seed, &sp, root);
            let ws = |r: &SystemReport| weighted_speedup(&r.ipcs(), alone_ipc);
            let mut out = Out {
                digest: pass.digest(),
                ..Out::default()
            };
            out.put("setup_s", pass.setup_s);
            out.put("run_s", pass.run_s());
            out.put("dca_speedup", ws(&pass.reports[2]) / ws(&pass.reports[0]));
            out.put("dca_miss_ns", pass.reports[2].l2_miss_latency.mean_ns());
            (out, Some(pass))
        }
    };
    out.put("wall_s", sp.close(root));
    if traced {
        // The session's `evaluate` calls hide their systems, so its core
        // layers are measured on its first mix directly.
        let pass = pass.unwrap_or_else(|| {
            let span = sp.open("core.pass", None);
            let pass = core_pass(w, seed, &sp, span);
            sp.close(span);
            pass
        });
        pass.layer_metrics(&mut out);
        traced_extras(w, seed, &pass, &sp, &mut out);
    }
    out.put("vmhwm_kb", vm_hwm_kb());
    (out, sp)
}

/// CD, ROD and DCA from one captured warm state.
struct CorePass {
    warm: WarmState,
    setup_s: f64,
    from_warm_s: [f64; 3],
    loop_s: [f64; 3],
    reports: Vec<SystemReport>,
}

impl CorePass {
    fn run_s(&self) -> f64 {
        self.from_warm_s.iter().sum::<f64>() + self.loop_s.iter().sum::<f64>()
    }

    fn digest(&self) -> u64 {
        let mut h = Hasher::default();
        for r in &self.reports {
            h.u64(digest::report(r));
        }
        h.finish()
    }

    fn layer_metrics(&self, out: &mut Out) {
        out.put("core.capture_warm_s", self.setup_s);
        out.put("core.from_warm_s", self.from_warm_s.iter().sum());
        for (k, d) in DESIGNS.iter().enumerate() {
            out.put(
                &format!("core.run_s.{}", d.label().to_lowercase()),
                self.loop_s[k],
            );
        }
        let dca = &self.reports[2];
        out.put("sim-core.events", dca.events_processed as f64);
        out.put(
            "sim-core.ns_per_event.dca",
            self.loop_s[2] * 1e9 / dca.events_processed.max(1) as f64,
        );
        model_counters(dca, out);
    }
}

fn core_pass(w: Workload, seed: u64, sp: &Spans, parent: SpanId) -> CorePass {
    let benches = w.benches();
    let (warm, setup_s, _) = sp.time("core.capture_warm", Some(parent), || {
        System::capture_warm(w.config(Design::Cd, seed), &benches)
    });
    let mut pass = CorePass {
        warm,
        setup_s,
        from_warm_s: [0.0; 3],
        loop_s: [0.0; 3],
        reports: Vec::with_capacity(3),
    };
    for (k, &d) in DESIGNS.iter().enumerate() {
        let label = d.label().to_lowercase();
        let (sys, secs, _) = sp.time(&format!("core.from_warm.{label}"), Some(parent), || {
            System::from_warm(w.config(d, seed), &benches, &pass.warm)
        });
        pass.from_warm_s[k] = secs;
        let (report, secs, id) = sp.time(&format!("core.run.{label}"), Some(parent), || sys.run());
        sp.count(id, "events", report.events_processed);
        pass.loop_s[k] = secs;
        pass.reports.push(report);
    }
    pass
}

/// Figs 8–9 harness path: fill the warm cache and the alone-IPC table,
/// then `evaluate` CD, ROD and DCA over the workload's mixes.
fn fig8_session(w: Workload, seed: u64, sp: &Spans, root: SpanId) -> Out {
    let mixes = w.mixes();
    let setup = sp.open("bench.setup", Some(root));
    let cfg = w.config(Design::Cd, seed);
    run_parallel(mixes.to_vec(), |m| {
        sp.time("bench.warm_fill", Some(setup), || {
            WarmCache::global().get_or_build(&cfg, &mix(m).benches)
        });
    });
    let table = AloneIpc::new();
    let (_, alone_s, _) = sp.time("bench.alone", Some(setup), || table.prime(mixes, w.org()));
    let setup_s = sp.close(setup);

    let timed = sp.open("bench.evaluate", Some(root));
    let summaries: Vec<DesignSummary> = DESIGNS
        .iter()
        .map(|&d| {
            let label = d.label();
            sp.time(
                &format!("bench.evaluate.{}", label.to_lowercase()),
                Some(timed),
                || evaluate(w.spec(d, seed), mixes, &table, label),
            )
            .0
        })
        .collect();
    let run_s = sp.close(timed);

    let mut h = Hasher::default();
    for s in &summaries {
        summary_digest(&mut h, s);
    }
    let stats = WarmCache::global().stats();
    let mut out = Out {
        digest: h.finish(),
        ..Out::default()
    };
    out.put("setup_s", setup_s);
    out.put("run_s", run_s);
    out.put(
        "dca_speedup",
        summaries[2].ws_geomean() / summaries[0].ws_geomean(),
    );
    out.put("dca_miss_ns", summaries[2].mean_latency());
    out.put("bench.alone_s", alone_s);
    out.put(
        "bench.warm_hit_frac",
        stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64,
    );
    out
}

fn summary_digest(h: &mut Hasher, s: &DesignSummary) {
    let DesignSummary {
        label,
        ws,
        miss_latency_ns,
        apt,
        row_hit,
    } = s;
    h.str(label);
    for series in [ws, miss_latency_ns, apt, row_hit] {
        h.u64(series.len() as u64);
        for &v in series {
            h.f64(v);
        }
    }
}

/// The traced-only passes: the staged warm-up replay (byte-compared with
/// the captured state), the warm-state codec, and DCA on the heap engine
/// (digest-compared with the calendar-queue run).
fn traced_extras(w: Workload, seed: u64, pass: &CorePass, sp: &Spans, out: &mut Out) {
    let benches = w.benches();
    let cfg = w.config(Design::Cd, seed);
    let root = sp.open("core.replay", None);
    let r = replay(&cfg, &benches, sp, root);
    let replay_s = sp.close(root);

    let (blob, encode_s, _) = sp.time("bench.warm_encode", None, || pass.warm.encode());
    let (decoded, decode_s, _) = sp.time("bench.warm_decode", None, || WarmState::decode(&blob));
    out.checks.push(("replay_matches_capture", r.blob == blob));
    out.checks.push((
        "warm_codec_round_trip",
        decoded.is_ok_and(|d| d.encode() == blob),
    ));

    let mut heap = w.config(Design::Dca, seed);
    heap.engine = EngineSel::Heap;
    let sys = System::from_warm(heap, &benches, &pass.warm);
    let (report, heap_s, id) = sp.time("sim-core.heap_run", None, || sys.run());
    sp.count(id, "events", report.events_processed);
    out.checks.push((
        "heap_matches_calendar",
        digest::report(&report) == digest::report(&pass.reports[2]),
    ));

    out.put("core.replay_s", replay_s);
    for (name, stage) in [
        ("cpu.next_op", r.cpu),
        ("mem-hier.l1", r.l1),
        ("mem-hier.l2", r.l2),
        ("dram-cache.tag", r.tags),
    ] {
        out.put(&format!("{name}_ns"), stage.ns_per_call());
        out.put(&format!("{name}_calls"), stage.calls as f64);
    }
    out.put("dram-cache.fill_frac", r.fill_frac);
    out.put("bench.warm_encode_s", encode_s);
    out.put("bench.warm_decode_s", decode_s);
    out.put("bench.warm_blob_mb", blob.len() as f64 / (1024.0 * 1024.0));
    out.put("sim-core.heap_run_s", heap_s);
    // Both loops run back to back, so their ratio cancels most of the
    // host's slow drift in speed.
    out.put("sim-core.heap_over_calendar", heap_s / pass.loop_s[2]);
}

/// The DCA report's model counters, summed over channels.
fn model_counters(r: &SystemReport, out: &mut Out) {
    let sum = |f: &dyn Fn(&dca::ChannelReport) -> u64| r.channels.iter().map(f).sum::<u64>();
    let mean_ns = |ps: u64, n: u64| ps as f64 / n.max(1) as f64 / 1000.0;
    out.put(
        "core.ctrl.pr_wait_ns",
        mean_ns(
            sum(&|c| c.ctrl.pr_wait_ps),
            sum(&|c| c.ctrl.pr_served.get()),
        ),
    );
    out.put(
        "core.ctrl.lr_wait_ns",
        mean_ns(
            sum(&|c| c.ctrl.lr_wait_ps),
            sum(&|c| c.ctrl.lr_served.get()),
        ),
    );
    out.put(
        "core.ctrl.write_wait_ns",
        mean_ns(
            sum(&|c| c.ctrl.write_wait_ps),
            sum(&|c| c.ctrl.writes_served.get()),
        ),
    );
    for (name, v) in [
        (
            "core.ctrl.ofs_row_friendly",
            sum(&|c| c.ctrl.ofs_row_friendly.get()),
        ),
        (
            "core.ctrl.ofs_rrpc_cold",
            sum(&|c| c.ctrl.ofs_rrpc_cold.get()),
        ),
        (
            "core.ctrl.sched_all_entries",
            sum(&|c| c.ctrl.sched_all_entries.get()),
        ),
        (
            "core.ctrl.forced_drain_slots",
            sum(&|c| c.ctrl.forced_drain_slots.get()),
        ),
        ("core.ctrl.spilled", sum(&|c| c.ctrl.spilled.get())),
        ("dram.reads", sum(&|c| c.reads)),
        ("dram.writes", sum(&|c| c.writes)),
        ("dram.turnarounds", sum(&|c| c.turnarounds)),
        ("mem-hier.mm_reads", r.main_mem.reads),
        ("mem-hier.mm_writes", r.main_mem.writes),
        ("dram-cache.fills", r.cache_fills),
    ] {
        out.put(name, v as f64);
    }
    out.put("dram.apt", r.accesses_per_turnaround());
    out.put("dram.read_row_hit_rate", r.read_row_hit_rate());
    out.put("mem-hier.mm_row_hit_rate", r.main_mem.row_hit_rate());
    out.put("mem-hier.mm_queue_wait_ns", r.main_mem.mean_queue_wait_ns());
    out.put("dram-cache.hit_rate", r.cache_hit_rate());
    out.put("dram-cache.mapi_accuracy", r.predictor_accuracy);
}

/// Peak resident memory of this process, in kB (`VmHWM`).
fn vm_hwm_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}
