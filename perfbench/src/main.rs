//! Benchmark of the DCA simulator: end-to-end host cost and modelled
//! DCA-vs-CD result per workload, plus a traced run that splits the
//! host time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream-dm|chase-sa-ddr4|fig8-session|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pin
//! ```
//!
//! The driver process only orchestrates: every rep runs in a fresh child
//! process, so each starts from a cold warm cache and reports its own
//! peak resident memory. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); `--pin` prints
//! the digest table that `digests.txt` pins instead. See `NOTES.md` for
//! what each metric means and why the workloads were chosen.

mod digest;
mod replay;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use workload::Workload;

/// Seeds map onto this many model seeds, each with a pinned digest.
const SLOTS: u64 = 16;

/// Fewest untraced reps (or traced/untraced pairs) per run, whatever
/// `--seconds` says, so a median always exists.
const MIN_REPS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;

/// `(name, unit)` of the end-to-end metrics, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("dca_speedup", "ratio"),
    ("dca_miss_ns", "ns"),
];

/// `(name, unit)` of the per-layer metrics of a traced run.
const PER_LAYER: [(&str, &str); 48] = [
    ("core.capture_warm_s", "s"),
    ("core.replay_s", "s"),
    ("cpu.next_op_ns", "ns"),
    ("cpu.next_op_calls", "count"),
    ("mem-hier.l1_ns", "ns"),
    ("mem-hier.l1_calls", "count"),
    ("mem-hier.l2_ns", "ns"),
    ("mem-hier.l2_calls", "count"),
    ("dram-cache.tag_ns", "ns"),
    ("dram-cache.tag_calls", "count"),
    ("core.from_warm_s", "s"),
    ("core.run_s.cd", "s"),
    ("core.run_s.rod", "s"),
    ("core.run_s.dca", "s"),
    ("sim-core.events", "count"),
    ("sim-core.ns_per_event.dca", "ns"),
    ("sim-core.heap_run_s", "s"),
    ("sim-core.heap_over_calendar", "ratio"),
    ("bench.alone_s", "s"),
    ("bench.warm_hit_frac", "ratio"),
    ("bench.warm_encode_s", "s"),
    ("bench.warm_decode_s", "s"),
    ("bench.warm_blob_mb", "MiB"),
    ("core.ctrl.pr_wait_ns", "ns"),
    ("core.ctrl.lr_wait_ns", "ns"),
    ("core.ctrl.write_wait_ns", "ns"),
    ("core.ctrl.ofs_row_friendly", "count"),
    ("core.ctrl.ofs_rrpc_cold", "count"),
    ("core.ctrl.sched_all_entries", "count"),
    ("core.ctrl.forced_drain_slots", "count"),
    ("core.ctrl.spilled", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.turnarounds", "count"),
    ("dram.apt", "ratio"),
    ("dram.read_row_hit_rate", "ratio"),
    ("mem-hier.mm_reads", "count"),
    ("mem-hier.mm_writes", "count"),
    ("mem-hier.mm_row_hit_rate", "ratio"),
    ("mem-hier.mm_queue_wait_ns", "ns"),
    ("dram-cache.hit_rate", "ratio"),
    ("dram-cache.mapi_accuracy", "ratio"),
    ("dram-cache.fills", "count"),
    ("dram-cache.fill_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.reps", "count"),
];

/// Digests pinned per `(workload, seed slot)`, plus each workload's
/// alone-IPC table under the slot name `alone`.
const PINNED: &str = include_str!("../digests.txt");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 perfbench --pin",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
    child: Option<String>,
    alone: Vec<f64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        pin: false,
        child: None,
        alone: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--child" => a.child = Some(value.clone()),
            "--alone" => {
                a.alone = value
                    .split(',')
                    .map(|v| u64::from_str_radix(v, 16).map(f64::from_bits))
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("hex f64 bit patterns"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn workload(name: Option<&str>) -> Result<Workload, String> {
    let name = name.ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The model seed a benchmark seed selects: seed slot 0 is the
/// repository's default experiment seed.
fn model_seed(seed: u64) -> u64 {
    dca_bench::DEFAULT_SEED + seed % SLOTS
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    if let Some(role) = &a.child {
        let w = workload(a.workload.as_deref())?;
        let out = match role.as_str() {
            "alone" => workload::alone(w),
            "rep" | "traced" => {
                let traced = role == "traced";
                let (out, spans) = workload::rep(w, model_seed(a.seed), &a.alone, traced);
                if traced {
                    let path = out_dir().join(format!("spans-{}-seed{}.json", w.name(), a.seed));
                    let header = format!("\"workload\":\"{}\",\"seed\":{}", w.name(), a.seed);
                    spans
                        .write(&path, &header)
                        .map_err(|e| format!("writing {}: {e}", path.display()))?;
                }
                out
            }
            _ => return Err(format!("unknown child role {role:?}")),
        };
        println!("{}", out.line());
        return Ok(());
    }
    if a.pin {
        return pin();
    }
    let targets = match a.workload.as_deref() {
        Some("all") => Workload::ALL.to_vec(),
        name => vec![workload(name)?],
    };
    let pins = Pins::parse(PINNED)?;
    let mut json = Vec::new();
    for &w in &targets {
        // `all` is for people: it runs the traced pairs too, so both
        // metric sets print for every workload.
        let trace = a.trace || targets.len() > 1;
        let m = measure(w, a.seed, a.seconds, trace, &pins);
        m.print_table(w, a.seed);
        let sets: Vec<&[(&str, &str)]> = match (targets.len() > 1, a.trace) {
            (true, _) => vec![&END_TO_END, &PER_LAYER],
            (false, false) => vec![&END_TO_END],
            (false, true) => vec![&PER_LAYER],
        };
        json.push((w.name(), m.json(&sets)));
    }
    if let [(_, one)] = json.as_slice() {
        println!("{one}");
    } else {
        let body: Vec<String> = json.iter().map(|(n, j)| format!("\"{n}\":{j}")).collect();
        println!("{{{}}}", body.join(","));
    }
    // A failed operation is reported through `correct` and `failed`; the
    // exit code only says whether a result was printed.
    Ok(())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run this binary as a child in `role`, returning its parsed result.
/// Harness knobs are cleared so only the scale the workload sets applies,
/// and nothing is persisted outside the child.
fn child(w: Workload, role: &str, seed: u64, alone: &[f64]) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DCA_") {
            cmd.env_remove(k);
        }
    }
    let scale = w.scale();
    cmd.env("DCA_INSTS", scale.insts.to_string())
        .env("DCA_WARMUP", scale.warmup.to_string())
        .args([
            "--child",
            role,
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ]);
    if !alone.is_empty() {
        let hex: Vec<String> = alone.iter().map(|v| format!("{:x}", v.to_bits())).collect();
        cmd.args(["--alone", &hex.join(",")]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{role} child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT "))
        .ok_or_else(|| format!("{role} child printed no result"))?;
    Parsed::parse(line)
}

/// A child's result line, parsed back.
struct Parsed {
    digest: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<String, f64>,
}

impl Parsed {
    fn parse(line: &str) -> Result<Parsed, String> {
        let mut p = Parsed {
            digest: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
        };
        for tok in line.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad token {tok:?}"))?;
            if k == "digest" {
                p.digest = u64::from_str_radix(v, 16).map_err(|_| format!("bad digest {v:?}"))?;
            } else if let Some(name) = k.strip_prefix("check.") {
                p.checks.push((name.to_string(), v == "1"));
            } else {
                let x: f64 = v.parse().map_err(|_| format!("bad value in {tok:?}"))?;
                p.metrics.insert(k.to_string(), x);
            }
        }
        Ok(p)
    }

    /// The alone IPCs an `alone` child reports, in core order.
    fn alone_ipcs(&self) -> Vec<f64> {
        (0..)
            .map_while(|i| self.metrics.get(&format!("alone.{i}")).copied())
            .collect()
    }
}

/// The pinned digest table.
struct Pins(BTreeMap<(String, String), u64>);

impl Pins {
    fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, slot, hex] = f.as_slice() else {
                return Err(format!("digests.txt: bad line {line:?}"));
            };
            let d = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("digests.txt: bad digest in {line:?}"))?;
            map.insert((w.to_string(), slot.to_string()), d);
        }
        Ok(Pins(map))
    }

    fn check(&self, w: Workload, slot: &str, digest: u64) -> Result<(), String> {
        match self.0.get(&(w.name().to_string(), slot.to_string())) {
            Some(&d) if d == digest => Ok(()),
            Some(&d) => Err(format!(
                "{} slot {slot}: digest {digest:016x} != pinned {d:016x}",
                w.name()
            )),
            None => Err(format!("{} slot {slot}: no pinned digest", w.name())),
        }
    }
}

/// Everything one workload's run measured.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    untraced: BTreeMap<String, Vec<f64>>,
    traced: BTreeMap<String, Vec<f64>>,
    /// From the alone-IPC child, outside the reps.
    outside: BTreeMap<String, f64>,
}

impl Measured {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one operation; `Err` marks it failed.
    fn op(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(msg) => {
                eprintln!("perfbench: FAILED: {msg}");
                self.failed += 1;
                false
            }
        }
    }

    /// Record one rep: the rep itself is one operation checked against
    /// its pinned digest, and each check it made is one more.
    fn rep(
        &mut self,
        w: Workload,
        seed: u64,
        traced: bool,
        pins: &Pins,
        r: Result<Parsed, String>,
    ) {
        let slot = (seed % SLOTS).to_string();
        let p = match r {
            Ok(p) => p,
            Err(msg) => {
                self.op(Err(msg));
                return;
            }
        };
        let mut ok = self.op(pins.check(w, &slot, p.digest));
        for (name, passed) in &p.checks {
            ok &= self.op(if *passed {
                Ok(())
            } else {
                Err(format!("{} seed {seed}: check {name} failed", w.name()))
            });
        }
        if !ok {
            return;
        }
        let into = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        for (k, v) in p.metrics {
            into.entry(k).or_default().push(v);
        }
    }

    fn median_of(map: &BTreeMap<String, Vec<f64>>, name: &str) -> Option<f64> {
        map.get(name).map(|v| median(v))
    }

    fn value(&self, name: &str) -> Option<f64> {
        let u = |n| Self::median_of(&self.untraced, n);
        let t = |n| Self::median_of(&self.traced, n);
        match name {
            "peak_rss_mb" => u("vmhwm_kb").map(|kb| kb / 1024.0),
            "trace.untraced_wall_s" => u("wall_s"),
            "trace.traced_wall_s" => t("wall_s"),
            "trace.overhead_s" => Some(t("wall_s")? - u("wall_s")?),
            "trace.reps" => self.traced.get("wall_s").map(|v| v.len() as f64),
            n if END_TO_END.iter().any(|(e, _)| *e == n) => u(n),
            n => self.outside.get(n).copied().or_else(|| t(n)),
        }
    }

    fn json(&self, sets: &[&[(&str, &str)]]) -> String {
        let mut metrics = Vec::new();
        for set in sets {
            for (name, unit) in set.iter() {
                if let Some(v) = self.value(name).filter(|v| v.is_finite()) {
                    metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                }
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn print_table(&self, w: Workload, seed: u64) {
        let reps = self.untraced.get("wall_s").map_or(0, Vec::len);
        eprintln!(
            "== {} seed {seed} (model seed {:#x}): {reps} untraced reps, {} traced, {}/{} ops failed",
            w.name(),
            model_seed(seed),
            self.traced.get("wall_s").map_or(0, Vec::len),
            self.failed,
            self.attempted
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(v) = self.value(name) {
                eprintln!("  {name:<32} {v:>16.6} {unit}");
            }
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn measure(w: Workload, seed: u64, seconds: f64, trace: bool, pins: &Pins) -> Measured {
    let mut m = Measured::default();
    let mut alone = Vec::new();
    if w.alone_outside_reps() {
        match child(w, "alone", seed, &[]) {
            Ok(p) => {
                if m.op(pins.check(w, "alone", p.digest)) {
                    alone = p.alone_ipcs();
                    for k in ["bench.alone_s", "bench.warm_hit_frac"] {
                        if let Some(&v) = p.metrics.get(k) {
                            m.outside.insert(k.to_string(), v);
                        }
                    }
                } else {
                    return m;
                }
            }
            Err(msg) => {
                m.op(Err(msg));
                return m;
            }
        }
    }
    let start = Instant::now();
    let min = if trace { MIN_TRACED_PAIRS } else { MIN_REPS };
    let mut reps = 0;
    while reps < min || start.elapsed().as_secs_f64() < seconds {
        let r = child(w, "rep", seed, &alone);
        m.rep(w, seed, false, pins, r);
        if trace {
            let r = child(w, "traced", seed, &alone);
            m.rep(w, seed, true, pins, r);
        }
        reps += 1;
    }
    m
}

/// Print the digest table `digests.txt` pins: every workload's alone
/// table and every seed slot.
fn pin() -> Result<(), String> {
    println!("# workload slot digest — written by `perfbench --pin`");
    for w in Workload::ALL {
        let mut alone = Vec::new();
        if w.alone_outside_reps() {
            let p = child(w, "alone", 0, &[])?;
            println!("{} alone {:016x}", w.name(), p.digest);
            alone = p.alone_ipcs();
        }
        for slot in 0..SLOTS {
            let p = child(w, "rep", slot, &alone)?;
            println!("{} {slot} {:016x}", w.name(), p.digest);
        }
    }
    Ok(())
}
