//! The repo benchmark: five named workloads over the controller → proxy →
//! switch chain.  See `benchmark/README.md`.
//!
//! Two front ends share one implementation:
//!
//! * the driver's contract — `--workload <name> --seed <n> --seconds <s>
//!   --trace <0|1>` runs one workload in this process and prints one JSON
//!   object as the last line of stdout;
//! * `run`, `trace` and `agree` — run every workload, each in a child process
//!   of its own (so `peak_rss_mb` is per workload), and print the tables a
//!   person reads.

mod chain;
mod measure;
mod report;
mod ring;
mod sim;
mod spec;
mod trace;
mod wire;

use report::{Failures, Layers, Outcome};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `gen.cpu_share` above this means the generator, not the system, may be
/// what a throughput number measures.
const GEN_SHARE_WARN: f64 = 0.35;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Internal: run one part of a workload's timed run and print its record.
    part: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rum-benchmark [run|trace|agree|spec] [--workload <name>] [--seed <n>] \
         [--seconds <s>] [--trace <0|1>] [--quick]\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "run" | "trace" | "agree" | "spec" if args.command.is_none() => {
                args.command = Some(arg);
            }
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => args.trace = it.next()?.parse::<u8>().ok()? != 0,
            "--quick" => args.quick = true,
            "--part" => args.part = Some(it.next()?.parse().ok()?),
            _ => return None,
        }
    }
    if let Some(w) = &args.workload {
        spec::workload(w)?;
    }
    Some(args)
}

impl Args {
    /// Input sizes are a per-second constant times this.
    fn scale(&self) -> f64 {
        if self.quick {
            self.seconds / 20.0
        } else {
            self.seconds
        }
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// A workload name resolved to the module that runs it.
#[derive(Clone, Copy, PartialEq)]
enum Target {
    Wire(wire::Kind),
    Ring(ring::Kind),
    Sim,
}

impl Target {
    fn of(workload: &str) -> Target {
        match workload {
            "wire_blast" => Target::Wire(wire::Kind::Blast),
            "wire_upstream" => Target::Wire(wire::Kind::Upstream),
            "probe_ring" => Target::Ring(ring::Kind::ProbeRing),
            "mux_tenants" => Target::Ring(ring::Kind::MuxTenants),
            "sim_fleet" => Target::Sim,
            other => unreachable!("parse_args admitted unknown workload {other}"),
        }
    }

    /// Child processes the timed run is split over.
    fn parts(self) -> usize {
        match self {
            Target::Wire(_) => wire::PARTS,
            Target::Ring(_) => ring::PARTS,
            Target::Sim => 1,
        }
    }

    /// One part of the timed run, in this process.
    fn run_part(self, seed: u64, scale: f64, part: usize, process_start: Instant) -> Outcome {
        let mut outcome = match self {
            Target::Wire(kind) => wire::run_part(kind, seed, scale, part, process_start),
            Target::Ring(kind) => ring::run_part(kind, seed, scale, process_start),
            Target::Sim => sim::run(seed, scale, process_start),
        };
        outcome.peak_rss_mb = measure::peak_rss_mb();
        outcome
    }

    fn run_traced(self, seed: u64, scale: f64) -> (Layers, trace::Tracer, u64, Failures) {
        match self {
            Target::Wire(kind) => wire::trace(kind, seed, scale),
            Target::Ring(kind) => ring::trace(kind, seed, scale),
            Target::Sim => sim::trace(seed, scale),
        }
    }

    fn describe(self, seed: u64, scale: f64) -> String {
        match self {
            Target::Wire(kind) => wire::describe(kind, seed, scale),
            Target::Ring(kind) => ring::describe(kind, scale),
            Target::Sim => sim::describe(scale),
        }
    }
}

/// The timed run: the workload's parts as child processes one after the
/// other, merged (rates become the median phase, latencies pool, CPU sums,
/// `peak_rss_mb` is the largest part's).
fn run_timed(workload: &str, seed: u64, scale: f64, process_start: Instant) -> Outcome {
    let target = Target::of(workload);
    if target.parts() == 1 {
        return target.run_part(seed, scale, 0, process_start);
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut outcome = Outcome::default();
    for part in 0..target.parts() {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &scale.to_string()])
            .args(["--part", &part.to_string()])
            .output()
            .expect("part process runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let part_outcome = stdout
            .lines()
            .find_map(Outcome::decode)
            .unwrap_or_else(|| panic!("part {part} of {workload} printed no result"));
        outcome.absorb(part_outcome);
    }
    outcome
}

fn print_header(workload: &str, args: &Args) {
    let w = spec::workload(workload).expect("validated");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload} seed {} seconds {}{} (nproc {nproc}; all traffic crosses the host's loopback interface, no real link)",
        args.seed,
        args.seconds,
        if args.quick { " at 1/20 size" } else { "" }
    );
    println!("  loop: {}", w.loop_kind);
    println!(
        "  input: {}",
        Target::of(workload).describe(args.seed, args.scale())
    );
}

fn print_failures(attempted: u64, f: &Failures) {
    println!(
        "  failed_share {} share (attempted {attempted}, failed {}: false {} missed {} stray {} aborted {} lost {} reordered {} corrupted {})",
        f.total() as f64 / attempted.max(1) as f64,
        f.total(),
        f.false_acks,
        f.missed_acks,
        f.stray_acks,
        f.aborted,
        f.lost,
        f.reordered,
        f.corrupted
    );
}

fn single(workload: &str, args: &Args, process_start: Instant) -> ExitCode {
    print_header(workload, args);
    let mux = Target::of(workload) == Target::Ring(ring::Kind::MuxTenants);
    let correct = if args.trace {
        let (layers, tracer, attempted, failures) =
            Target::of(workload).run_traced(args.seed, args.scale());
        match tracer.write(workload) {
            Ok(path) => println!("  trace: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("  self time per layer (traced replay and socket-boundary spans):");
        for (name, t) in tracer.self_times() {
            println!(
                "    {name:<24} {:>12.3} ms over {:>9} calls  {:>10.1} ns/call",
                t.self_ns as f64 / 1e6,
                t.calls,
                t.ns_per_call()
            );
        }
        for m in PER_LAYER {
            println!("  {} {} {}", m.name, layers.get(m.name), m.unit);
        }
        if layers.get("gen.cpu_share") > GEN_SHARE_WARN {
            println!(
                "  warning: gen.cpu_share {:.2} exceeds {GEN_SHARE_WARN}: the generator competes with the system for CPU",
                layers.get("gen.cpu_share")
            );
        }
        print_failures(attempted, &failures);
        println!("{}", report::per_layer_json(&layers, attempted, &failures));
        failures.total() == 0
    } else {
        let outcome = run_timed(workload, args.seed, args.scale(), process_start);
        println!("  = input_fnv64 {:#018x}", outcome.input_fnv64);
        for (key, value) in &outcome.exact {
            println!("  = {key} {value}");
        }
        for m in END_TO_END {
            let cell = outcome.end_to_end(m.name, mux);
            if cell.native {
                println!(
                    "  {} {} {} (samples {}, bound {:+.0}%)",
                    m.name,
                    cell.value,
                    m.unit,
                    cell.samples,
                    m.bound * 100.0 * if m.better == "lower" { 1.0 } else { -1.0 }
                );
            } else {
                println!(
                    "  {} n/a (JSON cell repeats the workload's primary rate or period: {} {})",
                    m.name, cell.value, m.unit
                );
            }
        }
        println!("  gen.cpu_share {:.3} ratio", outcome.gen_cpu_share());
        if outcome.gen_cpu_share() > GEN_SHARE_WARN {
            println!(
                "  warning: gen.cpu_share exceeds {GEN_SHARE_WARN}: the generator competes with the system for CPU"
            );
        }
        print_failures(outcome.attempted, &outcome.failures);
        println!("{}", report::end_to_end_json(&outcome, mux));
        outcome.failures.total() == 0
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Every workload, each in a child process
// ---------------------------------------------------------------------

/// What the orchestrator keeps of one child run.
struct ChildRun {
    ok: bool,
    /// `(name, value)` from the child's final JSON line.
    metrics: Vec<(String, f64)>,
    /// `= key value` lines: values that must repeat exactly.
    exact: Vec<(String, String)>,
    /// Metrics the child printed as n/a.
    not_applicable: Vec<String>,
}

fn child(workload: &str, args: &Args, trace: bool, echo: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("child process runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        ok: output.status.success(),
        metrics: Vec::new(),
        exact: Vec::new(),
        not_applicable: Vec::new(),
    };
    for line in stdout.lines() {
        if line.starts_with('{') {
            run.metrics = spec::parse_metrics(line);
            continue;
        }
        if echo {
            println!("{line}");
        }
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("= ") {
            if let Some((k, v)) = rest.split_once(' ') {
                run.exact.push((k.to_string(), v.to_string()));
            }
        } else if let Some((name, rest)) = trimmed.split_once(' ') {
            if rest.starts_with("n/a") {
                run.not_applicable.push(name.to_string());
            }
        }
    }
    run
}

fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    }
}

fn run_all(args: &Args, trace: bool) -> ExitCode {
    let mut ok = true;
    for workload in selected(args) {
        ok &= child(workload, args, trace, true).ok;
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness check failed");
        ExitCode::FAILURE
    }
}

/// Runs the whole set twice on this build and reports, per applicable
/// (metric, workload), both values, the bound and `ok` or `unresolved`
/// (the two runs differ by more than the bound in either direction, so a
/// later comparison against this build could not be trusted).
fn agree(args: &Args) -> ExitCode {
    let mut all_ok = true;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "first", "second", "bound"
    );
    for workload in selected(args) {
        let a = child(workload, args, false, false);
        let b = child(workload, args, false, false);
        all_ok &= a.ok && b.ok;
        for m in END_TO_END {
            if a.not_applicable.iter().any(|n| n == m.name) {
                continue;
            }
            let get = |r: &ChildRun| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(&a), get(&b)) else {
                println!("{workload:<14} {:<26} missing from a run", m.name);
                all_ok = false;
                continue;
            };
            let spread = (x - y).abs() / x.min(y);
            let verdict = if spread <= m.bound {
                "ok"
            } else {
                "unresolved"
            };
            all_ok &= spread <= m.bound;
            println!(
                "{workload:<14} {:<26} {x:>14.4} {y:>14.4} {:>6.0}%  {verdict} ({:.1}%)",
                m.name,
                m.bound * 100.0,
                spread * 100.0
            );
        }
        for (key, value) in &a.exact {
            let same = b.exact.iter().any(|(k, v)| k == key && v == value);
            all_ok &= same;
            println!(
                "{workload:<14} {key:<26} {value:>29}  {}",
                if same { "repeats exactly" } else { "DIFFERS" }
            );
        }
        println!(
            "{workload:<14} {:<26} {:>29}  {}",
            "failed_share",
            "",
            if a.ok && b.ok {
                "0 in both runs"
            } else {
                "NON-ZERO"
            }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Taken first thing, so `setup_s` includes argument parsing and input
    // generation.
    let process_start = Instant::now();
    let Some(args) = parse_args() else {
        return usage();
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("spec"), _) => {
            print!("{}", spec::render_benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("agree"), _) => agree(&args),
        (Some("trace"), _) => run_all(&args, true),
        (Some("run"), _) => run_all(&args, args.trace),
        // Internal: one part of a timed run, for the process merging them.
        (None, Some(workload)) if args.part.is_some() => {
            let part = args.part.expect("guarded");
            let outcome =
                Target::of(workload).run_part(args.seed, args.scale(), part, process_start);
            println!("{}", outcome.encode());
            ExitCode::SUCCESS
        }
        // The driver's form: one workload.
        (None, Some(workload)) => single(workload, &args, process_start),
        _ => usage(),
    }
}
