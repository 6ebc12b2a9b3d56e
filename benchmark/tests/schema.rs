//! The benchmark's contract, checked end to end: `BENCHMARK.json` is the
//! rendering of `src/spec.rs`, and a `--quick` run of every workload prints
//! exactly the declared metrics and fails nothing.

#[path = "../src/spec.rs"]
#[allow(dead_code)]
mod spec;

use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::render_benchmark_json(),
        "BENCHMARK.json drifted from src/spec.rs; regenerate it with `-- spec`"
    );
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(name_ok(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END {
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
    assert!(
        END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"),
        "setup_s must be an end-to-end metric"
    );
}

/// Runs one workload at 1/20 size and returns its final JSON line.
fn quick(workload: &str, trace: bool) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_rum-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Trace files land in the package's own out/ directory.
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited with {:?}:\n{stdout}",
        output.status.code()
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn quick_run_prints_exactly_the_declared_metrics_and_fails_nothing() {
    for w in WORKLOADS {
        for (trace, declared) in [
            (false, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (true, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
        ] {
            let line = quick(w.name, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{} (trace {trace}): failed_share must be 0: {line}",
                w.name
            );
            let printed = spec::parse_metrics(&line);
            let names: Vec<&str> = printed.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, declared, "{} (trace {trace})", w.name);
            for (name, value) in &printed {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if !trace {
                    assert!(*value > 0.0, "{}: {name} must never be 0", w.name);
                }
            }
        }
    }
}
