//! What one run of one workload measured, and how that becomes the metric
//! lines and the final JSON object.

use crate::measure::{median, percentile};
use crate::spec::{END_TO_END, PER_LAYER};

/// Everything that counts against `failed_share`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Confirmations issued while the rule was not in the data plane.
    pub false_acks: u64,
    /// Planned modifications never confirmed.
    pub missed_acks: u64,
    /// Acknowledgments that decoded to no live session.
    pub stray_acks: u64,
    /// Sessions the failure policy gave up on.
    pub aborted: u64,
    /// Messages sent but never delivered.
    pub lost: u64,
    /// Messages delivered out of order.
    pub reordered: u64,
    /// Messages delivered with different bytes, or a check value that
    /// differs from the one expected.
    pub corrupted: u64,
}

impl std::ops::AddAssign for Failures {
    fn add_assign(&mut self, o: Failures) {
        self.false_acks += o.false_acks;
        self.missed_acks += o.missed_acks;
        self.stray_acks += o.stray_acks;
        self.aborted += o.aborted;
        self.lost += o.lost;
        self.reordered += o.reordered;
        self.corrupted += o.corrupted;
    }
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.false_acks
            + self.missed_acks
            + self.stray_acks
            + self.aborted
            + self.lost
            + self.reordered
            + self.corrupted
    }
}

/// One measured phase: a stretch of work on one fleet.  A run reports the
/// median over its phases, so one descheduled phase on a two-core box does
/// not decide the run's number.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    /// Confirmed flow-mods, or PacketIns delivered and verified.
    pub ops: u64,
    /// Wall time of the phase.
    pub elapsed_s: f64,
    /// Useful OpenFlow payload those operations carried.
    pub payload_bytes: u64,
    /// Completed units of controller work (connections' streams, update
    /// sessions, tenants).
    pub sessions: u64,
    /// Process CPU over the phase.
    pub cpu_ms: f64,
    /// CPU of the benchmark's own generator and sink threads within that.
    pub gen_cpu_ms: f64,
}

/// The untraced, timed run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Fingerprint of the generated inputs.
    pub input_fnv64: u64,
    /// Values that must repeat bit-for-bit for the same seed.
    pub exact: Vec<(&'static str, String)>,
    /// One sample per fleet set-up (process prelude included).
    pub setup_s: Vec<f64>,
    pub phases: Vec<Phase>,
    /// True when the operations are PacketIns rather than flow-mods.
    pub ops_are_packet_ins: bool,
    /// Per-mod send → confirmation, where a session measures it.
    pub confirm_latency_ms: Vec<f64>,
    /// Per-mod confirmation minus first data-plane activation.
    pub ack_overhead_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    /// `VmHWM` of the process that ran the phases; 0 until the run ends.
    pub peak_rss_mb: f64,
}

/// A metric value, or why the workload does not have one.
pub struct Cell {
    pub value: f64,
    /// False where the issue marks the metric n/a for the workload; the
    /// value then repeats the workload's primary rate or period.
    pub native: bool,
    pub samples: usize,
}

impl Outcome {
    /// Appends another run's phases, set-ups and failures to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.input_fnv64 = other.input_fnv64;
        self.ops_are_packet_ins = other.ops_are_packet_ins;
        self.setup_s.extend(other.setup_s);
        self.phases.extend(other.phases);
        self.confirm_latency_ms.extend(other.confirm_latency_ms);
        self.ack_overhead_ms.extend(other.ack_overhead_ms);
        self.attempted += other.attempted;
        self.failures += other.failures;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }

    /// One line carrying what a part of a run measured, for the parent
    /// process that merges the parts (`run_timed` in `main.rs`).
    pub fn encode(&self) -> String {
        let f = &self.failures;
        let list = |v: &[f64]| {
            if v.is_empty() {
                return "-".to_string();
            }
            v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
        };
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{}:{}:{}:{}:{}:{}",
                    p.ops, p.elapsed_s, p.payload_bytes, p.sessions, p.cpu_ms, p.gen_cpu_ms
                )
            })
            .collect();
        format!(
            "part {} {} {} {} {},{},{},{},{},{},{} {} {} {} {}",
            self.input_fnv64,
            u8::from(self.ops_are_packet_ins),
            self.attempted,
            self.peak_rss_mb,
            f.false_acks,
            f.missed_acks,
            f.stray_acks,
            f.aborted,
            f.lost,
            f.reordered,
            f.corrupted,
            list(&self.setup_s),
            phases.join(";"),
            list(&self.confirm_latency_ms),
            list(&self.ack_overhead_ms)
        )
    }

    /// Inverse of [`Outcome::encode`].
    pub fn decode(line: &str) -> Option<Outcome> {
        let mut it = line.strip_prefix("part ")?.split(' ');
        let input_fnv64 = it.next()?.parse().ok()?;
        let ops_are_packet_ins = it.next()? == "1";
        let attempted = it.next()?.parse().ok()?;
        let peak_rss_mb = it.next()?.parse().ok()?;
        let f: Vec<u64> = it
            .next()?
            .split(',')
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let list = |field: &str| -> Option<Vec<f64>> {
            if field == "-" {
                return Some(Vec::new());
            }
            field.split(',').map(|v| v.parse().ok()).collect()
        };
        let setup_s = list(it.next()?)?;
        let phases = it
            .next()?
            .split(';')
            .map(|p| {
                let v: Vec<&str> = p.split(':').collect();
                Some(Phase {
                    ops: v.first()?.parse().ok()?,
                    elapsed_s: v.get(1)?.parse().ok()?,
                    payload_bytes: v.get(2)?.parse().ok()?,
                    sessions: v.get(3)?.parse().ok()?,
                    cpu_ms: v.get(4)?.parse().ok()?,
                    gen_cpu_ms: v.get(5)?.parse().ok()?,
                })
            })
            .collect::<Option<_>>()?;
        let confirm_latency_ms = list(it.next()?)?;
        let ack_overhead_ms = list(it.next()?)?;
        Some(Outcome {
            input_fnv64,
            ops_are_packet_ins,
            attempted,
            peak_rss_mb,
            failures: Failures {
                false_acks: *f.first()?,
                missed_acks: *f.get(1)?,
                stray_acks: *f.get(2)?,
                aborted: *f.get(3)?,
                lost: *f.get(4)?,
                reordered: *f.get(5)?,
                corrupted: *f.get(6)?,
            },
            setup_s,
            phases,
            confirm_latency_ms,
            ack_overhead_ms,
            ..Outcome::default()
        })
    }

    /// Median over the phases of a per-phase ratio.
    fn per_phase(&self, f: impl Fn(&Phase) -> f64) -> f64 {
        median(&self.phases.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.per_phase(|p| p.ops as f64 / p.elapsed_s)
    }

    /// Process CPU per 1,000 operations over the whole run.  Not a median
    /// of phases: `/proc/self/stat` counts in 10 ms ticks, which a short
    /// phase would turn into steps of several percent, and a descheduled
    /// phase costs wall time, not CPU.
    pub fn cpu_ms_per_kop(&self) -> f64 {
        let cpu: f64 = self.phases.iter().map(|p| p.cpu_ms).sum();
        cpu / (self.ops() as f64 / 1e3)
    }

    /// CPU per 1,000 operations without the benchmark's own threads, in µs.
    pub fn system_us_per_kop(&self) -> f64 {
        let cpu: f64 = self.phases.iter().map(|p| p.cpu_ms - p.gen_cpu_ms).sum();
        cpu * 1e3 / (self.ops() as f64 / 1e3)
    }

    /// Wall ms per 1,000 operations: the period that stands in for a
    /// latency on workloads that have no per-request clock.
    fn ms_per_kop(&self) -> f64 {
        1e6 / self.ops_per_s()
    }

    fn latency(&self, samples: &[f64], p: f64) -> Cell {
        if samples.is_empty() {
            return Cell {
                value: self.ms_per_kop(),
                native: false,
                samples: 0,
            };
        }
        Cell {
            value: if p == 0.5 {
                median(samples)
            } else {
                percentile(samples, p)
            },
            native: true,
            samples: samples.len(),
        }
    }

    /// The value of one end-to-end metric on this run.
    ///
    /// The driver wants every metric from every workload.  Where the issue
    /// marks a cell n/a (PacketIn rates on flow-mod workloads, latencies
    /// where no session clocks a request), the cell carries that workload's
    /// primary rate, or its period in ms per 1,000 operations: a regression
    /// there is still a real regression of the workload, counted twice
    /// rather than missed.
    pub fn end_to_end(&self, name: &str, mux: bool) -> Cell {
        let rate = |value: f64, native: bool| Cell {
            value,
            native,
            samples: self.phases.len(),
        };
        match name {
            "setup_s" => Cell {
                value: median(&self.setup_s),
                native: true,
                samples: self.setup_s.len(),
            },
            "confirmed_mods_per_s" => rate(self.ops_per_s(), !self.ops_are_packet_ins),
            "delivered_pktin_per_s" => rate(self.ops_per_s(), self.ops_are_packet_ins),
            "delivered_mb_per_s" => rate(
                self.per_phase(|p| p.payload_bytes as f64 / 1e6 / p.elapsed_s),
                self.ops_are_packet_ins,
            ),
            "sessions_per_s" => rate(self.per_phase(|p| p.sessions as f64 / p.elapsed_s), mux),
            "confirm_latency_p50_ms" => self.latency(&self.confirm_latency_ms, 0.5),
            "confirm_latency_p99_ms" => self.latency(&self.confirm_latency_ms, 0.99),
            "ack_overhead_p50_ms" => self.latency(&self.ack_overhead_ms, 0.5),
            "ack_overhead_p99_ms" => self.latency(&self.ack_overhead_ms, 0.99),
            "cpu_ms_per_kop" => rate(self.cpu_ms_per_kop(), true),
            "peak_rss_mb" => rate(self.peak_rss_mb, true),
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }

    pub fn gen_cpu_share(&self) -> f64 {
        let cpu: f64 = self.phases.iter().map(|p| p.cpu_ms).sum();
        let gen: f64 = self.phases.iter().map(|p| p.gen_cpu_ms).sum();
        if cpu > 0.0 {
            gen / cpu
        } else {
            0.0
        }
    }
}

/// Per-layer values of one traced run, keyed by the names in
/// [`crate::spec::PER_LAYER`]; unset names report 0 (the layer did no work).
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<'a>(cells: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = cells
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last stdout line of a `--trace 0` run.
pub fn end_to_end_json(outcome: &Outcome, mux: bool) -> String {
    let failed = outcome.failures.total();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        outcome.attempted.max(1),
        failed,
        metrics_json(END_TO_END.iter().map(|m| (
            m.name,
            outcome.end_to_end(m.name, mux).value,
            m.unit
        )))
    )
}

/// The last stdout line of a `--trace 1` run.
pub fn per_layer_json(layers: &Layers, attempted: u64, failures: &Failures) -> String {
    let failed = failures.total();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json(
            PER_LAYER
                .iter()
                .map(|m| (m.name, layers.get(m.name), m.unit))
        )
    )
}
