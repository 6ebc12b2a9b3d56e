//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is `(name, start, end, parent, request id)`.  Spans stay in memory
//! for the whole run and are written to `benchmark/out/trace-<workload>.json`
//! at exit.  A layer's *self time* is its spans' duration minus the part
//! their child spans cover, which is what the per-layer table reports.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Cookie, PacketIn sequence number or chunk index of the request.
    request: u64,
}

/// Total self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

impl LayerTime {
    /// Mean self time per call, in ns (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Spans written to the trace file; the self-time table in the file always
/// covers every span.
const MAX_SPANS_WRITTEN: usize = 500_000;

pub struct Tracer {
    /// False makes `enter`/`exit` no-ops: the untraced twin of a replay,
    /// against which the tracing overhead is measured.
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let name = self.name_index(name);
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            request,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records an already-measured root span (used for the socket-boundary
    /// `gen.write` / `gen.await` spans other threads collected).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let name = self.name_index(name);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            start_ns: ns(start),
            end_ns: ns(end),
            request,
        });
    }

    /// Self time of every span, in span order: its duration minus what its
    /// child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(children))
            .collect()
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = out.entry(self.names[s.name as usize]).or_default();
            entry.self_ns += self_ns;
            entry.calls += 1;
        }
        out
    }

    /// Self time of one span name (zero when it never ran).
    pub fn layer(&self, name: &str) -> LayerTime {
        self.self_times().get(name).copied().unwrap_or_default()
    }

    /// Mean self time in ns of `name` spans whose request id passes `keep`.
    pub fn mean_self_ns_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let (mut total, mut calls) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if self.names[s.name as usize] == name && keep(s.request) {
                total += self_ns;
                calls += 1;
            }
        }
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64
        }
    }

    /// Writes `benchmark/out/trace-<workload>.json`: a name table, the
    /// per-layer self times over every span, and one `[name, start_ns,
    /// end_ns, parent, request]` row per span (parent −1 for roots) for the
    /// first `MAX_SPANS_WRITTEN` spans.
    pub fn write(&self, workload: &str) -> std::io::Result<std::path::PathBuf> {
        // From the repository root (how the command is run) or from inside
        // the package directory.
        let dir = if std::path::Path::new("benchmark").is_dir() {
            std::path::Path::new("benchmark/out")
        } else {
            std::path::Path::new("out")
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write!(f, "{{\"workload\":\"{workload}\",\"names\":[")?;
        for (i, n) in self.names.iter().enumerate() {
            write!(f, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(f, "],\"self_time\":{{")?;
        for (i, (name, t)) in self.self_times().iter().enumerate() {
            write!(
                f,
                "{}\"{name}\":{{\"self_ns\":{},\"calls\":{}}}",
                if i > 0 { "," } else { "" },
                t.self_ns,
                t.calls
            )?;
        }
        writeln!(f, "}},\"spans_total\":{},\"spans\":[", self.spans.len())?;
        for (i, s) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                f,
                "{}[{},{},{},{parent},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()?;
        Ok(path)
    }
}
