//! Process and thread accounting, order statistics, and the seeded
//! primitives every workload builds its inputs from.

/// Kernel clock ticks per second for `/proc/self/stat` times.  Fixed at 100
/// on every Linux the repo targets; there is no libc here to ask `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU the whole process has consumed so far, in ms
/// (`/proc/self/stat` fields 14 and 15; exited threads stay counted).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 1e3 / CLK_TCK
}

/// On-CPU time of the calling thread so far, in ms (`schedstat`, ns
/// resolution).  Generator threads read it first and last to report what
/// share of the process CPU the benchmark itself consumed.
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e6)
}

/// Peak resident set of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over 64 bits: the fingerprint printed as `input_fnv64` so two runs
/// provably used the same inputs, and the hash of per-switch confirm orders.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: every input is a pure function of `(workload, seed)` drawn
/// from this stream, never from a clock or the OS.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(workload: &str, seed: u64) -> Self {
        let mut h = Fnv64::default();
        h.bytes(workload.as_bytes());
        h.u64(seed);
        SplitMix64(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
