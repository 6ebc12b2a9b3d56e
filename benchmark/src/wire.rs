//! The two wire workloads: four controller connections ↔ `RumTcpProxy` ↔
//! four instant-reply fake switches, all on the host's loopback interface.
//!
//! * `wire_blast` streams 80-byte flow-mods controller → switch with a
//!   barrier every 50 (barrier baseline engine): bare forwarding at the
//!   smallest message.
//! * `wire_upstream` streams non-probe `PacketIn`s switch → controller
//!   (general-probing engine, which inspects each one for probe marking) at
//!   64 B and 1,400 B frames.
//!
//! Generators and sinks work on raw frames (header peek, in-place xid and
//! cookie patching of a reused pre-encoded chunk) so the benchmark's own
//! threads stay a small share of the process CPU on a two-core box.

use crate::measure::{process_cpu_ms, thread_cpu_ms, Fnv64, SplitMix64};
use crate::report::{Failures, Layers, Outcome, Phase};
use crate::ring::ring_port_maps;
use crate::trace::Tracer;
use openflow::constants::{msg_type, packet_in_reason};
use openflow::messages::{FlowMod, OfHeader, PacketIn, OFP_HEADER_LEN};
use openflow::{Action, MacAddr, OfCodec, OfMatch, OfMessage, PacketHeader};
use rum::{Effect, Input, RumBuilder, SwitchId, TechniqueConfig};
use rum_tcp::{Endpoint, EngineRelay, ProxyConfig, ProxyHandle, RelayEffects, RumTcpProxy};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use telemetry::Registry;

/// Connections of the wire fleet.  A constant, not derived from `nproc`, so
/// numbers compare across machines.
pub const CONNS: usize = 4;
/// Engine shards of the proxy under test.
const SHARDS: usize = 8;
/// A barrier follows every this many flow-mods.
const BARRIER_EVERY: u64 = 50;
/// Barrier groups per reused chunk (one `write` per chunk, ~64 KB).
const GROUPS_PER_CHUNK: u64 = 16;
/// Flow-mods per connection per second of `--seconds` (`wire_blast`).
const MODS_PER_CONN_PER_S: f64 = 250_000.0;
/// PacketIns per connection per second of `--seconds` (`wire_upstream`).
const PKTINS_PER_CONN_PER_S: f64 = 280_000.0;
/// PacketIns per reused chunk: half small, half large, order from the seed.
const PKTINS_PER_CHUNK: usize = 64;
const SMALL_FRAME: usize = 64;
const LARGE_FRAME: usize = 1_400;
/// First barrier xid of the blast: clear of the flow-mod xids below it and
/// of the proxy's reserved range above `rum::PROXY_XID_BASE`.
const BARRIER_XID_BASE: u32 = 0x4000_0000;
/// A sink that sees no progress for this long gives up and counts the rest
/// as lost.
const STALL: Duration = Duration::from_secs(30);
/// A timed run is `UNITS` equal units of input, spent as one long phase and
/// many short ones, every phase on a fresh fleet whose set-up is timed.  The
/// run reports the median phase: a single multi-second blast on a two-core
/// box swings by 10 % with the scheduler's mood.  The long phase is there
/// for `peak_rss_mb`: what the proxy retains per message in flight shows
/// only when one connection carries millions of them.
const UNITS: u64 = 36;
const LONG_PHASE_UNITS: u64 = 12;
/// Child processes a timed run is split over.  How fast this memory-bound
/// path runs differs from process to process by up to 30 % on the sizing box
/// and then stays put for the process's life, so phases of one process are
/// not independent samples; phases of several processes are.
pub const PARTS: usize = 5;
/// Untraced and traced phases of a traced run, and the units of each.
const TRACE_PHASES: usize = 5;
const TRACE_PHASE_UNITS: u64 = 3;
/// Messages per direction the traced replay pushes through the sans-IO
/// chain; enough for stable per-message means, small enough to keep every
/// span in memory.
const REPLAY_MSGS: usize = 100_000;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Blast,
    Upstream,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Blast => "wire_blast",
            Kind::Upstream => "wire_upstream",
        }
    }
}

// ---------------------------------------------------------------------
// Inputs: a pure function of (workload, seed)
// ---------------------------------------------------------------------

/// One connection's pre-encoded, reusable chunk plus where to patch it.
struct Chunk {
    bytes: Vec<u8>,
    /// Byte offset of every frame in `bytes`, with its frame length.
    frames: Vec<(usize, usize)>,
}

/// The generated inputs of a wire run.
struct Inputs {
    /// Messages each connection sends per unit (flow-mods or PacketIns).
    per_conn: u64,
    /// First cookie of connection `c` is `cookie_base + (c << 40)`.
    cookie_base: u64,
    chunk: Chunk,
    fnv: u64,
}

/// `GROUPS_PER_CHUNK` groups of 50 80-byte ADDs and their barrier.  Xids,
/// cookies and barrier xids are patched per use; matches repeat, which no
/// layer on this path looks at.
fn blast_chunk() -> Chunk {
    let mut bytes = Vec::new();
    let mut frames = Vec::new();
    for g in 0..GROUPS_PER_CHUNK {
        for k in 0..BARRIER_EVERY {
            let n = g * BARRIER_EVERY + k;
            let start = bytes.len();
            OfMessage::FlowMod {
                xid: 0,
                body: FlowMod::add(
                    OfMatch::ipv4_pair(
                        Ipv4Addr::new(10, (n >> 8) as u8, n as u8, 1),
                        Ipv4Addr::new(10, 200, 0, 1),
                    ),
                    100,
                    vec![Action::output(1)],
                ),
            }
            .encode_into(&mut bytes)
            .expect("encodable flow-mod");
            frames.push((start, bytes.len() - start));
        }
        let start = bytes.len();
        OfMessage::BarrierRequest { xid: 0 }
            .encode_into(&mut bytes)
            .expect("encodable barrier");
        frames.push((start, bytes.len() - start));
    }
    assert_eq!(frames[0].1, 80, "the blast uses the smallest flow-mod");
    Chunk { bytes, frames }
}

/// 64 PacketIns (reason NO_MATCH, non-probe ToS), 32 of each frame size in
/// a seeded order.  The xid and the first 8 payload bytes carry the
/// sequence number and are patched per use.
fn upstream_chunk(rng: &mut SplitMix64) -> Chunk {
    let mut sizes = [SMALL_FRAME; PKTINS_PER_CHUNK];
    sizes[PKTINS_PER_CHUNK / 2..].fill(LARGE_FRAME);
    rng.shuffle(&mut sizes);
    let header = PacketHeader::ipv4_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 1, 0, 1),
        Ipv4Addr::new(10, 2, 0, 1),
        4_000,
        5_000,
    );
    let mut bytes = Vec::new();
    let mut frames = Vec::new();
    for size in sizes {
        let mut data = header.to_bytes();
        data.truncate(SEQ_OFFSET_IN_FRAME);
        // Seeded filler so "byte-identical" checks more than zeros.
        while data.len() < size {
            data.push(rng.next_u64() as u8);
        }
        let start = bytes.len();
        OfMessage::PacketIn {
            xid: 0,
            body: PacketIn::unbuffered(1, packet_in_reason::NO_MATCH, data),
        }
        .encode_into(&mut bytes)
        .expect("encodable packet-in");
        frames.push((start, bytes.len() - start));
    }
    Chunk { bytes, frames }
}

/// Ethernet + IPv4 + UDP headers end here; the sequence number follows.
const SEQ_OFFSET_IN_FRAME: usize = 42;
/// Offset of the frame data inside an encoded PacketIn.
const PKTIN_DATA_OFFSET: usize =
    OFP_HEADER_LEN + openflow::messages::packet_io::PACKET_IN_FIXED_LEN;
/// Offset of the cookie inside an encoded flow-mod (header + match).
const FLOWMOD_COOKIE_OFFSET: usize = OFP_HEADER_LEN + 40;

fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
    let mut rng = SplitMix64::new(kind.name(), seed);
    let cookie_base = 1 + rng.below(1 << 32);
    let (chunk, per_conn) = match kind {
        Kind::Blast => {
            let per_chunk = GROUPS_PER_CHUNK * BARRIER_EVERY;
            let chunks = ((MODS_PER_CONN_PER_S * scale) as u64).div_ceil(per_chunk);
            (blast_chunk(), chunks.max(1) * per_chunk)
        }
        Kind::Upstream => {
            let chunks = ((PKTINS_PER_CONN_PER_S * scale) as u64).div_ceil(PKTINS_PER_CHUNK as u64);
            (
                upstream_chunk(&mut rng),
                chunks.max(1) * PKTINS_PER_CHUNK as u64,
            )
        }
    };
    let mut fnv = Fnv64::default();
    fnv.bytes(kind.name().as_bytes());
    fnv.u64(per_conn);
    fnv.u64(cookie_base);
    fnv.bytes(&chunk.bytes);
    Inputs {
        per_conn,
        cookie_base,
        chunk,
        fnv: fnv.finish(),
    }
}

impl Inputs {
    /// Patches the chunk in place for its `index`-th use on connection
    /// `conn`: message `m` of the connection gets xid `m + 1` (flow-mods:
    /// also cookie `base + m`; PacketIns: also the payload sequence number);
    /// the barrier after group `g` gets xid `BARRIER_XID_BASE + g`.
    fn patch(&self, kind: Kind, chunk: &mut [u8], conn: usize, index: u64) {
        match kind {
            Kind::Blast => {
                let per_chunk = GROUPS_PER_CHUNK * BARRIER_EVERY;
                let mut m = index * per_chunk;
                let mut group = index * GROUPS_PER_CHUNK;
                for &(at, len) in &self.chunk.frames {
                    if len == OFP_HEADER_LEN {
                        let xid = BARRIER_XID_BASE + group as u32;
                        chunk[at + 4..at + 8].copy_from_slice(&xid.to_be_bytes());
                        group += 1;
                    } else {
                        chunk[at + 4..at + 8].copy_from_slice(&(m as u32 + 1).to_be_bytes());
                        let cookie = self.cookie_base + ((conn as u64) << 40) + m;
                        chunk[at + FLOWMOD_COOKIE_OFFSET..at + FLOWMOD_COOKIE_OFFSET + 8]
                            .copy_from_slice(&cookie.to_be_bytes());
                        m += 1;
                    }
                }
            }
            Kind::Upstream => {
                let first = index * PKTINS_PER_CHUNK as u64;
                for (m, &(at, _)) in (first..).zip(&self.chunk.frames) {
                    chunk[at + 4..at + 8].copy_from_slice(&(m as u32).to_be_bytes());
                    let seq_at = at + PKTIN_DATA_OFFSET + SEQ_OFFSET_IN_FRAME;
                    let seq = ((conn as u64) << 40) | m;
                    chunk[seq_at..seq_at + 8].copy_from_slice(&seq.to_be_bytes());
                }
            }
        }
    }

    fn chunks_per_conn(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Blast => self.per_conn / (GROUPS_PER_CHUNK * BARRIER_EVERY),
            Kind::Upstream => self.per_conn / PKTINS_PER_CHUNK as u64,
        }
    }
}

// ---------------------------------------------------------------------
// Raw framing for generators and sinks
// ---------------------------------------------------------------------

/// Splits a byte stream into OpenFlow frames by header peek alone.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    pos: usize,
}

impl Frames {
    fn feed(&mut self, data: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The next complete frame with its header, if one is buffered.  A
    /// header that cannot frame (bad length) yields `Err`.
    fn next(&mut self) -> Result<Option<(OfHeader, &[u8])>, ()> {
        let pending = &self.buf[self.pos..];
        let Ok(header) = OfHeader::peek(pending) else {
            return Ok(None);
        };
        let len = header.length as usize;
        if len < OFP_HEADER_LEN {
            return Err(());
        }
        if pending.len() < len {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += len;
        Ok(Some((header, &self.buf[start..start + len])))
    }
}

// ---------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------

struct Fleet {
    proxy: ProxyHandle,
    /// Controller-side stream of connection `i` (accepted from the proxy).
    controllers: Vec<TcpStream>,
    /// Switch-side stream of connection `i` (dialled into the proxy).
    switches: Vec<TcpStream>,
}

/// The engine under test: the barrier baseline for the blast, general
/// probing (which must inspect every PacketIn) for the upstream direction.
fn builder(kind: Kind) -> RumBuilder {
    let b = RumBuilder::new(CONNS).shards(SHARDS);
    match kind {
        Kind::Blast => b
            .technique(TechniqueConfig::BarrierBaseline)
            .fine_grained_acks(false),
        Kind::Upstream => b
            .technique(TechniqueConfig::GeneralProbing {
                probe_interval: Duration::from_millis(10),
                max_outstanding: 64,
                fallback_delay: Duration::from_millis(65),
            })
            .port_maps(ring_port_maps(CONNS)),
    }
}

/// Starts the proxy and attaches the four connection pairs one at a time, so
/// pair `i` is proxy slot `i`.
fn start_fleet(kind: Kind) -> Fleet {
    let listener = TcpListener::bind("127.0.0.1:0").expect("controller bind");
    let proxy = RumTcpProxy::new(
        ProxyConfig {
            listen_addr: "127.0.0.1:0".parse().expect("literal address"),
            controller_addr: listener.local_addr().expect("bound listener"),
        },
        builder(kind),
    )
    .start()
    .expect("proxy starts");
    let mut controllers = Vec::with_capacity(CONNS);
    let mut switches = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let sw = TcpStream::connect(proxy.local_addr).expect("connect to proxy");
        let (ctrl, _) = listener.accept().expect("proxy dials the controller");
        for s in [&sw, &ctrl] {
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_millis(100)))
                .expect("read timeout");
        }
        switches.push(sw);
        controllers.push(ctrl);
    }
    Fleet {
        proxy,
        controllers,
        switches,
    }
}

/// What one generator or sink thread reports back.
#[derive(Default)]
struct ThreadReport {
    cpu_ms: f64,
    /// Messages this side verified.
    received: u64,
    payload_bytes: u64,
    reordered: u64,
    corrupted: u64,
    /// When the last expected message arrived.
    finished: Option<Instant>,
    /// `gen.write` spans: (chunk index, start, end), traced runs only.
    writes: Vec<(u64, Instant, Instant)>,
}

/// Streams `chunks` patched chunks down `stream`.
fn writer(
    inputs: &Inputs,
    kind: Kind,
    conn: usize,
    chunks: u64,
    mut stream: TcpStream,
    start: &Barrier,
    traced: bool,
) -> ThreadReport {
    let mut chunk = inputs.chunk.bytes.clone();
    let mut report = ThreadReport::default();
    start.wait();
    let cpu0 = thread_cpu_ms();
    for index in 0..chunks {
        inputs.patch(kind, &mut chunk, conn, index);
        let t0 = traced.then(Instant::now);
        if stream.write_all(&chunk).is_err() {
            break;
        }
        if let Some(t0) = t0 {
            report.writes.push((index, t0, Instant::now()));
        }
    }
    report.cpu_ms = thread_cpu_ms() - cpu0;
    report
}

/// The instant-reply fake switch: answers every barrier, counts flow-mods and
/// checks that controller flow-mod xids arrive in order.  Runs until the
/// proxy closes the connection or `stop` is set.
fn fake_switch(mut stream: TcpStream, stop: &AtomicBool, start: &Barrier) -> ThreadReport {
    let mut frames = Frames::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut replies = Vec::new();
    let mut report = ThreadReport::default();
    let mut next_xid = 1u32;
    start.wait();
    let cpu0 = thread_cpu_ms();
    while !stop.load(Ordering::Relaxed) {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        frames.feed(&buf[..n]);
        replies.clear();
        loop {
            match frames.next() {
                Ok(Some((h, _))) if h.msg_type == msg_type::BARRIER_REQUEST => {
                    OfHeader {
                        msg_type: msg_type::BARRIER_REPLY,
                        ..h
                    }
                    .encode(&mut replies);
                }
                // Controller flow-mods only: the proxy's own (probe-catch
                // rules) carry xids in its reserved range.
                Ok(Some((h, _)))
                    if h.msg_type == msg_type::FLOW_MOD && h.xid < rum::PROXY_XID_BASE =>
                {
                    report.received += 1;
                    if h.xid != next_xid {
                        report.reordered += 1;
                    }
                    next_xid = h.xid.wrapping_add(1);
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(()) => {
                    report.corrupted += 1;
                    break;
                }
            }
        }
        if !replies.is_empty() && stream.write_all(&replies).is_err() {
            break;
        }
    }
    report.cpu_ms = thread_cpu_ms() - cpu0;
    report
}

/// Reads until `expected` messages of `want` type were verified by `check`
/// or the stream stalls.
fn sink(
    mut stream: TcpStream,
    expected: u64,
    want: u8,
    start: &Barrier,
    mut check: impl FnMut(u64, OfHeader, &[u8]) -> SinkVerdict,
) -> ThreadReport {
    let mut frames = Frames::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut report = ThreadReport::default();
    start.wait();
    let cpu0 = thread_cpu_ms();
    let mut last_progress = Instant::now();
    'read: while report.received < expected {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > STALL {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        last_progress = Instant::now();
        frames.feed(&buf[..n]);
        loop {
            match frames.next() {
                Ok(Some((h, frame))) if h.msg_type == want => {
                    match check(report.received, h, frame) {
                        SinkVerdict::Ok(payload) => report.payload_bytes += payload,
                        SinkVerdict::Reordered => report.reordered += 1,
                        SinkVerdict::Corrupted => report.corrupted += 1,
                    }
                    report.received += 1;
                }
                // Hellos, echo traffic: not part of the stream under test.
                Ok(Some((h, _))) if h.msg_type == msg_type::ERROR => report.corrupted += 1,
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(()) => {
                    report.corrupted += 1;
                    break 'read;
                }
            }
        }
    }
    if report.received == expected {
        report.finished = Some(Instant::now());
    }
    report.cpu_ms = thread_cpu_ms() - cpu0;
    report
}

enum SinkVerdict {
    /// Verified; carries the useful payload bytes of the message.
    Ok(u64),
    Reordered,
    Corrupted,
}

/// 10 Hz sampler of the proxy's per-shard outbox-depth gauges; traced runs
/// only, so the timed run never pays for registry snapshots.
pub fn sample_outbox_depth(registry: &Registry, stop: &AtomicBool, max_depth: &AtomicU64) {
    while !stop.load(Ordering::Relaxed) {
        let depth: i64 = registry
            .snapshot()
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("proxy.shard") && name.ends_with(".outbox_depth"))
            .map(|(_, v)| *v)
            .sum();
        max_depth.fetch_max(depth.max(0) as u64, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Proxy-side counters read after a measured phase.
#[derive(Default)]
struct ProxySide {
    controller_flow_mods: u64,
    to_switch: u64,
    to_controller: u64,
    bytes: u64,
    drains: u64,
    timers_fired: u64,
    outbox_depth_max: u64,
    writes: Vec<(u64, Instant, Instant)>,
    awaits: Vec<(u64, Instant, Instant)>,
}

/// One measured phase of `units` units over a fresh fleet.
fn measure(
    kind: Kind,
    inputs: &Arc<Inputs>,
    fleet: Fleet,
    traced: bool,
    units: u64,
) -> (Phase, Failures, ProxySide) {
    let Fleet {
        proxy,
        controllers,
        switches,
    } = fleet;
    let stop = Arc::new(AtomicBool::new(false));
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let max_depth = Arc::new(AtomicU64::new(0));
    // Writer, sink and fake switch per connection, plus this thread.
    let start = Arc::new(Barrier::new(3 * CONNS + 1));
    let per_conn = inputs.per_conn * units;
    let chunks = inputs.chunks_per_conn(kind) * units;

    let mut writers = Vec::new();
    let mut sinks = Vec::new();
    let mut fakes = Vec::new();
    for (conn, (ctrl, sw)) in controllers.into_iter().zip(switches).enumerate() {
        // The blast writes on the controller side and sinks barrier
        // replies there; upstream writes on the switch side.  The switch
        // side always has a reader that answers barriers.
        let (to_write, to_sink, fake_stream) = match kind {
            Kind::Blast => (ctrl.try_clone().expect("clone stream"), ctrl, sw),
            Kind::Upstream => (sw.try_clone().expect("clone stream"), ctrl, sw),
        };
        {
            let (stop, start) = (Arc::clone(&stop), Arc::clone(&start));
            fakes.push(std::thread::spawn(move || {
                fake_switch(fake_stream, &stop, &start)
            }));
        }
        {
            let (inputs, start) = (Arc::clone(inputs), Arc::clone(&start));
            writers.push(std::thread::spawn(move || {
                writer(&inputs, kind, conn, chunks, to_write, &start, traced)
            }));
        }
        let (inputs, start) = (Arc::clone(inputs), Arc::clone(&start));
        sinks.push(std::thread::spawn(move || match kind {
            Kind::Blast => sink(
                to_sink,
                per_conn / BARRIER_EVERY,
                msg_type::BARRIER_REPLY,
                &start,
                |n, h, _| {
                    if h.xid == BARRIER_XID_BASE + n as u32 {
                        SinkVerdict::Ok(0)
                    } else {
                        SinkVerdict::Reordered
                    }
                },
            ),
            Kind::Upstream => {
                let mut expect = inputs.chunk.bytes.clone();
                let mut patched_for = u64::MAX;
                sink(
                    to_sink,
                    per_conn,
                    msg_type::PACKET_IN,
                    &start,
                    |n, h, frame| {
                        let index = n / PKTINS_PER_CHUNK as u64;
                        if patched_for != index {
                            inputs.patch(kind, &mut expect, conn, index);
                            patched_for = index;
                        }
                        let (at, len) = inputs.chunk.frames[(n % PKTINS_PER_CHUNK as u64) as usize];
                        if h.xid != n as u32 {
                            SinkVerdict::Reordered
                        } else if frame == &expect[at..at + len] {
                            SinkVerdict::Ok((len - PKTIN_DATA_OFFSET) as u64)
                        } else {
                            SinkVerdict::Corrupted
                        }
                    },
                )
            }
        }));
    }
    let sampler = traced.then(|| {
        let (stop, max_depth) = (Arc::clone(&sampler_stop), Arc::clone(&max_depth));
        let registry = proxy.metrics();
        std::thread::spawn(move || sample_outbox_depth(&registry, &stop, &max_depth))
    });

    let cpu0 = process_cpu_ms();
    start.wait();
    let t0 = Instant::now();
    let writer_reports: Vec<ThreadReport> = writers
        .into_iter()
        .map(|t| t.join().expect("writer thread"))
        .collect();
    let sink_reports: Vec<ThreadReport> = sinks
        .into_iter()
        .map(|t| t.join().expect("sink thread"))
        .collect();
    let t_end = sink_reports
        .iter()
        .filter_map(|r| r.finished)
        .max()
        .unwrap_or_else(Instant::now);
    let cpu_ms = process_cpu_ms() - cpu0;

    sampler_stop.store(true, Ordering::Relaxed);
    if let Some(s) = sampler {
        s.join().expect("sampler thread");
    }
    let stats = proxy.total_stats();
    let counters = proxy.counters();
    let mut side = ProxySide {
        controller_flow_mods: stats.controller_flow_mods,
        to_switch: counters.to_switch(),
        to_controller: counters.to_controller(),
        bytes: counters.to_switch_bytes() + counters.to_controller_bytes(),
        drains: counters.drains(),
        timers_fired: counters.timers_fired(),
        outbox_depth_max: max_depth.load(Ordering::Relaxed),
        writes: Vec::new(),
        awaits: Vec::new(),
    };
    stop.store(true, Ordering::Relaxed);
    proxy.shutdown();
    let fake_reports: Vec<ThreadReport> = fakes
        .into_iter()
        .map(|t| t.join().expect("fake switch thread"))
        .collect();

    let sent = per_conn * CONNS as u64;
    let mut failures = Failures::default();
    let mut phase = Phase {
        elapsed_s: t_end.duration_since(t0).as_secs_f64(),
        sessions: sink_reports.iter().filter(|r| r.finished.is_some()).count() as u64,
        cpu_ms,
        ..Phase::default()
    };
    for r in sink_reports.iter().chain(&fake_reports) {
        failures.reordered += r.reordered;
        failures.corrupted += r.corrupted;
    }
    match kind {
        Kind::Blast => {
            // A flow-mod counts once the barrier behind it came back.
            let covered: u64 = sink_reports
                .iter()
                .map(|r| r.received * BARRIER_EVERY)
                .sum();
            let at_switch: u64 = fake_reports.iter().map(|r| r.received).sum();
            phase.ops = covered;
            phase.payload_bytes = covered * 80;
            failures.lost = (sent - covered).max(sent.saturating_sub(at_switch));
            // The engine must have seen exactly the mods that were sent.
            failures.corrupted += side.controller_flow_mods.abs_diff(sent);
        }
        Kind::Upstream => {
            let delivered: u64 = sink_reports.iter().map(|r| r.received).sum();
            phase.ops = delivered;
            phase.payload_bytes = sink_reports.iter().map(|r| r.payload_bytes).sum();
            failures.lost = sent - delivered;
        }
    }
    phase.gen_cpu_ms = writer_reports
        .iter()
        .chain(&sink_reports)
        .chain(&fake_reports)
        .map(|r| r.cpu_ms)
        .sum();
    for (conn, (w, s)) in writer_reports.iter().zip(&sink_reports).enumerate() {
        side.writes.extend(w.writes.iter().copied());
        // gen.await: from the connection's last write to its last delivery.
        if let (Some(&(_, _, last_write)), Some(done)) = (w.writes.last(), s.finished) {
            side.awaits.push((conn as u64, last_write, done));
        }
    }
    (phase, failures, side)
}

/// Runs one measured phase per entry of `plan` (its size in units), each on
/// a fresh fleet whose set-up is timed.
fn run_phases(
    kind: Kind,
    inputs: &Arc<Inputs>,
    plan: &[u64],
    traced: bool,
    prelude: f64,
) -> (Outcome, Vec<ProxySide>) {
    let mut outcome = Outcome {
        input_fnv64: inputs.fnv,
        ops_are_packet_ins: kind == Kind::Upstream,
        ..Outcome::default()
    };
    let mut sides = Vec::with_capacity(plan.len());
    for &units in plan {
        let t = Instant::now();
        let fleet = start_fleet(kind);
        outcome.setup_s.push(prelude + t.elapsed().as_secs_f64());
        let (phase, failures, side) = measure(kind, inputs, fleet, traced, units);
        outcome.phases.push(phase);
        outcome.failures += failures;
        outcome.attempted += inputs.per_conn * units * CONNS as u64;
        sides.push(side);
    }
    (outcome, sides)
}

/// The phases one part of a timed run carries: part 0 the long phase, every
/// other part an equal share of the short ones.
fn part_plan(part: usize) -> Vec<u64> {
    if part == 0 {
        vec![LONG_PHASE_UNITS]
    } else {
        vec![1; (UNITS - LONG_PHASE_UNITS) as usize / (PARTS - 1)]
    }
}

/// One part of the timed run, in this process.
pub fn run_part(kind: Kind, seed: u64, scale: f64, part: usize, process_start: Instant) -> Outcome {
    let inputs = Arc::new(generate(kind, seed, scale / UNITS as f64));
    let prelude = process_start.elapsed().as_secs_f64();
    run_phases(kind, &inputs, &part_plan(part), false, prelude).0
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// The single-threaded sans-IO chain of the proxy: per-shard relays behind
/// the router, exactly as `RumTcpProxy` wires them, plus a bare
/// `ShardedEngine` fed the same messages so the relay's own cost is its span
/// minus the engine's.
struct Replay {
    relays: Vec<EngineRelay>,
    router: rum::ShardRouter,
    engine_only: rum::ShardedEngine,
    epoch: Instant,
    codecs: [OfCodec; 2],
    msgs: Vec<OfMessage>,
    fx: RelayEffects,
    effects: Vec<Effect>,
    wire: Vec<u8>,
    decoded: u64,
    decoded_bytes: u64,
    decode_errors: u64,
    encoded: u64,
    inputs_fed: u64,
    effects_out: u64,
}

impl Replay {
    fn new(kind: Kind) -> Self {
        let (engines, router) = builder(kind).build_sharded().into_parts();
        let epoch = Instant::now();
        let mut relays: Vec<EngineRelay> = engines
            .into_iter()
            .map(|e| EngineRelay::with_epoch(e, epoch))
            .collect();
        let mut fx = RelayEffects::default();
        for relay in &mut relays {
            relay.start_into(&mut fx);
        }
        let mut engine_only = builder(kind).build_sharded();
        engine_only.start(Duration::ZERO);
        Replay {
            relays,
            router,
            engine_only,
            epoch,
            codecs: [OfCodec::new(), OfCodec::new()],
            msgs: Vec::new(),
            fx,
            effects: Vec::new(),
            wire: Vec::new(),
            decoded: 0,
            decoded_bytes: 0,
            decode_errors: 0,
            encoded: 0,
            inputs_fed: 0,
            effects_out: 0,
        }
    }

    /// One socket read's worth of bytes from one side of connection 0:
    /// decode → relay (engine inside) → encode, each under a span; then the
    /// same messages through the bare engine.  Leaves what the relay emitted
    /// in `self.fx.messages`.
    fn pump(&mut self, tracer: &mut Tracer, bytes: &[u8], from_switch: bool, request_base: u64) {
        let switch = SwitchId::new(0);
        let input = |message: OfMessage| {
            if from_switch {
                Input::FromSwitch { switch, message }
            } else {
                Input::FromController { switch, message }
            }
        };
        tracer.enter("openflow.decode", request_base);
        let codec = &mut self.codecs[usize::from(from_switch)];
        codec.feed(bytes);
        self.msgs.clear();
        if codec.drain_messages_into(&mut self.msgs).is_err() {
            self.decode_errors += 1;
        }
        tracer.exit();
        self.decoded += self.msgs.len() as u64;
        self.decoded_bytes += bytes.len() as u64;
        // The second pass's copy, cloned outside any span.
        let for_engine = self.msgs.clone();

        self.fx.clear();
        for (i, message) in self.msgs.drain(..).enumerate() {
            let input = input(message);
            tracer.enter("rum_tcp.relay", request_base + i as u64);
            match self.router.route(&input) {
                rum::Routing::Shard(k) => self.relays[k].handle_into(input, &mut self.fx),
                rum::Routing::Broadcast => {
                    for relay in &mut self.relays {
                        relay.handle_into(input.clone(), &mut self.fx);
                    }
                }
            }
            tracer.exit();
            self.inputs_fed += 1;
        }

        tracer.enter("openflow.encode", request_base);
        self.wire.clear();
        for (_, message) in &self.fx.messages {
            let _ = message.encode_into(&mut self.wire);
        }
        tracer.exit();
        self.encoded += self.fx.messages.len() as u64;

        let now = self.epoch.elapsed();
        for (i, message) in for_engine.into_iter().enumerate() {
            self.effects.clear();
            tracer.enter("rum.handle", request_base + i as u64);
            self.engine_only
                .handle_into(now, input(message), &mut self.effects);
            tracer.exit();
            self.effects_out += self.effects.len() as u64;
        }
    }
}

/// Replays a prefix of connection 0's stream through [`Replay`]; on the
/// blast the fake switch's barrier replies come back through the same chain.
/// Returns how many of the workload's operations were replayed.
fn replay(kind: Kind, inputs: &Inputs, tracer: &mut Tracer, layers: &mut Layers) -> u64 {
    let mut chunk = inputs.chunk.bytes.clone();
    let per_chunk = inputs.per_conn / inputs.chunks_per_conn(kind);
    let chunks = (REPLAY_MSGS as u64 / per_chunk).clamp(1, inputs.chunks_per_conn(kind));
    let mut chain = Replay::new(kind);
    let mut replies = Vec::new();
    for index in 0..chunks {
        inputs.patch(kind, &mut chunk, 0, index);
        tracer.enter("replay.chunk", index);
        chain.pump(tracer, &chunk, kind == Kind::Upstream, index * per_chunk);
        if kind == Kind::Blast {
            replies.clear();
            for (endpoint, message) in &chain.fx.messages {
                if let (Endpoint::Switch(_), OfMessage::BarrierRequest { xid }) =
                    (endpoint, message)
                {
                    let _ = OfMessage::BarrierReply { xid: *xid }.encode_into(&mut replies);
                }
            }
            chain.pump(tracer, &replies, true, index * per_chunk);
        }
        tracer.exit();
    }

    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    let times = tracer.self_times();
    let layer = |name: &str| times.get(name).copied().unwrap_or_default();
    layers.set(
        "openflow.decode_ns_per_msg",
        per(layer("openflow.decode").self_ns, chain.decoded),
    );
    layers.set(
        "openflow.encode_ns_per_msg",
        per(layer("openflow.encode").self_ns, chain.encoded),
    );
    layers.set(
        "openflow.bytes_per_msg",
        per(chain.decoded_bytes, chain.decoded),
    );
    layers.set("openflow.decode_errors", chain.decode_errors as f64);
    layers.set(
        match kind {
            Kind::Blast => "rum.barrier.handle_ns_per_input",
            Kind::Upstream => "rum.pktin.handle_ns_per_input",
        },
        layer("rum.handle").ns_per_call(),
    );
    layers.set(
        "rum.effects_per_input",
        per(chain.effects_out, chain.inputs_fed),
    );
    layers.set(
        "rum_tcp.relay_ns_per_msg",
        layer("rum_tcp.relay").ns_per_call(),
    );
    chunks * per_chunk
}

/// The traced run: untraced and traced TCP phases (their difference is the
/// tracing overhead), then the sans-IO replay.
pub fn trace(kind: Kind, seed: u64, scale: f64) -> (Layers, Tracer, u64, Failures) {
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let inputs = Arc::new(generate(kind, seed, scale / UNITS as f64));
    // Alternating, so drift in machine load lands on both sides.
    let (mut plain, mut traced, mut sides) = (Outcome::default(), Outcome::default(), Vec::new());
    for _ in 0..TRACE_PHASES {
        plain.absorb(run_phases(kind, &inputs, &[TRACE_PHASE_UNITS], false, 0.0).0);
        let (outcome, side) = run_phases(kind, &inputs, &[TRACE_PHASE_UNITS], true, 0.0);
        traced.absorb(outcome);
        sides.extend(side);
    }
    let mut total = ProxySide::default();
    for (phase, side) in sides.iter().enumerate() {
        for &(index, t0, t1) in &side.writes {
            tracer.record("gen.write", ((phase as u64) << 32) | index, t0, t1);
        }
        for &(conn, t0, t1) in &side.awaits {
            tracer.record("gen.await", ((phase as u64) << 32) | conn, t0, t1);
        }
        total.to_switch += side.to_switch;
        total.to_controller += side.to_controller;
        total.bytes += side.bytes;
        total.drains += side.drains;
        total.timers_fired += side.timers_fired;
        total.outbox_depth_max = total.outbox_depth_max.max(side.outbox_depth_max);
    }
    layers.set(
        "trace.overhead_pct",
        (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
    );
    layers.set("gen.cpu_share", plain.gen_cpu_share());
    let drains = total.drains.max(1) as f64;
    layers.set(
        "rum_tcp.msgs_per_drain",
        (total.to_switch + total.to_controller) as f64 / drains,
    );
    layers.set("rum_tcp.bytes_per_drain", total.bytes as f64 / drains);
    layers.set(
        "rum_tcp.timers_fired_per_kop",
        total.timers_fired as f64 / (traced.ops().max(1) as f64 / 1e3),
    );
    layers.set("rum_tcp.outbox_depth_max", total.outbox_depth_max as f64);

    let replayed_ops = replay(kind, &inputs, &mut tracer, &mut layers);
    // What the sans-IO chain alone costs per 1,000 operations.  `rum.handle`
    // is the second pass over the same messages (the first pass has the
    // engine inside `rum_tcp.relay`), so it is not added again.
    let chain_ns: u64 = ["openflow.decode", "openflow.encode", "rum_tcp.relay"]
        .iter()
        .map(|n| tracer.layer(n).self_ns)
        .sum();
    let chain_us_per_kop = chain_ns as f64 / 1e3 / (replayed_ops as f64 / 1e3);
    layers.set(
        "rum_tcp.wire_residual_us_per_kop",
        (plain.system_us_per_kop() - chain_us_per_kop).max(0.0),
    );

    let mut failures = plain.failures;
    failures += traced.failures;
    (layers, tracer, plain.attempted + traced.attempted, failures)
}

/// Human-readable lines about the generated input.
pub fn describe(kind: Kind, seed: u64, scale: f64) -> String {
    let inputs = generate(kind, seed, scale / UNITS as f64);
    let shape = format!(
        "one phase of {LONG_PHASE_UNITS}/{UNITS} and {} of 1/{UNITS}, {} B per write",
        UNITS - LONG_PHASE_UNITS,
        inputs.chunk.bytes.len()
    );
    match kind {
        Kind::Blast => format!(
            "{} flow-mods of 80 B per connection, barrier every {BARRIER_EVERY}, {shape}",
            inputs.per_conn * UNITS
        ),
        Kind::Upstream => format!(
            "{} PacketIns per connection, {SMALL_FRAME} B and {LARGE_FRAME} B frames half each, {shape}",
            inputs.per_conn * UNITS
        ),
    }
}
