//! Timers cost no thread: a proxy is its `ppoll(2)` workers plus the accept
//! thread, a controller driver one worker plus the accept thread, and the
//! hold-down timers of a whole update arm and fire inside those.  A file —
//! and so a process — of its own, so the kernel's count in
//! `/proc/self/status` belongs to this one test; the switches are served
//! from the test thread for the same reason.

use controller::{AckMode, UpdatePlan, UpdateSession};
use openflow::messages::FlowMod;
use openflow::{Action, OfCodec, OfMatch, OfMessage};
use rum::{RumBuilder, TechniqueConfig};
use rum_tcp::{wait_for, ProxyConfig, RumTcpProxy, TcpUpdateController};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line").trim().parse().unwrap()
}

/// One early-reply switch, served from the test thread: answers every
/// barrier that has arrived on its (nonblocking) stream.
struct Switch {
    stream: TcpStream,
    codec: OfCodec,
}

impl Switch {
    fn answer_barriers(&mut self) {
        let mut buf = [0u8; 2048];
        while let Ok(n) = self.stream.read(&mut buf) {
            assert!(n > 0, "the proxy hung up");
            self.codec.feed(&buf[..n]);
            while let Ok(Some(msg)) = self.codec.next_message() {
                if let OfMessage::BarrierRequest { xid } = msg {
                    let reply = OfMessage::BarrierReply { xid }.encode_to_vec().unwrap();
                    self.stream.write_all(&reply).unwrap();
                }
            }
        }
    }
}

#[test]
fn proxy_and_driver_threads_are_workers_plus_accept_and_timers_add_none() {
    const SLOTS: usize = 16;
    let loopback = "127.0.0.1:0".parse().unwrap();
    let mut plan = UpdatePlan::new();
    for switch in 0..SLOTS {
        let fm = FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(1)]);
        plan.add(switch as u64 + 1, switch, fm).unwrap();
    }
    let session = UpdateSession::new(plan, AckMode::Barriers { batch: 1 }, SLOTS);

    let before = threads();
    let ctrl = TcpUpdateController::new(loopback, session, SLOTS)
        .start()
        .expect("controller starts");
    let with_ctrl = threads();
    assert!(
        with_ctrl - before <= 2,
        "the controller driver started {} threads",
        with_ctrl - before
    );

    let builder = RumBuilder::new(SLOTS)
        .technique(TechniqueConfig::StaticTimeout {
            delay: Duration::from_millis(20),
        })
        .fine_grained_acks(false);
    let config = ProxyConfig {
        listen_addr: loopback,
        controller_addr: ctrl.local_addr,
    };
    let proxy = RumTcpProxy::new(config, builder)
        .start()
        .expect("proxy starts");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 8));
    let with_proxy = threads();
    assert!(
        with_proxy - with_ctrl <= workers + 1,
        "the proxy started {} threads for {workers} workers",
        with_proxy - with_ctrl
    );

    // Dial one at a time so slot order is dial order; the last attach
    // starts the session, which sends every slot its flow-mod + barrier.
    let mut switches: Vec<Switch> = Vec::new();
    for n in 1..=SLOTS {
        let stream = TcpStream::connect(proxy.local_addr).expect("dial");
        stream.set_nonblocking(true).unwrap();
        let codec = OfCodec::new();
        switches.push(Switch { stream, codec });
        assert!(wait_for(|| ctrl.connections() == n, Duration::from_secs(5)));
    }
    let complete = || {
        switches.iter_mut().for_each(Switch::answer_barriers);
        ctrl.with_session(|s| s.is_complete())
    };
    assert!(
        wait_for(complete, Duration::from_secs(5)),
        "confirmed {} of {SLOTS}",
        ctrl.with_session(|s| s.confirmed_count())
    );
    let fired = proxy.counters().timers_fired();
    assert!(fired >= SLOTS as u64, "only {fired} hold-down timers fired");
    assert_eq!(threads(), with_proxy, "timers or connections cost threads");

    drop(switches);
    proxy.shutdown();
    ctrl.shutdown();
}
