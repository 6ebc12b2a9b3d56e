//! The controller-side TCP driver serves its connections from a fixed set
//! of threads (accept, timer, one `poll(2)` worker), not from threads per
//! connection.  A file — and so a process — of its own, so the kernel's
//! count in `/proc/self/status` belongs to this one test.

use controller::{AckMode, UpdatePlan, UpdateSession};
use openflow::messages::FlowMod;
use openflow::{Action, OfMatch};
use rum_tcp::{wait_for, TcpUpdateController};
use std::net::TcpStream;
use std::time::Duration;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line").trim().parse().unwrap()
}

#[test]
fn attaching_64_connections_spawns_no_thread_per_connection() {
    const CONNECTIONS: usize = 64;
    let mut plan = UpdatePlan::new();
    for switch in 0..CONNECTIONS {
        let fm = FlowMod::add(OfMatch::wildcard_all(), 1, vec![Action::output(1)]);
        plan.add(switch as u64 + 1, switch, fm).unwrap();
    }
    let session = UpdateSession::new(plan, AckMode::RumAcks, CONNECTIONS);
    let ctrl = TcpUpdateController::new("127.0.0.1:0".parse().unwrap(), session, CONNECTIONS);
    let handle = ctrl.start().expect("controller starts");

    let before = threads();
    let peers: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(handle.local_addr).expect("dial"))
        .collect();
    assert!(
        wait_for(
            || handle.connections() == CONNECTIONS,
            Duration::from_secs(5)
        ),
        "only {} of {CONNECTIONS} connections attached",
        handle.connections()
    );
    // The last attach started the session: every connection has been sent
    // its modification by whatever serves it.
    assert!(wait_for(
        || handle.with_session(|s| s.sent_count()) == CONNECTIONS,
        Duration::from_secs(5)
    ));
    let grown = threads().saturating_sub(before);
    assert!(
        grown <= 4,
        "{CONNECTIONS} connections grew the process by {grown} threads"
    );

    drop(peers);
    handle.shutdown();
}
