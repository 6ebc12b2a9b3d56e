//! The TCP transport for controller-side [`Machine`]s.
//!
//! [`TcpDriver`] listens for the machine's switch connections (usually the
//! RUM proxy impersonating the switches), assigns them [`ConnId`]s in accept
//! order and, once every expected connection is up, feeds
//! [`MachineInput::Started`].  From then on it is a pure message pump: the
//! connection layer's worker decodes OpenFlow frames into
//! [`MachineInput::FromSwitch`], replays the timers that came due as
//! [`MachineInput::TimerFired`], and every effect is executed mechanically.
//! One socket read, or one pass's due timers, is one lock acquisition; all
//! its sends are coalesced into one chunk per connection, pushed to that
//! connection's outbox under the lock and flushed after it; timers are
//! armed after the lock is released.  Every decision lives in the machine,
//! which `controller::MachineNode` drives in the simulator.
//!
//! The sockets and the deadlines belong to the private `conn` module — the
//! same accept loop, slot table, outboxes and `ppoll(2)` worker the proxy
//! runs on, here with one socket per slot and one worker.  What this module
//! owns is the machine lock, the effect execution above and the "last slot
//! filled → `Started`" rule.

use crate::conn::{Conns, Outbox, Transport};
use controller::{ConnId, Machine, MachineEffect, MachineInput};
use openflow::OfMessage;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<M: Machine> {
    machine: M,
    /// Reusable effects buffer.
    effects: Vec<M::Effect>,
    /// Reusable per-connection encode buffers.
    send_bufs: Vec<Vec<u8>>,
    started: bool,
}

struct Shared<M: Machine> {
    state: Mutex<State<M>>,
    /// Notified whenever the machine reports something terminal.
    done: Condvar,
    /// One socket per slot; sends to a detached slot queue in its outbox
    /// and flush on reattach.
    conns: Conns,
    epoch: Instant,
}

impl<M: Machine> Shared<M> {
    fn state(&self) -> MutexGuard<'_, State<M>> {
        self.state
            .lock()
            .expect("a driver thread panicked while holding the state lock")
    }

    /// Runs `f` against the machine under the lock, then executes every
    /// effect it left in the buffer.
    fn drive<R>(&self, f: impl FnOnce(&mut M, Duration, &mut Vec<M::Effect>) -> R) -> R {
        let now = self.epoch.elapsed();
        let mut timers = Vec::new();
        let mut touched = Vec::new();
        let mut notify = false;
        let result = {
            let mut st = self.state();
            let st = &mut *st;
            let mut effects = std::mem::take(&mut st.effects);
            let result = f(&mut st.machine, now, &mut effects);
            for effect in effects.drain(..) {
                match st.machine.lower(effect) {
                    MachineEffect::Send { conn, message } => {
                        // A conn without a slot has nowhere to go.
                        let Some(buf) = st.send_bufs.get_mut(conn.index()) else {
                            continue;
                        };
                        let len_before = buf.len();
                        if message.encode_into(buf).is_err() {
                            buf.truncate(len_before);
                        }
                    }
                    MachineEffect::ArmTimer { delay, raw } => timers.push((delay, raw)),
                    MachineEffect::Confirmed { .. } => {}
                    MachineEffect::Note { terminal, .. } => notify |= terminal,
                }
            }
            st.effects = effects;
            for (slot, buf) in st.send_bufs.iter_mut().enumerate() {
                if !buf.is_empty() {
                    self.conns.push(slot, 0, std::mem::take(buf));
                    touched.push(slot);
                }
            }
            result
        };
        let armed_at = Instant::now();
        for (delay, raw) in timers {
            self.conns.arm(0, armed_at, delay, raw);
        }
        for slot in touched {
            self.conns.flush(slot);
        }
        if notify {
            self.done.notify_all();
        }
        result
    }
}

impl<M> Transport for Shared<M>
where
    M: Machine + Send + 'static,
    M::Effect: Send,
{
    fn conns(&self) -> &Conns {
        &self.conns
    }

    fn open(&self, accepted: TcpStream) -> std::io::Result<Vec<TcpStream>> {
        Ok(vec![accepted])
    }

    /// The connection that fills the last slot starts the machine.
    fn attached(&self, _slot: usize, _generation: u64) {
        let full = self.conns.all_attached();
        let start = {
            let mut st = self.state();
            let start = full && !st.started;
            st.started |= start;
            start
        };
        if start {
            self.drive(|machine, now, effects| machine.handle(now, MachineInput::Started, effects));
        }
    }

    fn received(&self, slot: usize, _side: usize, msgs: &mut Vec<OfMessage>) {
        let conn = ConnId::new(slot);
        self.drive(|machine, now, effects| {
            for message in msgs.drain(..) {
                machine.handle(now, MachineInput::FromSwitch { conn, message }, effects);
            }
        })
    }

    fn timer(&self, tokens: &mut Vec<u64>) {
        self.drive(|machine, now, effects| {
            for raw in tokens.drain(..) {
                machine.handle(now, MachineInput::TimerFired { raw }, effects);
            }
        })
    }
}

/// A controller-side [`Machine`] waiting to be served over TCP.
///
/// Switch connections attach in accept order: the first accepted socket
/// becomes [`ConnId`] 0 (= plan `SwitchRef` 0) and so on, which matches how
/// the RUM proxy dials one upstream connection per switch as that switch
/// connects.  Deployments that need a deterministic mapping connect the
/// switches one at a time (see [`TcpDriverHandle::connections`]).
pub struct TcpDriver<M> {
    pub(crate) listen_addr: SocketAddr,
    pub(crate) machine: M,
    pub(crate) n_connections: usize,
    pub(crate) epoch: Instant,
}

impl<M> TcpDriver<M>
where
    M: Machine + Send + 'static,
    M::Effect: Send,
{
    /// Binds the listener and starts accepting connections on background
    /// threads.  Sends to a connection that has not attached yet buffer and
    /// flush on attach.
    pub fn start(self) -> std::io::Result<TcpDriverHandle<M>> {
        let n = self.n_connections;
        let outboxes = (0..n).map(|_| vec![Outbox::new(Vec::new())]).collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                machine: self.machine,
                effects: Vec::new(),
                send_bufs: vec![Vec::new(); n],
                started: false,
            }),
            done: Condvar::new(),
            // One worker: the single machine lock serialises input anyway.
            conns: Conns::bind(self.listen_addr, outboxes, 1)?,
            epoch: self.epoch,
        });
        Conns::start(&shared);

        Ok(TcpDriverHandle {
            local_addr: shared.conns.local_addr,
            shared,
        })
    }
}

/// A handle to a running [`TcpDriver`].
pub struct TcpDriverHandle<M: Machine> {
    /// The address the controller actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    shared: Arc<Shared<M>>,
}

impl<M: Machine> TcpDriverHandle<M> {
    /// Number of switch connections accepted so far (reconnects included).
    pub fn connections(&self) -> usize {
        self.shared.conns.accepted()
    }

    /// Runs `f` against the machine under the lock — the inspection surface,
    /// identical to what the simulator node exposes.
    pub fn with<R>(&self, f: impl FnOnce(&M) -> R) -> R {
        f(&self.shared.state().machine)
    }

    /// Runs `f` against the machine with the driver's clock and effects
    /// buffer, then executes whatever `f` appended.
    pub(crate) fn drive<R>(&self, f: impl FnOnce(&mut M, Duration, &mut Vec<M::Effect>) -> R) -> R {
        self.shared.drive(f)
    }

    /// Blocks until `pred` holds for the machine or `timeout` elapses;
    /// returns whether it held.  Re-checked whenever the machine reports
    /// something terminal.
    pub fn wait_until(&self, timeout: Duration, pred: impl Fn(&M) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state();
        loop {
            if pred(&st.machine) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let waited = self.shared.done.wait_timeout(st, deadline - now);
            st = waited.expect("a driver thread panicked holding the lock").0;
        }
    }

    /// Asks the accept and worker loops to stop and waits for them; the
    /// worker shuts every attached socket down on its way out.
    pub fn shutdown(self) {
        self.shared.conns.shutdown();
    }
}

/// Fixtures shared by the typed controllers' socket tests.
#[cfg(test)]
pub(crate) mod testing {
    use openflow::{OfCodec, OfMessage};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// A scripted in-process switch: acks every flow-mod with a RUM-style
    /// fine-grained acknowledgment, which is what the proxy would send.
    /// Returns the flow-mod xids it saw.
    pub(crate) fn acking_switch(addr: SocketAddr) -> JoinHandle<Vec<u64>> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect to controller");
            // Only a hung test waits this out (every user shuts its
            // controller down, which is an EOF here), so it is long: a
            // debug build takes ~3 s to stage the 60,000-mod blast below.
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let mut codec = OfCodec::new();
            let mut buf = [0u8; 4096];
            let mut acks = Vec::new();
            let mut seen = Vec::new();
            'conn: loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                codec.feed(&buf[..n]);
                acks.clear();
                while let Ok(Some(msg)) = codec.next_message() {
                    if let OfMessage::FlowMod { xid, .. } = msg {
                        seen.push(u64::from(xid));
                        OfMessage::rum_ack(xid)
                            .encode_into(&mut acks)
                            .expect("encodable ack");
                    }
                }
                // One write per read batch; a failed write means the
                // controller hung up — stop acking instead of panicking.
                if !acks.is_empty() && stream.write_all(&acks).is_err() {
                    break 'conn;
                }
            }
            seen
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testing::acking_switch;
    use crate::mux_controller::TcpMuxController;
    use crate::proxy::wait_for;
    use controller::{AckMode, UpdatePlan};
    use openflow::messages::FlowMod;
    use openflow::{Action, OfMatch};
    use sessiond::{MuxConfig, SessionState};
    use std::io::Read;
    use std::net::{Ipv4Addr, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    fn plan(tenant: u8, switches: &[usize], mods: u32) -> UpdatePlan {
        let mut plan = UpdatePlan::new();
        for i in 0..mods {
            let [_, a, b, c] = i.to_be_bytes();
            let src = Ipv4Addr::new(10 + tenant, a, b, c);
            let matching = OfMatch::ipv4_pair(src, Ipv4Addr::new(10, 200, 0, 1));
            let switch = switches[i as usize % switches.len()];
            let fm = FlowMod::add(matching, 100, vec![Action::output(2)]);
            plan.add(u64::from(i) + 1, switch, fm).unwrap();
        }
        plan
    }

    /// The driver side of what `tests/eventloop_robustness.rs` pins for the
    /// proxy: a connection whose peer never reads leaves residue only in
    /// its own outbox while a session on the other connections completes,
    /// and `shutdown()` still returns — with every driver thread gone and
    /// every socket shut.
    #[test]
    fn peer_that_never_reads_backs_up_only_its_own_outbox() {
        // Windows wide enough that the whole blast is released at once:
        // ~5.4 MB towards slot 0, more than its kernel buffers take.
        const BLAST: u32 = 60_000;
        let config = MuxConfig {
            ack_mode: AckMode::RumAcks,
            session_window: BLAST as usize,
            global_window: 2 * BLAST as usize,
            quantum: u64::from(BLAST),
            ..MuxConfig::default()
        };
        let ctrl = TcpMuxController::new("127.0.0.1:0".parse().unwrap(), config, 3);
        let handle = ctrl.start().expect("controller starts");
        // Dial one at a time so slot order is dial order: slot 0 never
        // reads, slots 1 and 2 ack everything.
        let mut stalled = TcpStream::connect(handle.local_addr).unwrap();
        let mut switches = Vec::new();
        for n in 2..=3 {
            assert!(wait_for(
                || handle.connections() == n - 1,
                Duration::from_secs(3)
            ));
            switches.push(acking_switch(handle.local_addr));
        }
        assert!(wait_for(
            || handle.connections() == 3,
            Duration::from_secs(3)
        ));

        let blast = handle.submit(plan(0, &[0], BLAST)).expect("admitted");
        let served = handle.submit(plan(1, &[1, 2], 8)).expect("admitted");
        assert!(
            handle.wait_until(Duration::from_secs(5), |m| {
                m.state(served) == Some(&SessionState::Done)
            }),
            "the session on the live connections must complete"
        );
        assert_eq!(handle.confirmed_order(served).len(), 8);
        assert_eq!(
            handle.with(|m| m.state(blast).cloned()),
            Some(SessionState::Running)
        );
        let queued = handle.shared.conns.queued();
        assert!(queued[0] > 0, "slot 0's socket is full: {queued:?}");
        assert_eq!(queued[1..], [0, 0], "nobody else pays for it");

        // Every driver thread holds the shared state; once `shutdown` has
        // joined them all, the handle's reference was the last one.
        let shared = Arc::downgrade(&handle.shared);
        handle.shutdown();
        assert!(shared.upgrade().is_none(), "a driver thread is still alive");
        // The worker shut the sockets on its way out: the stalled peer
        // reads what was in flight, then EOF (or a reset), never a timeout.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = vec![0u8; 1 << 16];
        loop {
            match stalled.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
                    break;
                }
            }
        }
        for switch in switches {
            let _ = switch.join();
        }
    }
}
