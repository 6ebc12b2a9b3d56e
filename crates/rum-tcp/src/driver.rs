//! The TCP transport for controller-side [`Machine`]s.
//!
//! [`TcpDriver`] listens for the machine's switch connections (usually the
//! RUM proxy impersonating the switches), assigns them [`ConnId`]s in accept
//! order and, once every expected connection is up, feeds
//! [`MachineInput::Started`].  From then on it is a pure message pump:
//! reader threads decode OpenFlow frames into [`MachineInput::FromSwitch`],
//! a timer thread replays [`MachineInput::TimerFired`], and every effect is
//! executed mechanically.  One socket read is one lock acquisition; all its
//! sends are coalesced into one chunk (→ one socket write) per connection;
//! timers are armed after the lock is released.  Every decision lives in the
//! machine, which `controller::MachineNode` drives in the simulator.

use crate::conn::{reader_loop, writer_loop, Route};
use crate::timer::TimerQueue;
use controller::{ConnId, Machine, MachineEffect, MachineInput};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which [`ConnId`] slots currently have a live connection.
///
/// The mapping is positional, not authenticated: with several switches down
/// at once, whoever re-dials first gets the lowest freed slot.  Deployments
/// that restart more than one switch concurrently need datapath-id
/// re-identification from a features handshake, which this prototype (like
/// the paper's) does not perform.
pub(crate) struct SlotTable {
    attached: Vec<bool>,
    /// Per-slot attach generation, so a thread outliving its connection
    /// cannot tear down the slot's newer connection.
    generation: Vec<u64>,
    /// Total connections ever attached (reconnects included).
    accepted: usize,
}

impl SlotTable {
    pub(crate) fn new(n: usize) -> Self {
        SlotTable {
            attached: vec![false; n],
            generation: vec![0; n],
            accepted: 0,
        }
    }

    /// Claims the lowest free slot, so a single restarted switch reattaches
    /// under its original `ConnId`.  `None` for a surplus connection.
    pub(crate) fn claim(&mut self) -> Option<(usize, u64)> {
        let slot = self.attached.iter().position(|&a| !a)?;
        self.attached[slot] = true;
        self.generation[slot] += 1;
        self.accepted += 1;
        Some((slot, self.generation[slot]))
    }

    /// Undoes a claim that never became an attach: the slot is free again
    /// under the generation it had before.
    pub(crate) fn unclaim(&mut self, slot: usize) {
        self.attached[slot] = false;
        self.generation[slot] -= 1;
        self.accepted -= 1;
    }

    /// Frees `slot` if `generation` is still its current attach; a thread
    /// from an earlier attach reporting its death late is a no-op.
    pub(crate) fn detach(&mut self, slot: usize, generation: u64) -> bool {
        let current = self.attached[slot] && self.generation[slot] == generation;
        if current {
            self.attached[slot] = false;
        }
        current
    }

    fn all_attached(&self) -> bool {
        self.attached.iter().all(|&a| a)
    }
}

struct State<M: Machine> {
    machine: M,
    /// Reusable effects buffer.
    effects: Vec<M::Effect>,
    /// Per slot; sends to a detached slot buffer and flush on reattach.
    routes: Vec<Route>,
    /// Reusable per-connection encode buffers.
    send_bufs: Vec<Vec<u8>>,
    slots: SlotTable,
    started: bool,
}

struct Shared<M: Machine> {
    state: Mutex<State<M>>,
    /// Notified whenever the machine reports something terminal.
    done: Condvar,
    timers: TimerQueue,
    stop: AtomicBool,
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
            for (route, buf) in st.routes.iter_mut().zip(st.send_bufs.iter_mut()) {
                if !buf.is_empty() {
                    route.send_bytes(std::mem::take(buf));
                }
            }
            result
        };
        let armed_at = Instant::now();
        for (delay, raw) in timers {
            self.timers.arm(armed_at + delay, raw);
        }
        if notify {
            self.done.notify_all();
        }
        result
    }

    fn feed(&self, input: MachineInput) {
        self.drive(|machine, now, effects| machine.handle(now, input, effects));
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
        let listener = TcpListener::bind(self.listen_addr)?;
        let local_addr = listener.local_addr()?;
        let n = self.n_connections;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                machine: self.machine,
                effects: Vec::new(),
                routes: (0..n).map(|_| Route::Pending(Vec::new())).collect(),
                send_bufs: vec![Vec::new(); n],
                slots: SlotTable::new(n),
                started: false,
            }),
            done: Condvar::new(),
            timers: TimerQueue::new(),
            stop: AtomicBool::new(false),
            epoch: self.epoch,
        });

        let timer_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let timers = &shared.timers;
                timers.run(&shared.stop, |raw| {
                    shared.feed(MachineInput::TimerFired { raw })
                });
            })
        };

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for incoming in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else {
                        continue;
                    };
                    // Surplus connections are dropped.
                    let Some((slot, generation)) = shared.state().slots.claim() else {
                        continue;
                    };
                    // A failed attach (fd exhaustion at fleet scale) drops
                    // the connection so the peer retries, and frees the slot
                    // for it.
                    if attach(&shared, slot, generation, stream).is_err() {
                        shared.state().slots.unclaim(slot);
                    }
                }
            })
        };

        Ok(TcpDriverHandle {
            local_addr,
            shared,
            accept_thread,
            timer_thread,
        })
    }
}

/// Wires one accepted switch connection: a writer thread draining the
/// slot's outbox and a reader thread feeding the machine.  Either thread
/// ending detaches the slot so a restarted switch can reconnect under the
/// same `ConnId`.  The connection that fills the last slot starts the
/// machine.
fn attach<M>(
    shared: &Arc<Shared<M>>,
    slot: usize,
    generation: u64,
    stream: TcpStream,
) -> std::io::Result<()>
where
    M: Machine + Send + 'static,
    M::Effect: Send,
{
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone()?;
    let (tx, rx) = channel::<Vec<u8>>();
    let start = {
        let mut st = shared.state();
        st.routes[slot].connect(tx);
        let start = st.slots.all_attached() && !st.started;
        st.started |= start;
        start
    };
    // A failed write ends the writer loop gracefully; the machine's failure
    // policy (timeout → retry → abort) handles the silent switch.
    let writer_shared = Arc::clone(shared);
    std::thread::spawn(move || {
        writer_loop(rx, stream);
        detach(&writer_shared, slot, generation);
    });
    let reader_shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let conn = ConnId::new(slot);
        reader_loop(reader, |msgs| {
            reader_shared.drive(|machine, now, effects| {
                for message in msgs.drain(..) {
                    machine.handle(now, MachineInput::FromSwitch { conn, message }, effects);
                }
            })
        });
        detach(&reader_shared, slot, generation);
    });
    if start {
        shared.feed(MachineInput::Started);
    }
    Ok(())
}

/// Frees one slot after its connection died: the route goes back to
/// buffering (the writer thread drains what was already queued, shuts the
/// socket down and exits — see `writer_loop`).  Generation-guarded.
fn detach<M: Machine>(shared: &Shared<M>, slot: usize, generation: u64) {
    let mut st = shared.state();
    if st.slots.detach(slot, generation) {
        st.routes[slot] = Route::Pending(Vec::new());
    }
}

/// A handle to a running [`TcpDriver`].
pub struct TcpDriverHandle<M: Machine> {
    /// The address the controller actually listens on (useful with port 0).
    pub local_addr: SocketAddr,
    shared: Arc<Shared<M>>,
    accept_thread: JoinHandle<()>,
    timer_thread: JoinHandle<()>,
}

impl<M: Machine> TcpDriverHandle<M> {
    /// Number of switch connections accepted so far (reconnects included).
    pub fn connections(&self) -> usize {
        self.shared.state().slots.accepted
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

    /// Asks the accept and timer loops to stop and waits for them.
    /// Established connection threads terminate when their sockets close.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.timers.wake();
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept_thread.join();
        let _ = self.timer_thread.join();
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
            stream
                .set_read_timeout(Some(Duration::from_secs(3)))
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
    use super::*;

    #[test]
    fn failed_attach_restores_the_slot_and_its_generation() {
        let mut slots = SlotTable::new(2);
        assert_eq!(slots.claim(), Some((0, 1)));
        slots.unclaim(0);
        assert_eq!(slots.accepted, 0);
        assert!(!slots.all_attached());
        // The next dial claims the same slot as a first attach, not as a
        // reconnect.
        assert_eq!(slots.claim(), Some((0, 1)));
        assert_eq!(slots.accepted, 1);
    }

    #[test]
    fn stale_generation_detach_is_a_no_op() {
        let mut slots = SlotTable::new(1);
        let (slot, first) = slots.claim().unwrap();
        assert!(slots.detach(slot, first));
        assert!(!slots.detach(slot, first), "detach is idempotent");
        let (_, second) = slots.claim().unwrap();
        assert_eq!(second, first + 1, "reconnects bump the generation");
        // A thread from the first attach reports its death only now.
        assert!(!slots.detach(slot, first));
        assert!(slots.all_attached(), "the newer connection survives");
        assert!(slots.detach(slot, second));
        assert_eq!(slots.accepted, 2);
    }

    #[test]
    fn surplus_connection_is_refused_and_lowest_free_slot_is_reused() {
        let mut slots = SlotTable::new(2);
        assert_eq!(slots.claim(), Some((0, 1)));
        assert_eq!(slots.claim(), Some((1, 1)));
        assert!(slots.all_attached());
        assert_eq!(slots.claim(), None);
        assert_eq!(slots.accepted, 2, "a refused connection is not counted");
        assert!(slots.detach(0, 1));
        assert_eq!(slots.claim(), Some((0, 2)));
    }
}
