//! The event queue driving the simulation.
//!
//! Ordering contract: events are delivered in delivery-time order, and
//! events due at the same instant in the order they were scheduled.  A run
//! is therefore a pure function of its inputs and seed.  Payloads are stored
//! once in a slab; the order is kept over slab slots, one FIFO per distinct
//! delivery time (see [`EventQueue`]).

use crate::node::NodeId;
use crate::packet::SimPacket;
use crate::time::SimTime;
use openflow::{OfMessage, PortNo};
use std::collections::{BTreeMap, VecDeque};

/// The payload of an event delivered to a node.
#[derive(Debug, Clone)]
pub enum EventPayload {
    /// A data-plane packet arriving on one of the node's ports.
    Packet {
        /// The packet.
        packet: SimPacket,
        /// The port it arrives on.
        in_port: PortNo,
    },
    /// An OpenFlow control-plane message from another node (controller,
    /// proxy or switch, depending on who is talking to whom).
    Control {
        /// The sending node.
        from: NodeId,
        /// The message.
        message: OfMessage,
    },
    /// A timer armed earlier by the node itself.
    Timer {
        /// The token passed when the timer was armed.
        token: u64,
    },
}

impl EventPayload {
    /// A short label for traces and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            EventPayload::Packet { .. } => "packet",
            EventPayload::Control { .. } => "control",
            EventPayload::Timer { .. } => "timer",
        }
    }
}

/// A scheduled event, as [`EventQueue::pop`] hands it out.
#[derive(Debug)]
pub struct Event {
    /// Delivery time.
    pub time: SimTime,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// Destination node.
    pub target: NodeId,
    /// Payload.
    pub payload: EventPayload,
}

/// The most emptied per-time FIFOs kept for reuse.
const SPARE_FIFOS: usize = 64;

/// A deterministic time-ordered event queue.
///
/// Events pop in `(time, seq)` order: earliest delivery time first, and
/// events due at the same instant in the order they were scheduled (`seq`
/// rises with every [`EventQueue::schedule`]).
///
/// The simulator's traffic schedules tens of thousands of events onto a few
/// dozen distinct instants (link and control latencies are fixed, so every
/// reaction to one event lands on the same few offsets), so the queue is
/// ordered by instant, not by event: a `BTreeMap` holds one FIFO of slab
/// slots per distinct delivery time.  Each payload is stored once, in a slab
/// whose freed slots are reused, so ordering work moves 4-byte slot numbers
/// and never the payloads themselves.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `(seq, target, payload)` per slot; `None` for a free slot.
    slab: Vec<Option<(u64, NodeId, EventPayload)>>,
    /// Free slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    /// One FIFO of slab slots per distinct pending delivery time.
    by_time: BTreeMap<SimTime, VecDeque<u32>>,
    /// Emptied FIFOs, kept so a new instant reuses their allocation.
    spare: Vec<VecDeque<u32>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `payload` for delivery to `target` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, target: NodeId, payload: EventPayload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Some((seq, target, payload));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(entry);
                slot
            }
        };
        let spare = &mut self.spare;
        self.by_time
            .entry(time)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(slot);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let mut first = self.by_time.first_entry()?;
        let time = *first.key();
        let slot = first.get_mut().pop_front().expect("no empty FIFO is kept");
        if first.get().is_empty() {
            let fifo = first.remove();
            if self.spare.len() < SPARE_FIFOS {
                self.spare.push(fifo);
            }
        }
        let (seq, target, payload) = self.slab[slot as usize]
            .take()
            .expect("a queued slot is full");
        self.free.push(slot);
        Some(Event {
            time,
            seq,
            target,
            payload,
        })
    }

    /// The delivery time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.by_time.first_key_value().map(|(&time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.by_time.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::from_millis(5),
            NodeId(0),
            EventPayload::Timer { token: 5 },
        );
        q.schedule(
            SimTime::from_millis(1),
            NodeId(0),
            EventPayload::Timer { token: 1 },
        );
        q.schedule(
            SimTime::from_millis(3),
            NodeId(0),
            EventPayload::Timer { token: 3 },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.payload {
                EventPayload::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for token in 0..10 {
            q.schedule(t, NodeId(0), EventPayload::Timer { token });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.payload {
                EventPayload::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(
            SimTime::from_micros(2),
            NodeId(1),
            EventPayload::Timer { token: 0 },
        );
        q.schedule(
            SimTime::from_micros(1),
            NodeId(1),
            EventPayload::Timer { token: 0 },
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
    }

    /// Drives the queue with a seeded mix of `schedule` and `pop` calls and
    /// checks every pop against a reference model that sorts the pending set
    /// by `(time, seq)`: ties, a burst of 10,000 events at one instant, and
    /// times earlier than events already pending.  The slab never holds more
    /// slots than the peak number of pending events.
    #[test]
    fn pops_follow_time_then_scheduling_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        let mut rng = SmallRng::seed_from_u64(34);
        let mut q = EventQueue::new();
        // (time, seq, token) of every pending event, sorted.
        let mut model = BTreeSet::new();
        let mut next_seq = 0;
        let mut peak = 0;
        let mut popped = 0;
        let mut schedule = |q: &mut EventQueue, model: &mut BTreeSet<_>, time: SimTime| {
            let token = next_seq;
            q.schedule(
                time,
                NodeId(token as usize % 7),
                EventPayload::Timer { token },
            );
            model.insert((time, next_seq, token));
            next_seq += 1;
        };
        let mut pop = |q: &mut EventQueue, model: &mut BTreeSet<(SimTime, u64, u64)>| {
            let expected = model.pop_first();
            assert_eq!(q.peek_time(), expected.map(|(time, ..)| time));
            let got = q.pop().map(|e| match e.payload {
                EventPayload::Timer { token } => {
                    assert_eq!(e.target, NodeId(token as usize % 7));
                    (e.time, e.seq, token)
                }
                _ => unreachable!(),
            });
            assert_eq!(got, expected, "pop {popped}");
            popped += 1;
        };
        let mut now = 0u64;
        for round in 0..40 {
            // A burst of schedules: mostly onto a handful of offsets from
            // `now` (ties), some into the past of what is pending.
            for _ in 0..rng.gen_index(200) {
                let time = match rng.gen_index(4) {
                    0 => now.saturating_sub(rng.gen_range_u64(50)),
                    _ => now + [0, 50, 100, 400][rng.gen_index(4)],
                };
                schedule(&mut q, &mut model, SimTime::from_micros(time));
            }
            if round == 20 {
                for _ in 0..10_000 {
                    schedule(&mut q, &mut model, SimTime::from_micros(now + 7));
                }
            }
            peak = peak.max(q.len());
            assert_eq!(q.len(), model.len());
            for _ in 0..rng.gen_index(q.len() + 1) {
                pop(&mut q, &mut model);
            }
            now += rng.gen_range_u64(100);
        }
        while !q.is_empty() {
            pop(&mut q, &mut model);
        }
        pop(&mut q, &mut model);
        assert!(model.is_empty());
        assert!(q.slab.len() <= peak, "slab {} > peak {peak}", q.slab.len());
        assert!(q.spare.len() <= SPARE_FIFOS);
    }

    #[test]
    fn payload_kind_labels() {
        assert_eq!(EventPayload::Timer { token: 0 }.kind(), "timer");
        let pkt = EventPayload::Packet {
            packet: SimPacket::new(
                openflow::PacketHeader::default(),
                0,
                SimTime::ZERO,
                NodeId(0),
            ),
            in_port: 1,
        };
        assert_eq!(pkt.kind(), "packet");
        let ctl = EventPayload::Control {
            from: NodeId(0),
            message: OfMessage::Hello { xid: 0 },
        };
        assert_eq!(ctl.kind(), "control");
    }
}
