//! Small value types shared across the OpenFlow stack, and the layout of
//! the xid space.
//!
//! # Xid layout
//!
//! One control channel carries xids minted by four parties: the update
//! controller, its reconciler, the RUM proxy's per-switch techniques and
//! the proxy engine itself.  Each owns one row of this table and never
//! steps outside it (allocators wrap with [`take_xid_in`]), so an xid
//! alone names the party it belongs to:
//!
//! | xids | owner |
//! |------|-------|
//! | `0 .. CONTROLLER_BARRIER_XID_BASE` | controller flow modifications (xid = modification id) |
//! | `CONTROLLER_BARRIER_XID_BASE .. RESYNC_READBACK_XID_BASE` | controller barriers (`UpdateSession`, `SessionMux`) |
//! | `RESYNC_READBACK_XID_BASE .. RESYNC_DELETE_XID_BASE` | reconciler flow-stats readbacks |
//! | `RESYNC_DELETE_XID_BASE .. PROXY_XID_BASE` | reconciler strict deletes of stray rules |
//! | `PROXY_XID_BASE .. CATCH_XID_BASE` | RUM techniques: switch `i`'s band of `TECHNIQUE_XID_BAND` xids starts at `PROXY_XID_BASE + (i + 1) * TECHNIQUE_XID_BAND` |
//! | `CATCH_XID_BASE ..` | RUM catch-rule installs: `CATCH_XID_BASE \| switch << 8 \| generation` |

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Range;

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a MAC address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// A deterministic, locally administered unicast address derived from an
    /// integer id.  Used by the simulator to assign host/switch addresses.
    pub fn from_id(id: u64) -> Self {
        let b = id.to_be_bytes();
        // 0x02 sets the locally-administered bit and keeps the unicast bit
        // clear, so generated addresses can never collide with real OUIs.
        MacAddr([0x02, b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// A switch datapath identifier (64 bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DatapathId(pub u64);

impl DatapathId {
    /// Builds a datapath id from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        DatapathId(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatapathId(0x{:016x})", self.0)
    }
}

impl fmt::Display for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

impl From<u64> for DatapathId {
    fn from(raw: u64) -> Self {
        DatapathId(raw)
    }
}

/// An OpenFlow transaction identifier.
pub type Xid = u32;

/// An OpenFlow switch port number (16 bits in OF 1.0).
pub type PortNo = u16;

/// A switch packet-buffer identifier.
pub type BufferId = u32;

/// Converts an [`Ipv4Addr`] to its u32 big-endian representation.
pub fn ipv4_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from_be_bytes(addr.octets())
}

/// Converts a u32 (big-endian semantics) to an [`Ipv4Addr`].
pub fn u32_to_ipv4(raw: u32) -> Ipv4Addr {
    Ipv4Addr::from(raw.to_be_bytes())
}

/// First controller barrier xid; the controller's modification ids stay
/// below it.
pub const CONTROLLER_BARRIER_XID_BASE: Xid = 0x4000_0000;

/// First reconciler readback (flow-stats request) xid; the end of the
/// controller's barrier xids.
pub const RESYNC_READBACK_XID_BASE: Xid = 0x6000_0000;

/// First xid of the reconciler's strict deletes of stray rules.
pub const RESYNC_DELETE_XID_BASE: Xid = 0x7000_0000;

/// Transaction ids at or above this value belong to the RUM proxy, not the
/// controller: the proxy rejects a controller message carrying one with
/// `BAD_REQUEST` instead of misattributing its reply, and the reconciler
/// leaves rules whose cookie is in this range (the proxy's probe and catch
/// rules) alone.
pub const PROXY_XID_BASE: Xid = 0x8000_0000;

/// Width of the xid band each monitored switch's RUM technique numbers its
/// proxy messages in.
pub const TECHNIQUE_XID_BAND: Xid = 0x1_0000;

/// First xid of the RUM proxy's probe-catch rule installs; every technique
/// band lies below it.
pub const CATCH_XID_BASE: Xid = 0xF000_0000;

/// The largest fleet whose technique bands all end at or below
/// [`CATCH_XID_BASE`]: band `i` starts at `PROXY_XID_BASE + (i + 1) *
/// TECHNIQUE_XID_BAND`, so 28,671 switches.
pub const MAX_PROXY_SWITCHES: usize =
    ((CATCH_XID_BASE - PROXY_XID_BASE) / TECHNIQUE_XID_BAND) as usize - 1;

/// Takes `*next` and advances it inside `range`, from the range's last xid
/// back to its first: an allocator never leaves its row of the layout.
pub fn take_xid_in(next: &mut Xid, range: Range<Xid>) -> Xid {
    let xid = *next;
    *next = if xid + 1 < range.end {
        xid + 1
    } else {
        range.start
    };
    xid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_from_id() {
        let m = MacAddr::from_id(0x0102_0304_0506);
        assert_eq!(m.to_string(), "02:02:03:04:05:06");
        assert!(!m.is_multicast());
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn mac_from_id_is_deterministic_and_distinct() {
        assert_eq!(MacAddr::from_id(7), MacAddr::from_id(7));
        assert_ne!(MacAddr::from_id(7), MacAddr::from_id(8));
    }

    #[test]
    fn datapath_id_display() {
        let d = DatapathId::new(0xab);
        assert_eq!(d.to_string(), "0x00000000000000ab");
        assert_eq!(d.raw(), 0xab);
    }

    #[test]
    fn ipv4_u32_round_trip() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(u32_to_ipv4(ipv4_to_u32(a)), a);
        assert_eq!(ipv4_to_u32(Ipv4Addr::new(0, 0, 0, 1)), 1);
        assert_eq!(ipv4_to_u32(Ipv4Addr::new(192, 168, 1, 1)), 0xc0a8_0101);
    }

    #[test]
    fn take_xid_in_wraps_inside_its_range() {
        let range = CONTROLLER_BARRIER_XID_BASE..RESYNC_READBACK_XID_BASE;
        let mut next = RESYNC_READBACK_XID_BASE - 1;
        assert_eq!(take_xid_in(&mut next, range.clone()), range.end - 1);
        assert_eq!(take_xid_in(&mut next, range.clone()), range.start);
        assert_eq!(take_xid_in(&mut next, range.clone()), range.start + 1);
    }

    #[test]
    fn largest_fleet_keeps_every_band_below_the_catch_xids() {
        let band_end =
            |i: usize| PROXY_XID_BASE as u64 + (i as u64 + 2) * TECHNIQUE_XID_BAND as u64;
        assert_eq!(MAX_PROXY_SWITCHES, 28_671);
        assert_eq!(band_end(MAX_PROXY_SWITCHES - 1), CATCH_XID_BASE as u64);
        assert!(band_end(MAX_PROXY_SWITCHES) > CATCH_XID_BASE as u64);
    }
}
