//! Ethernet frames and wire-size accounting.
//!
//! The simulator moves *logical* payloads (protocol structs behind an
//! `Rc<dyn Any>`) while accounting for exact on-wire sizes: preamble + SFD,
//! MAC header, FCS, minimum-frame padding and the inter-frame gap. Getting
//! these right matters — they are why raw Gigabit Ethernet tops out at
//! ~975 Mbps of payload for 1500-byte frames and far less for small ones.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// Maximum Ethernet payload (bytes) — the MTU. Upper layers fragment.
pub const MTU: usize = 1500;
/// Minimum Ethernet payload; shorter payloads are padded on the wire.
pub const MIN_PAYLOAD: usize = 46;
/// Destination + source MAC + EtherType.
pub const MAC_HEADER: usize = 14;
/// Frame check sequence.
pub const FCS: usize = 4;
/// Preamble + start-of-frame delimiter.
pub const PREAMBLE: usize = 8;
/// Inter-frame gap (expressed in byte times).
pub const INTERFRAME_GAP: usize = 12;

/// A MAC address, reduced to a small integer "station id" — which doubles as
/// the EMP *source index* used for tag matching.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub u16);

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mac:{}", self.0)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// EtherType discriminating the protocol family carried by a frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4, carried for the kernel TCP/UDP baseline.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// EMP frames (the experimental-use EtherType the real EMP firmware
    /// claims on the wire).
    pub const EMP: EtherType = EtherType(0x88B5);
}

/// A logical payload with a declared on-wire length.
///
/// Protocol crates put their own frame structs in here; the simulator only
/// needs the wire length for timing. Cloning is cheap (`Rc`), which is what
/// makes retransmission-from-record free of real copies. Building one is a
/// frame's one heap allocation.
#[derive(Clone)]
pub struct Payload {
    data: Rc<dyn Any>,
    wire_len: usize,
}

impl Payload {
    /// Wrap `data`, declaring that it serializes to `wire_len` bytes of
    /// Ethernet payload (protocol headers included, MAC header excluded).
    pub fn new<T: Any>(data: T, wire_len: usize) -> Self {
        assert!(
            wire_len <= MTU,
            "payload of {wire_len} bytes exceeds the {MTU}-byte MTU; fragment at a higher layer"
        );
        Payload {
            data: Rc::new(data),
            wire_len,
        }
    }

    /// Borrow the payload as a concrete protocol type.
    pub fn downcast<T: Any>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }

    /// Declared on-wire payload length in bytes.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.wire_len)
    }
}

/// An Ethernet frame in flight.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sending station.
    pub src: MacAddr,
    /// Destination station.
    pub dst: MacAddr,
    /// Protocol family of the payload.
    pub ethertype: EtherType,
    /// The logical payload.
    pub payload: Payload,
}

impl Frame {
    /// Bytes that occupy the wire for this frame, including preamble,
    /// header, payload (padded to the 46-byte minimum), FCS and the
    /// inter-frame gap. Multiply by 8 ns on Gigabit Ethernet for the
    /// serialization time.
    pub fn wire_bytes(&self) -> u64 {
        let padded = self.payload.wire_len().max(MIN_PAYLOAD);
        (PREAMBLE + MAC_HEADER + padded + FCS + INTERFRAME_GAP) as u64
    }

    /// Bits on the wire (convenience for link timing).
    pub fn wire_bits(&self) -> u64 {
        self.wire_bytes() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with(len: usize) -> Frame {
        Frame {
            src: MacAddr(1),
            dst: MacAddr(2),
            ethertype: EtherType::EMP,
            payload: Payload::new((), len),
        }
    }

    #[test]
    fn min_frame_padding_applies() {
        // A 4-byte payload still costs a full minimum frame:
        // 8 + 14 + 46 + 4 + 12 = 84 bytes.
        assert_eq!(frame_with(4).wire_bytes(), 84);
        assert_eq!(frame_with(0).wire_bytes(), 84);
        assert_eq!(frame_with(46).wire_bytes(), 84);
        assert_eq!(frame_with(47).wire_bytes(), 85);
    }

    #[test]
    fn full_mtu_frame_is_1538_bytes_on_wire() {
        assert_eq!(frame_with(MTU).wire_bytes(), 1538);
        // This is the number behind the classic ~975 Mbps payload ceiling:
        // 1500/1538 * 1000 Mbps.
        let payload_ceiling_mbps: f64 = 1500.0 / 1538.0 * 1000.0;
        assert!((payload_ceiling_mbps - 975.3).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 1500-byte MTU")]
    fn oversize_payload_rejected() {
        frame_with(MTU + 1);
    }

    #[test]
    fn payload_downcast_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Inner(u32);
        let p = Payload::new(Inner(7), 10);
        assert_eq!(p.downcast::<Inner>(), Some(&Inner(7)));
        assert_eq!(p.downcast::<String>(), None);
        assert_eq!(p.wire_len(), 10);
    }
}
