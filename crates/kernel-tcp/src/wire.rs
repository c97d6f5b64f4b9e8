//! IP, TCP and UDP wire formats.
//!
//! The traditional stack of Figure 3: applications sit on sockets, the
//! kernel implements TCP/UDP over IP over Ethernet. IP carries either whole
//! transport PDUs or fragments (UDP datagrams larger than the MTU really
//! fragment here; TCP never does because the MSS fits one frame).

use bytes::Bytes;
use simnet::{MacAddr, MTU};

/// IPv4 header bytes (no options).
pub const IP_HEADER: usize = 20;
/// TCP header bytes (no options).
pub const TCP_HEADER: usize = 20;
/// UDP header bytes.
pub const UDP_HEADER: usize = 8;
/// Largest IP payload per Ethernet frame.
pub const IP_MTU_PAYLOAD: usize = MTU - IP_HEADER;

/// A host/port pair — the sockets-level address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SockAddr {
    /// Station (host) address.
    pub host: MacAddr,
    /// Port number.
    pub port: u16,
}

impl SockAddr {
    /// Construct from host and port.
    pub fn new(host: MacAddr, port: u16) -> Self {
        SockAddr { host, port }
    }
}

impl std::fmt::Display for SockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// TCP flag bits.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TcpFlags {
    /// Connection request.
    pub syn: bool,
    /// Acknowledgment field valid (set on everything after the first SYN).
    pub ack: bool,
    /// Orderly close.
    pub fin: bool,
    /// Abort (sent to unserviced ports).
    pub rst: bool,
}

/// One TCP segment.
#[derive(Clone, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (byte-stream offset).
    pub seq: u64,
    /// Cumulative acknowledgment (next expected byte).
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: usize,
    /// Payload: a slice of the sender's queued writes.
    pub data: Bytes,
}

impl TcpSegment {
    /// On-wire IP payload length of this segment.
    pub fn wire_len(&self) -> usize {
        TCP_HEADER + self.data.len()
    }
}

/// One UDP datagram (pre-fragmentation).
#[derive(Clone, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub data: Bytes,
}

/// Transport PDU carried by IP.
#[derive(Clone, Debug)]
pub enum IpProto {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram fragment: `(datagram_id, frag_idx, frag_count, frag)`.
    /// Unfragmented datagrams have `frag_count == 1`.
    UdpFrag {
        /// Per-sender datagram id for reassembly.
        id: u64,
        /// Fragment index.
        idx: u32,
        /// Total fragments.
        count: u32,
        /// The datagram header+metadata (cloned into every fragment for
        /// simplicity; only the first fragment carries it on a real wire).
        dgram: UdpDatagram,
        /// This fragment's share of the payload in bytes.
        frag_len: usize,
    },
}

/// An IP packet: one Ethernet frame's worth.
#[derive(Clone, Debug)]
pub struct IpPacket {
    /// Source host.
    pub src: MacAddr,
    /// Destination host.
    pub dst: MacAddr,
    /// Transport payload.
    pub proto: IpProto,
}

impl IpPacket {
    /// On-wire Ethernet payload length.
    pub fn wire_len(&self) -> usize {
        IP_HEADER
            + match &self.proto {
                IpProto::Tcp(seg) => seg.wire_len(),
                IpProto::UdpFrag { idx, frag_len, .. } => {
                    // The UDP header rides in the first fragment only.
                    frag_len + if *idx == 0 { UDP_HEADER } else { 0 }
                }
            }
    }
}

/// Split a UDP payload of `len` bytes into per-fragment lengths. The first
/// fragment also carries the UDP header.
pub fn udp_fragments(len: usize) -> Vec<usize> {
    let first_cap = IP_MTU_PAYLOAD - UDP_HEADER;
    if len <= first_cap {
        return vec![len];
    }
    let mut frags = vec![first_cap];
    let mut rest = len - first_cap;
    while rest > 0 {
        let take = rest.min(IP_MTU_PAYLOAD);
        frags.push(take);
        rest -= take;
    }
    frags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_wire_len() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 8192,
            data: Bytes::from(vec![0u8; 1460]),
        };
        assert_eq!(seg.wire_len(), 1480);
        let pkt = IpPacket {
            src: MacAddr(0),
            dst: MacAddr(1),
            proto: IpProto::Tcp(seg),
        };
        assert_eq!(pkt.wire_len(), 1500); // exactly fills the MTU
    }

    #[test]
    fn udp_fragmentation_tiles() {
        assert_eq!(udp_fragments(0), vec![0]);
        assert_eq!(udp_fragments(1472), vec![1472]);
        let frags = udp_fragments(4000);
        assert_eq!(frags.iter().sum::<usize>(), 4000);
        assert_eq!(frags[0], 1472);
        assert!(frags[1..].iter().all(|&f| f <= IP_MTU_PAYLOAD));
    }

    #[test]
    fn udp_fragment_wire_len_fits_mtu() {
        for (idx, &frag_len) in udp_fragments(10_000).iter().enumerate() {
            let pkt = IpPacket {
                src: MacAddr(0),
                dst: MacAddr(1),
                proto: IpProto::UdpFrag {
                    id: 1,
                    idx: idx as u32,
                    count: 8,
                    dgram: UdpDatagram {
                        src_port: 1,
                        dst_port: 2,
                        data: Bytes::new(),
                    },
                    frag_len,
                },
            };
            assert!(pkt.wire_len() <= MTU, "fragment {idx} exceeds MTU");
        }
    }
}
