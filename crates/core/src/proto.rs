//! Substrate message formats, carried as EMP message payloads.
//!
//! Every substrate message starts with an 8-byte header (kind, flags,
//! a 16-bit argument, a 32-bit argument); data messages append the user
//! payload. Encoding is explicit — this is the real wire format of the
//! substrate, exercised by every benchmark byte.

use bytes::{BufMut, Bytes, BytesMut};

use emp_proto::MsgBuf;
use simnet::NetError;

use crate::config::SocketType;

/// Bytes of substrate header preceding any payload.
pub const HEADER: usize = 8;

/// Bytes preceding the user payload of a data message: the common header
/// plus the 32-bit per-connection sequence number that lets the receiver
/// restore message order when the fabric reorders (injected faults; the
/// paper's fabric never does).
pub const DATA_HEADER: usize = HEADER + 4;

/// Largest user payload of an eager datagram: one EMP frame's worth after
/// the substrate data header, so small datagrams stay single-frame (the
/// 28.5 µs path of §7.1).
pub const MAX_EAGER_DGRAM: usize = emp_proto::MAX_CHUNK - DATA_HEADER;

/// Bytes of a bare connection request: the common header plus port and
/// credit count.
pub const CONN_REQ: usize = HEADER + 4;

/// Largest first write that travels inside its connection request
/// (DESIGN §12): one EMP frame's payload less the request itself, so the
/// request stays single-frame. Derived, not a knob.
pub const FIRST_MAX: usize = emp_proto::MAX_CHUNK - CONN_REQ;

const KIND_DATA: u8 = 1;
const KIND_FCACK: u8 = 2;
const KIND_CONN_REQ: u8 = 3;
const KIND_RNDV_REQ: u8 = 4;
const KIND_RNDV_ACK: u8 = 5;
const KIND_CLOSE: u8 = 6;
const KIND_RNDV_NAK: u8 = 7;

/// `ConnReq` flags bit: the connecting side's data descriptors start at
/// `conn_core::INITIAL_WINDOW` and grow to N once (DESIGN §12). Bit 0
/// of the same byte is the socket type.
const CONN_GROWS_WINDOW: u8 = 0x02;
/// `FcAck` flags bit: this return grew the sender's window to N.
const FCACK_GREW_WINDOW: u8 = 0x01;

/// A substrate message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// User data with piggy-backed credit return (§6.1).
    Data {
        /// Credits returned to the receiver-of-this-message's send side.
        piggyback: u16,
        /// Per-connection, per-direction data-message sequence number.
        /// EMP preserves order *within* a message; under injected fabric
        /// reordering, consecutive messages on the same tag can still bind
        /// descriptors out of order, and this is what puts them back.
        seq: u32,
        /// The user bytes.
        payload: Bytes,
    },
    /// Explicit flow-control acknowledgment returning `credits` credits.
    FcAck {
        /// Credits returned.
        credits: u16,
        /// The return carries the descriptors that grew the receiver's
        /// window to N, and their credits.
        grew_window: bool,
    },
    /// Connection request (§5.1 "Data Message Exchange"): carries what
    /// TCP's SYN carries — who is connecting — plus the parameters the
    /// receive side needs to mirror.
    ConnReq {
        /// Client's connection id (names the connection in both
        /// directions' tags).
        cid: u16,
        /// Destination port.
        port: u16,
        /// Stream or datagram.
        socket_type: SocketType,
        /// Sender's credit count N.
        credits: u16,
        /// Sender's temp-buffer size.
        buf_size: u32,
        /// Both directions start with a window of
        /// `conn_core::INITIAL_WINDOW` data descriptors and grow it to
        /// N the first time their sender uses it up (the sender's §6.1
        /// switch is on); otherwise both post N at once.
        grows_window: bool,
        /// The connection's first write, at most [`FIRST_MAX`] bytes,
        /// riding the request as data message 0 (seq 0, no credit spent);
        /// empty for a bare request.
        first: Bytes,
    },
    /// Rendezvous request: "I want to send `size` bytes" (§5.2).
    RndvReq {
        /// Message size in bytes.
        size: u32,
    },
    /// Rendezvous grant: "descriptor posted, go ahead".
    RndvAck,
    /// Rendezvous refusal: the receiver's posted buffer is smaller than
    /// the announced message.
    RndvNak {
        /// What the receiver could take.
        limit: u32,
    },
    /// Orderly close notification (§5.3). Control rides a different lane
    /// than data, so under loss it can overtake in-flight (retransmitting)
    /// data messages; `final_seq` tells the receiver how many data
    /// messages the closer sent in total, so EOF is only surfaced once
    /// every one of them has been delivered.
    Close {
        /// Count of data messages sent on this connection before closing
        /// (i.e. one past the last sequence number used).
        final_seq: u32,
    },
}

impl Msg {
    /// Serialize to the wire form handed to EMP.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(HEADER);
        match self {
            Msg::Data {
                piggyback,
                seq,
                payload,
            } => {
                b.put_u8(KIND_DATA);
                b.put_u8(0);
                b.put_u16_le(*piggyback);
                b.put_u32_le(payload.len() as u32);
                b.put_u32_le(*seq);
                b.extend_from_slice(payload);
            }
            Msg::FcAck {
                credits,
                grew_window,
            } => {
                b.put_u8(KIND_FCACK);
                b.put_u8(if *grew_window { FCACK_GREW_WINDOW } else { 0 });
                b.put_u16_le(*credits);
                b.put_u32_le(0);
            }
            Msg::ConnReq {
                cid,
                port,
                socket_type,
                credits,
                buf_size,
                grows_window,
                first,
            } => {
                b.put_u8(KIND_CONN_REQ);
                let kind = match socket_type {
                    SocketType::Stream => 0,
                    SocketType::Datagram => 1,
                };
                b.put_u8(kind | if *grows_window { CONN_GROWS_WINDOW } else { 0 });
                b.put_u16_le(*cid);
                b.put_u32_le(*buf_size);
                b.put_u16_le(*port);
                b.put_u16_le(*credits);
                b.extend_from_slice(first);
            }
            Msg::RndvReq { size } => {
                b.put_u8(KIND_RNDV_REQ);
                b.put_u8(0);
                b.put_u16_le(0);
                b.put_u32_le(*size);
            }
            Msg::RndvAck => {
                b.put_u8(KIND_RNDV_ACK);
                b.put_u8(0);
                b.put_u16_le(0);
                b.put_u32_le(0);
            }
            Msg::RndvNak { limit } => {
                b.put_u8(KIND_RNDV_NAK);
                b.put_u8(0);
                b.put_u16_le(0);
                b.put_u32_le(*limit);
            }
            Msg::Close { final_seq } => {
                b.put_u8(KIND_CLOSE);
                b.put_u8(0);
                b.put_u16_le(0);
                b.put_u32_le(*final_seq);
            }
        }
        b.freeze()
    }

    /// The header bytes of a data message alone — the wire form of
    /// `Msg::Data` is exactly `data_header(..) ++ payload`, which lets the
    /// send path hand header and payload to the NIC as separate segments
    /// instead of assembling (copying) them into one buffer.
    pub fn data_header(piggyback: u16, seq: u32, payload_len: usize) -> Bytes {
        let mut b = [0u8; DATA_HEADER];
        b[0] = KIND_DATA;
        b[2..4].copy_from_slice(&piggyback.to_le_bytes());
        b[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        b[8..12].copy_from_slice(&seq.to_le_bytes());
        // Short enough for `Bytes` to hold inline: no allocation.
        Bytes::copy_from_slice(&b)
    }

    /// Parse a wire message, as EMP hands it over: the header is read out
    /// of it, and a payload is a slice of it (a copy only where it spans
    /// the two segments of a message sent as a pair).
    pub fn decode(raw: &MsgBuf) -> Result<Msg, NetError> {
        // The longest fixed header: a data message's, or a request's.
        let mut h = [0u8; DATA_HEADER];
        if raw.copy_prefix(&mut h) < HEADER {
            return Err(NetError::Protocol("message shorter than header"));
        }
        let kind = h[0];
        let arg16 = u16::from_le_bytes([h[2], h[3]]);
        let arg32 = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
        match kind {
            KIND_DATA => {
                let len = arg32 as usize;
                if raw.len() < DATA_HEADER + len {
                    return Err(NetError::Protocol("data message truncated"));
                }
                let seq = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
                Ok(Msg::Data {
                    piggyback: arg16,
                    seq,
                    payload: raw.slice(DATA_HEADER, DATA_HEADER + len),
                })
            }
            KIND_FCACK => Ok(Msg::FcAck {
                credits: arg16,
                grew_window: h[1] & FCACK_GREW_WINDOW != 0,
            }),
            KIND_CONN_REQ => {
                if raw.len() < CONN_REQ {
                    return Err(NetError::Protocol("conn request truncated"));
                }
                let port = u16::from_le_bytes([h[8], h[9]]);
                let credits = u16::from_le_bytes([h[10], h[11]]);
                Ok(Msg::ConnReq {
                    cid: arg16,
                    port,
                    socket_type: if h[1] & 1 == 0 {
                        SocketType::Stream
                    } else {
                        SocketType::Datagram
                    },
                    credits,
                    buf_size: arg32,
                    grows_window: h[1] & CONN_GROWS_WINDOW != 0,
                    first: raw.slice(CONN_REQ, raw.len()),
                })
            }
            KIND_RNDV_REQ => Ok(Msg::RndvReq { size: arg32 }),
            KIND_RNDV_ACK => Ok(Msg::RndvAck),
            KIND_RNDV_NAK => Ok(Msg::RndvNak { limit: arg32 }),
            KIND_CLOSE => Ok(Msg::Close { final_seq: arg32 }),
            _ => Err(NetError::Protocol("unknown message kind")),
        }
    }

    /// Total wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        HEADER
            + match self {
                Msg::Data { payload, .. } => 4 + payload.len(),
                Msg::ConnReq { first, .. } => 4 + first.len(),
                _ => 0,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Msg) {
        let enc = m.encode();
        assert_eq!(enc.len(), m.wire_len());
        let dec = Msg::decode(&enc.into()).expect("decodes");
        assert_eq!(dec, m);
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Msg::Data {
            piggyback: 7,
            seq: 42,
            payload: Bytes::from_static(b"payload bytes"),
        });
        roundtrip(Msg::Data {
            piggyback: 0,
            seq: u32::MAX,
            payload: Bytes::new(),
        });
        roundtrip(Msg::FcAck {
            credits: 16,
            grew_window: false,
        });
        roundtrip(Msg::FcAck {
            credits: 32,
            grew_window: true,
        });
        roundtrip(Msg::ConnReq {
            cid: 0x1234,
            port: 80,
            socket_type: SocketType::Stream,
            credits: 32,
            buf_size: 65536,
            grows_window: true,
            first: Bytes::new(),
        });
        roundtrip(Msg::ConnReq {
            cid: 1,
            port: 0xFFE,
            socket_type: SocketType::Datagram,
            credits: 4,
            buf_size: 1024,
            grows_window: false,
            first: Bytes::new(),
        });
        roundtrip(Msg::ConnReq {
            cid: 2,
            port: 7,
            socket_type: SocketType::Datagram,
            credits: 4,
            buf_size: 1024,
            grows_window: true,
            first: Bytes::new(),
        });
        roundtrip(Msg::ConnReq {
            cid: 3,
            port: 80,
            socket_type: SocketType::Stream,
            credits: 32,
            buf_size: 65536,
            grows_window: true,
            first: Bytes::from_static(b"GET / HTTP/1.0\r\n"),
        });
        roundtrip(Msg::RndvReq { size: 1 << 20 });
        roundtrip(Msg::RndvAck);
        roundtrip(Msg::RndvNak { limit: 4096 });
        roundtrip(Msg::Close { final_seq: 0 });
        roundtrip(Msg::Close { final_seq: 9_999 });
    }

    #[test]
    fn data_header_plus_payload_equals_encode() {
        for payload in [
            Bytes::new(),
            Bytes::from_static(b"x"),
            Bytes::from(vec![0xA5u8; 3000]),
        ] {
            let m = Msg::Data {
                piggyback: 9,
                seq: 77,
                payload: payload.clone(),
            };
            let header = Msg::data_header(9, 77, payload.len());
            let mut split = header.to_vec();
            split.extend_from_slice(&payload);
            assert_eq!(Bytes::from(split), m.encode());
            // Sent as the pair, it decodes to the very payload buffer.
            let pair = MsgBuf::pair(header, payload.clone());
            let Ok(Msg::Data { payload: got, .. }) = Msg::decode(&pair) else {
                panic!("a data message decodes");
            };
            assert_eq!(got, payload);
            assert!(payload.is_empty() || got.as_ptr() == payload.as_ptr());
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        assert!(Msg::decode(&Bytes::from_static(b"abc").into()).is_err());
        let mut enc = Msg::Data {
            piggyback: 0,
            seq: 3,
            payload: Bytes::from_static(b"0123456789"),
        }
        .encode()
        .to_vec();
        // Cut into the payload (header + seq survive, bytes do not).
        enc.truncate(DATA_HEADER + 4);
        assert!(Msg::decode(&Bytes::from(enc).into()).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let raw = Bytes::from(vec![99u8, 0, 0, 0, 0, 0, 0, 0]);
        assert!(Msg::decode(&raw.into()).is_err());
    }

    #[test]
    fn eager_dgram_fits_one_emp_frame() {
        let m = Msg::Data {
            piggyback: 0,
            seq: 0,
            payload: Bytes::from(vec![0u8; MAX_EAGER_DGRAM]),
        };
        assert_eq!(m.wire_len(), emp_proto::MAX_CHUNK);
    }

    #[test]
    fn request_with_first_max_fits_one_emp_frame() {
        let m = Msg::ConnReq {
            cid: 0,
            port: 80,
            socket_type: SocketType::Stream,
            credits: 32,
            buf_size: 65536,
            grows_window: true,
            first: Bytes::from(vec![7u8; FIRST_MAX]),
        };
        assert_eq!(m.wire_len(), emp_proto::MAX_CHUNK);
    }
}
