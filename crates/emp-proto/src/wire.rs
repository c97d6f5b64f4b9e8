//! EMP wire format.
//!
//! EMP fragments messages into Ethernet frames. Every data frame carries a
//! compact header (message id, 16-bit tag, frame index/count, total length)
//! used by the receiving NIC for tag matching and reassembly; an
//! acknowledgment carries the cumulative frame count received and a
//! selective-ack bitmap, in a frame of its own or attached to a data frame
//! going the other way (DESIGN §8). Header sizes are charged on the wire,
//! so small-message latency and large-message goodput both see them.

use bytes::Bytes;
use simnet::{MacAddr, MTU};

/// EMP's 16-bit matching tag (the paper: "an arbitrary user-provided 16-bit
/// tag" matched together with the sender's source index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u16);

/// Bytes of EMP header in every data frame (msg id, tag, frame idx/count,
/// total length, flags).
pub const DATA_HEADER: usize = 20;
/// On-wire payload size of an acknowledgment frame (msg id, count, bitmap).
pub const ACK_WIRE: usize = 20;
/// Maximum message bytes carried per frame.
pub const MAX_CHUNK: usize = MTU - DATA_HEADER;

/// True when a data frame carrying `chunk_len` message bytes has room
/// under the MTU for an attached [`Ack`].
pub fn ack_fits(chunk_len: usize) -> bool {
    DATA_HEADER + chunk_len + ACK_WIRE <= MTU
}

/// Number of frames needed for a message of `len` bytes (at least one; a
/// zero-length message still sends a header-only frame).
pub fn frames_for(len: usize) -> u32 {
    if len == 0 {
        1
    } else {
        len.div_ceil(MAX_CHUNK) as u32
    }
}

/// The byte range of the message carried by frame `idx`.
pub fn chunk_range(len: usize, idx: u32) -> (usize, usize) {
    let start = (idx as usize) * MAX_CHUNK;
    let end = (start + MAX_CHUNK).min(len);
    (start.min(len), end)
}

/// Cumulative acknowledgment: "I have the first `frames` fragments of your
/// message `msg_id`, and these after them". Generated and consumed entirely
/// by the NICs; hosts never see these (paper §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledged message (sender-local id, scoped by the
    /// acknowledging NIC's address).
    pub msg_id: u64,
    /// Cumulative fragments received.
    pub frames: u32,
    /// Selective ack: bit `i` set when fragment `frames + 1 + i` is held
    /// (fragment `frames` is the first missing one, so has no bit).
    pub sack: u64,
}

/// An EMP frame as it crosses the wire.
#[derive(Clone, Debug)]
pub enum EmpWire {
    /// One fragment of a message.
    Data {
        /// Sender-local message identifier.
        msg_id: u64,
        /// Matching tag.
        tag: Tag,
        /// Fragment index, `0..num_frames`.
        frame_idx: u32,
        /// Total fragments in the message.
        num_frames: u32,
        /// Total message length in bytes.
        total_len: u32,
        /// Header flag: this message must match a pre-posted descriptor
        /// — it may never park in the unexpected queue. An unmatched
        /// `no_uq` message is refused with an explicit [`EmpWire::Nack`]
        /// instead, which is how a connection request to a full backlog
        /// (or no listener at all) fails deterministically rather than
        /// camping in the receiver's pool.
        no_uq: bool,
        /// The fragment's bytes (a cheap slice of the message buffer —
        /// EMP is zero-copy, and so is the simulation of it).
        chunk: Bytes,
        /// An acknowledgment for a message going the other way, riding
        /// this frame instead of a frame of its own; only where
        /// [`ack_fits`] the chunk.
        ack: Option<Ack>,
    },
    /// A standalone acknowledgment.
    Ack(Ack),
    /// Negative acknowledgment: the receiving NIC could not take the
    /// message. Generated and consumed by the NICs, like [`EmpWire::Ack`].
    Nack {
        /// The rejected message (sender-local id).
        msg_id: u64,
        /// `true`: transient exhaustion (rx ring / unexpected queue full)
        /// — the sender should back off and retransmit. `false`: the
        /// message was *refused* (a `no_uq` message matched nothing) —
        /// the sender must fail the send immediately.
        busy: bool,
    },
}

impl EmpWire {
    /// On-wire Ethernet payload size of this frame.
    pub fn wire_len(&self) -> usize {
        match self {
            EmpWire::Data { chunk, ack, .. } => {
                DATA_HEADER + chunk.len() + ack.map_or(0, |_| ACK_WIRE)
            }
            EmpWire::Ack(_) | EmpWire::Nack { .. } => ACK_WIRE,
        }
    }
}

/// A fully reassembled incoming message, as the host sees it.
#[derive(Clone, Debug)]
pub struct RecvMsg {
    /// Sending station.
    pub src: MacAddr,
    /// Tag it matched.
    pub tag: Tag,
    /// Message contents.
    pub data: Bytes,
    /// True if it arrived through the unexpected queue (and therefore cost
    /// an extra host copy when claimed).
    pub from_unexpected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation_counts() {
        assert_eq!(frames_for(0), 1);
        assert_eq!(frames_for(1), 1);
        assert_eq!(frames_for(MAX_CHUNK), 1);
        assert_eq!(frames_for(MAX_CHUNK + 1), 2);
        assert_eq!(frames_for(10 * MAX_CHUNK), 10);
    }

    #[test]
    fn chunk_ranges_tile_the_message() {
        let len = 3 * MAX_CHUNK + 17;
        let n = frames_for(len);
        assert_eq!(n, 4);
        let mut covered = 0;
        for i in 0..n {
            let (a, b) = chunk_range(len, i);
            assert_eq!(a, covered);
            covered = b;
        }
        assert_eq!(covered, len);
    }

    #[test]
    fn zero_length_message_is_one_empty_frame() {
        let (a, b) = chunk_range(0, 0);
        assert_eq!((a, b), (0, 0));
        let w = EmpWire::Data {
            msg_id: 1,
            tag: Tag(0),
            frame_idx: 0,
            num_frames: 1,
            total_len: 0,
            no_uq: false,
            chunk: Bytes::new(),
            ack: None,
        };
        assert_eq!(w.wire_len(), DATA_HEADER);
    }

    #[test]
    fn wire_lengths() {
        let w = EmpWire::Data {
            msg_id: 1,
            tag: Tag(7),
            frame_idx: 0,
            num_frames: 1,
            total_len: 100,
            no_uq: false,
            chunk: Bytes::from(vec![0u8; 100]),
            ack: None,
        };
        assert_eq!(w.wire_len(), 120);
        let ack = Ack {
            msg_id: 1,
            frames: 1,
            sack: u64::MAX,
        };
        assert_eq!(EmpWire::Ack(ack).wire_len(), ACK_WIRE);
        let carrier = EmpWire::Data {
            msg_id: 2,
            tag: Tag(7),
            frame_idx: 0,
            num_frames: 1,
            total_len: 100,
            no_uq: false,
            chunk: Bytes::from(vec![0u8; 100]),
            ack: Some(ack),
        };
        assert_eq!(
            carrier.wire_len(),
            120 + ACK_WIRE,
            "attached ack on the wire"
        );
        // A max chunk exactly fills the MTU.
        let w = EmpWire::Data {
            msg_id: 1,
            tag: Tag(7),
            frame_idx: 0,
            num_frames: 1,
            total_len: MAX_CHUNK as u32,
            no_uq: false,
            chunk: Bytes::from(vec![0u8; MAX_CHUNK]),
            ack: None,
        };
        assert_eq!(w.wire_len(), MTU);
        assert!(!ack_fits(MAX_CHUNK), "a full frame carries no ack");
        assert!(ack_fits(MAX_CHUNK - ACK_WIRE));
    }
}
