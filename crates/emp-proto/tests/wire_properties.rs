//! Property tests of EMP's fragmentation arithmetic.

use emp_proto::wire::{ack_fits, chunk_range, frames_for, Ack, EmpWire, Tag, ACK_WIRE, MAX_CHUNK};
use proptest::prelude::*;
use simnet::MTU;

proptest! {
    #[test]
    fn chunk_ranges_tile_any_message(len in 0usize..5_000_000) {
        let n = frames_for(len);
        prop_assert!(n >= 1);
        let mut covered = 0usize;
        for i in 0..n {
            let (a, b) = chunk_range(len, i);
            prop_assert_eq!(a, covered, "fragment {} starts at the seam", i);
            prop_assert!(b - a <= MAX_CHUNK);
            if i + 1 < n {
                prop_assert_eq!(b - a, MAX_CHUNK, "only the tail is short");
            }
            covered = b;
        }
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn every_data_frame_fits_the_mtu(
        len in 0usize..300_000,
        idx_seed in any::<u32>(),
        frames in any::<u32>(),
        sack in any::<u64>(),
    ) {
        let n = frames_for(len);
        let idx = idx_seed % n;
        let (a, b) = chunk_range(len, idx);
        // Without an ack, and with one wherever the NIC would attach it.
        let ack = Ack { msg_id: 2, frames, sack };
        for ack in [None, ack_fits(b - a).then_some(ack)] {
            let w = EmpWire::Data {
                msg_id: 1,
                tag: Tag(3),
                frame_idx: idx,
                num_frames: n,
                total_len: len as u32,
                no_uq: false,
                chunk: bytes::Bytes::from(vec![0u8; b - a]),
                ack,
            };
            prop_assert!(w.wire_len() <= MTU);
        }
        // Only frames with an ack's worth of room below the MTU carry one.
        prop_assert_eq!(ack_fits(b - a), b - a + ACK_WIRE <= MAX_CHUNK);
    }
}
