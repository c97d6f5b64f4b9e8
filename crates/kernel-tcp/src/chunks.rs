//! Socket buffers as queues of shared byte chunks.
//!
//! Linux copies a stream's bytes twice: `write` copies them from the user
//! into the socket buffer, and `read` copies them out to the user. Between
//! the two, a segment is a reference into the sender's buffer, and the
//! receive queue holds the segments as they arrived. [`Chunks`] gives the
//! model the same shape: a send buffer is the chunks `write` copied in, a
//! segment is a slice of one of them, and a receive buffer is the segments
//! themselves. A range that spans chunks is the one case that copies: a
//! read over several segments, as Linux's does, and a segment straddling
//! two writes, which is cheaper to copy than to carry as two slices.

use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;

/// A byte queue held as shared chunks, front first.
#[derive(Default)]
pub(crate) struct Chunks {
    chunks: VecDeque<Bytes>,
    len: usize,
    /// Where the last [`Chunks::range`] found its first chunk: the chunk's
    /// index and the offset of its first byte. A sender asks for its
    /// segments in order, so the next lookup starts here rather than
    /// walking the send queue from its front.
    cursor: Cell<(usize, usize)>,
}

impl Chunks {
    /// Bytes queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `chunk`, sharing it.
    pub(crate) fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// The bytes `start..start + len`: a slice when one chunk holds them
    /// all, a copy when they span chunks.
    pub(crate) fn range(&self, start: usize, len: usize) -> Bytes {
        assert!(start + len <= self.len, "range past the queued bytes");
        if len == 0 {
            return Bytes::new();
        }
        // Skip the chunks wholly before `start`, from the cursor when it
        // lies at or before it.
        let (mut idx, mut offset) = self.cursor.get();
        if offset > start || idx >= self.chunks.len() {
            (idx, offset) = (0, 0);
        }
        while offset + self.chunks[idx].len() <= start {
            offset += self.chunks[idx].len();
            idx += 1;
        }
        self.cursor.set((idx, offset));
        let skip = start - offset;
        let mut parts = self.chunks.range(idx..);
        let first = parts.next().expect("start lies in a chunk");
        if skip + len <= first.len() {
            return first.slice(skip..skip + len);
        }
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&first[skip..]);
        for c in parts {
            let want = len - out.len();
            if want == 0 {
                break;
            }
            out.extend_from_slice(&c[..want.min(c.len())]);
        }
        Bytes::from(out)
    }

    /// Drop the first `n` bytes.
    pub(crate) fn drain(&mut self, n: usize) {
        assert!(n <= self.len, "drain past the queued bytes");
        self.len -= n;
        let mut left = n;
        let mut popped = 0;
        while left > 0 {
            let front = self.chunks.front_mut().expect("bytes are queued");
            if front.len() > left {
                let _ = front.split_to(left);
                break;
            }
            left -= front.len();
            self.chunks.pop_front();
            popped += 1;
        }
        // Offsets move down by `n`; a cursor on a chunk drained (even in
        // part) goes back to the front.
        let (idx, offset) = self.cursor.get();
        self.cursor.set(if idx >= popped && offset >= n {
            (idx - popped, offset - n)
        } else {
            (0, 0)
        });
    }

    /// Take the first `n` bytes: a slice when the front chunk holds them
    /// all, a copy when they span chunks.
    pub(crate) fn take(&mut self, n: usize) -> Bytes {
        let front = self.chunks.front().map_or(0, Bytes::len);
        let out = if front >= n && front > 0 {
            self.chunks[0].slice(..n)
        } else {
            self.range(0, n)
        };
        self.drain(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes of the given sizes, numbered through: byte `i` reads `i`.
    fn queue(sizes: &[usize]) -> Chunks {
        let mut q = Chunks::default();
        let mut next = 0usize;
        for &n in sizes {
            q.push(Bytes::from(
                (next..next + n).map(|i| i as u8).collect::<Vec<_>>(),
            ));
            next += n;
        }
        q
    }

    fn numbered(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(|i| i as u8).collect()
    }

    #[test]
    fn every_range_reads_the_bytes_across_chunk_boundaries() {
        let q = queue(&[5, 1, 7, 3]);
        assert_eq!(q.len(), 16);
        for start in 0..=16 {
            for len in 0..=16 - start {
                assert_eq!(
                    q.range(start, len)[..],
                    numbered(start, len),
                    "{start}+{len}"
                );
            }
        }
    }

    #[test]
    fn a_segment_within_one_write_is_a_slice_and_one_straddling_two_is_a_copy() {
        let q = queue(&[1460 * 2, 1000, 3000]);
        let within = q.range(1460, 1460);
        assert_eq!(
            within.as_ptr(),
            q.chunks[0][1460..].as_ptr(),
            "shared, not copied"
        );
        let straddle = q.range(2 * 1460 - 100, 1460);
        assert_eq!(straddle[..], numbered(2 * 1460 - 100, 1460));
        let owners = [&q.chunks[0], &q.chunks[1], &q.chunks[2]];
        assert!(
            owners
                .iter()
                .all(|c| !c.as_ptr_range().contains(&straddle.as_ptr())),
            "a straddling segment is a buffer of its own"
        );
    }

    #[test]
    fn ranges_in_send_order_match_after_drains() {
        // A sender's pattern: segments asked for in order while acks drain
        // the front, across chunks of every size.
        let mut q = queue(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let (mut acked, mut sent) = (0, 0);
        while acked < 31 {
            if sent < 31 {
                let len = 2.min(31 - sent);
                assert_eq!(
                    q.range(sent - acked, len)[..],
                    numbered(sent, len),
                    "{sent}"
                );
                sent += len;
            }
            if sent >= acked + 5 || sent == 31 {
                let n = 3.min(sent - acked);
                q.drain(n);
                acked += n;
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn acks_drain_whole_and_partial_chunks() {
        let mut q = queue(&[4, 4, 4]);
        q.drain(3);
        assert_eq!((q.len(), q.chunks.len()), (9, 3));
        assert_eq!(q.range(0, 9)[..], numbered(3, 9));
        q.drain(5);
        assert_eq!((q.len(), q.chunks.len()), (4, 1));
        assert_eq!(q.range(0, 4)[..], numbered(8, 4));
        q.drain(4);
        assert!(q.is_empty() && q.chunks.is_empty());
    }

    #[test]
    fn the_receive_queue_serves_partial_reads_in_order() {
        let mut q = queue(&[10, 6]);
        let front = q.chunks[0].as_ptr();
        // Within the front segment: a slice of it, the rest stays queued.
        let a = q.take(4);
        assert_eq!((a[..].to_vec(), a.as_ptr()), (numbered(0, 4), front));
        assert_eq!(q.len(), 12);
        // Exactly the rest of the front segment.
        assert_eq!(q.take(6)[..], numbered(4, 6));
        q.push(Bytes::from(numbered(16, 5)));
        // Across two segments: copied, and both consumed as far as read.
        assert_eq!(q.take(8)[..], numbered(10, 8));
        assert_eq!(q.len(), 3);
        assert_eq!(q.take(3)[..], numbered(18, 3));
        assert!(q.is_empty());
    }
}
