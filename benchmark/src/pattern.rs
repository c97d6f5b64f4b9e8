//! Seeded inputs and the byte patterns every payload is verified against.
//!
//! The workload seed reaches the system under test only through what is
//! generated here: the kv operation draws, the contents of every payload,
//! and the `FaultPlan` seed of the lossy workload.

/// SplitMix64: a tiny, well-mixed generator that is the same everywhere.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (connection index,
    /// workload tag, ...).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seed repeat `index` of a run under `seed` uses. Repeat 0 runs under
/// `seed` itself, so a lone repeat reproduces a run's first.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        seed
    } else {
        mix(seed ^ mix(index))
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `buf` with the pattern of `(seed, stream)` starting at byte
/// `offset` of that stream. Position-dependent, so a shifted, duplicated or
/// dropped byte anywhere in a stream fails verification.
pub fn fill(seed: u64, stream: u64, offset: u64, buf: &mut [u8]) {
    let base = mix(seed ^ mix(stream));
    for (i, b) in buf.iter_mut().enumerate() {
        let pos = offset + i as u64;
        // One mixed word per 8 bytes, one byte of it per position.
        let word = mix(base ^ (pos >> 3));
        *b = (word >> ((pos & 7) * 8)) as u8;
    }
}

/// The pattern bytes `offset..offset + len` of `(seed, stream)`.
pub fn bytes(seed: u64, stream: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(seed, stream, offset, &mut v);
    v
}

/// A stream pattern precomputed once so per-write generation and per-read
/// verification are slice copies and compares: a block of prime length
/// (writes never align with it), laid out twice so any window shorter than
/// the block is contiguous.
pub struct StreamPattern {
    doubled: Vec<u8>,
    period: usize,
}

impl StreamPattern {
    /// Block length: the largest prime below 128 KiB, longer than any write.
    pub const PERIOD: usize = 131_071;

    /// The pattern of `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> StreamPattern {
        let mut doubled = bytes(seed, stream, 0, Self::PERIOD);
        doubled.extend_from_within(..);
        StreamPattern {
            doubled,
            period: Self::PERIOD,
        }
    }

    /// The `len` bytes (`len` <= [`Self::PERIOD`]) at stream `offset`.
    pub fn at(&self, offset: u64, len: usize) -> &[u8] {
        assert!(len <= self.period, "window longer than the pattern block");
        let start = (offset % self.period as u64) as usize;
        &self.doubled[start..start + len]
    }

    /// Does `data` equal the stream's bytes at `offset`?
    pub fn matches(&self, offset: u64, data: &[u8]) -> bool {
        let mut off = offset;
        data.chunks(self.period).all(|c| {
            let ok = self.at(off, c.len()) == c;
            off += c.len() as u64;
            ok
        })
    }
}

/// Keys in the kv workloads.
pub const KV_KEYS: u32 = 256;

/// Value length of kv key `key`: a fixed class of the key alone (never of
/// the seed), 60 % of keys 64 B, 30 % 512 B, 10 % 4 KiB.
pub fn kv_value_len(key: u32) -> usize {
    match key % 10 {
        0..=5 => 64,
        6..=8 => 512,
        _ => 4096,
    }
}

/// The one value key `key` ever holds under `seed`: every PUT writes it and
/// every GET must return it, so any reply is byte-verifiable whatever the
/// interleaving of the connections.
pub fn kv_value(seed: u64, key: u32) -> Vec<u8> {
    bytes(
        seed,
        0x6b76_0000_0000 | u64::from(key),
        0,
        kv_value_len(key),
    )
}

/// One drawn kv operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read `key`.
    Get(u32),
    /// Write `key`'s fixed value.
    Put(u32),
}

/// Draw the next operation: 90 % GET / 10 % PUT over [`KV_KEYS`] keys.
pub fn kv_draw(rng: &mut Rng) -> KvOp {
    let key = rng.below(u64::from(KV_KEYS)) as u32;
    if rng.below(10) == 0 {
        KvOp::Put(key)
    } else {
        KvOp::Get(key)
    }
}
