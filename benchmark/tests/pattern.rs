//! Seeded inputs: the key -> (length, pattern) mapping, the kv draws and
//! the stream pattern.

use emp_benchmark::pattern::*;
use emp_benchmark::workloads::kv::encode_request;

#[test]
fn value_length_is_a_fixed_class_of_the_key() {
    let mut counts = [0usize; 3];
    for k in 0..KV_KEYS {
        let len = kv_value_len(k);
        // Never a function of the seed.
        assert_eq!(kv_value(1, k).len(), len);
        assert_eq!(kv_value(2, k).len(), len);
        match len {
            64 => counts[0] += 1,
            512 => counts[1] += 1,
            4096 => counts[2] += 1,
            other => panic!("key {k}: unexpected length {other}"),
        }
    }
    // 60 % / 30 % / 10 % of the 256 keys, to the rounding of 256 / 10.
    assert_eq!(counts, [156, 75, 25]);
}

#[test]
fn value_pattern_is_fixed_per_key_and_seed() {
    assert_eq!(kv_value(7, 3), kv_value(7, 3));
    assert_ne!(kv_value(7, 3), kv_value(8, 3), "the seed sets the bytes");
    // Keys 3 and 13 share a length class but not a value.
    assert_eq!(kv_value_len(3), kv_value_len(13));
    assert_ne!(kv_value(7, 3), kv_value(7, 13));
}

#[test]
fn put_requests_carry_the_fixed_value() {
    let put = encode_request(KvOp::Put(9), 5);
    assert_eq!(put[0], 2);
    assert_eq!(u32::from_le_bytes(put[1..5].try_into().unwrap()), 9);
    assert_eq!(u32::from_le_bytes(put[5..9].try_into().unwrap()), 4096);
    assert_eq!(&put[9..], &kv_value(5, 9)[..]);
    let get = encode_request(KvOp::Get(9), 5);
    assert_eq!(get, [1, 9, 0, 0, 0, 0, 0, 0, 0]);
}

#[test]
fn draws_follow_the_seed_and_the_mix() {
    let draw = |seed, conn| {
        let mut rng = Rng::new(seed, conn);
        (0..10_000).map(|_| kv_draw(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(1, 0), draw(1, 0), "same seed, same sequence");
    assert_ne!(draw(1, 0), draw(2, 0), "another seed, another sequence");
    assert_ne!(draw(1, 0), draw(1, 1), "connections draw independently");
    let ops = draw(1, 0);
    let puts = ops.iter().filter(|o| matches!(o, KvOp::Put(_))).count();
    assert!((800..1200).contains(&puts), "about 10 % PUTs, got {puts}");
    assert!(ops.iter().all(|o| match o {
        KvOp::Get(k) | KvOp::Put(k) => *k < KV_KEYS,
    }));
}

#[test]
fn sub_seeds_differ_and_start_at_the_seed() {
    assert_eq!(sub_seed(42, 0), 42);
    let subs: Vec<u64> = (0..6).map(|i| sub_seed(42, i)).collect();
    let mut unique = subs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), subs.len());
    assert_ne!(sub_seed(42, 1), sub_seed(43, 1));
}

#[test]
fn stream_pattern_is_position_dependent() {
    let p = StreamPattern::new(3, 9);
    let off = StreamPattern::PERIOD as u64 - 10;
    // The stream is the block repeated; a window across the block boundary
    // is the block's end followed by its start.
    let block = bytes(3, 9, 0, StreamPattern::PERIOD);
    assert_eq!(
        p.at(off, 64),
        [&block[off as usize..], &block[..54]].concat()
    );
    let data = p.at(1000, 4096).to_vec();
    assert!(p.matches(1000, &data));
    assert!(!p.matches(1001, &data), "a shifted stream must not verify");
    let mut flipped = data.clone();
    flipped[4095] ^= 1;
    assert!(!p.matches(1000, &flipped), "one wrong bit must not verify");
    assert!(
        !p.matches(1000, &data[1..]),
        "a dropped byte must not verify"
    );
}
