//! Property-based tests over the public API: arbitrary traffic patterns
//! must arrive intact, in order, and with boundary semantics preserved,
//! over both stacks.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use sockets_over_emp::emp_apps::Testbed;
use sockets_over_emp::emp_proto::{self, EmpConfig};
use sockets_over_emp::hostsim::{CostModel, MemoryRegistry, VirtRange};
use sockets_over_emp::prelude::*;

/// Deterministic payload for (message index, length).
fn pattern(idx: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + idx * 7 + 3) % 251) as u8)
        .collect()
}

/// Send `writes` over a stream connection and return everything the
/// reader saw (concatenated), plus the reader's chunk count.
fn stream_echo(cfg: SubstrateConfig, writes: Vec<usize>) -> Vec<u8> {
    let total: usize = writes.iter().sum();
    let sim = Sim::new();
    let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let server = EmpSockets::new(cluster.nodes[1].endpoint(), cfg.clone());
    let client = EmpSockets::new(cluster.nodes[0].endpoint(), cfg);
    let addr = SockAddr::new(cluster.nodes[1].addr(), 80);
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut buf = Vec::with_capacity(total);
        while buf.len() < total {
            // Odd read sizes exercise partial reads across boundaries.
            let m = conn.read(ctx, 1 + (buf.len() % 4093))?.expect("data");
            if m.is_empty() {
                break;
            }
            buf.extend_from_slice(&m);
        }
        *got2.lock() = buf;
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        for (i, len) in writes.iter().enumerate() {
            conn.write(ctx, &pattern(i, *len))?.expect("send");
        }
        ctx.delay(SimDuration::from_millis(5))?;
        conn.close(ctx)?;
        Ok(())
    });
    sim.run_until(SimTime::from_secs(120));
    let v = got.lock().clone();
    v
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn stream_preserves_bytes_for_arbitrary_write_patterns(
        writes in prop::collection::vec(1usize..20_000, 1..8)
    ) {
        let expect: Vec<u8> = writes
            .iter()
            .enumerate()
            .flat_map(|(i, len)| pattern(i, *len))
            .collect();
        let got = stream_echo(SubstrateConfig::ds_da_uq(), writes);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn stream_with_tiny_credits_still_delivers(
        writes in prop::collection::vec(1usize..5_000, 1..6),
        credits in 1u32..4,
    ) {
        let expect: Vec<u8> = writes
            .iter()
            .enumerate()
            .flat_map(|(i, len)| pattern(i, *len))
            .collect();
        let got = stream_echo(SubstrateConfig::ds().with_credits(credits), writes);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn datagrams_preserve_boundaries_and_order(
        sizes in prop::collection::vec(1usize..40_000, 1..6)
    ) {
        let sim = Sim::new();
        let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
        let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::dg());
        let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::dg());
        let addr = SockAddr::new(cluster.nodes[1].addr(), 80);
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let n = sizes.len();
        let sizes2 = sizes.clone();

        sim.spawn("receiver", move |ctx| {
            let l = server.listen(ctx, 80, 4)?.expect("port free");
            let conn = l.accept(ctx)?.expect("connection");
            for _ in 0..n {
                let m = conn.read(ctx, 64_000)?.expect("message");
                got2.lock().push(m.to_vec());
            }
            Ok(())
        });
        sim.spawn("sender", move |ctx| {
            let conn = client.connect(ctx, addr)?.expect("connect");
            for (i, len) in sizes2.iter().enumerate() {
                conn.write(ctx, &pattern(i, *len))?.expect("send");
            }
            Ok(())
        });
        sim.run_until(SimTime::from_secs(120));
        let msgs = got.lock().clone();
        prop_assert_eq!(msgs.len(), sizes.len());
        for (i, (m, len)) in msgs.iter().zip(&sizes).enumerate() {
            prop_assert_eq!(m.len(), *len, "message {} length", i);
            prop_assert_eq!(m, &pattern(i, *len), "message {} content", i);
        }
    }

    #[test]
    fn kernel_tcp_preserves_bytes_for_arbitrary_write_patterns(
        writes in prop::collection::vec(1usize..20_000, 1..6)
    ) {
        let expect: Vec<u8> = writes
            .iter()
            .enumerate()
            .flat_map(|(i, len)| pattern(i, *len))
            .collect();
        let total: usize = writes.iter().sum();
        let tb = Testbed::kernel_default(2);
        let sim = Sim::new();
        let api_s = Arc::clone(&tb.nodes[1].api);
        let api_c = Arc::clone(&tb.nodes[0].api);
        let host = api_s.local_host();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);

        sim.spawn("reader", move |ctx| {
            let l = api_s.listen(ctx, 80, 4)?.expect("port free");
            let conn = l.accept(ctx)?.expect("connection");
            let mut buf = Vec::with_capacity(total);
            while buf.len() < total {
                let m = conn.read(ctx, 1 + (buf.len() % 2048))?.expect("data");
                if m.is_empty() {
                    break;
                }
                buf.extend_from_slice(&m);
            }
            *got2.lock() = buf;
            Ok(())
        });
        sim.spawn("writer", move |ctx| {
            let conn = api_c.connect(ctx, host, 80)?.expect("connect");
            for (i, len) in writes.iter().enumerate() {
                conn.write(ctx, &pattern(i, *len))?.expect("send");
            }
            conn.close(ctx)?;
            Ok(())
        });
        sim.run_until(SimTime::from_secs(120));
        let v = got.lock().clone();
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn pin_registry_never_repins_covered_ranges(
        ranges in prop::collection::vec((0u64..1_000_000, 1u64..100_000), 1..40)
    ) {
        let cost = CostModel::default();
        let mut reg = MemoryRegistry::new();
        for (addr, len) in &ranges {
            reg.register(VirtRange::new(*addr, *len), &cost);
        }
        // Second pass over the same ranges must be all cache hits.
        let misses_before = reg.cache_misses();
        for (addr, len) in &ranges {
            let (_, outcome) = reg.register(VirtRange::new(*addr, *len), &cost);
            prop_assert_eq!(outcome, sockets_over_emp::hostsim::PinOutcome::CacheHit);
        }
        prop_assert_eq!(reg.cache_misses(), misses_before);
        // Pinned pages never exceed the page-span of the union bound.
        let max_page = ranges
            .iter()
            .map(|(a, l)| (a + l - 1) / 4096)
            .max()
            .unwrap_or(0);
        prop_assert!(reg.pinned_pages() <= max_page + 1);
    }

    #[test]
    fn substrate_message_encoding_roundtrips(
        piggyback in any::<u16>(),
        seq in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..2048)
    ) {
        use sockets_over_emp::sockets_emp::proto::Msg;
        let m = Msg::Data {
            piggyback,
            seq,
            payload: bytes::Bytes::from(payload),
        };
        let enc = m.encode();
        let dec = Msg::decode(&enc.into()).expect("roundtrip");
        prop_assert_eq!(dec, m);
    }
}
