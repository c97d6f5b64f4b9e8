//! Property-based tests of the §6.1 credit machinery under loss and
//! reordering, through the real NIC: for arbitrary send/recv sizes and
//! credit budgets each side keeps exactly its receive window of data
//! descriptors — posted, or with piggy-backing on consumed and waiting for
//! the send that returns their credits to re-arm them — the sender's
//! credit pool never exceeds N, and the delayed-ack accumulator never
//! reaches the return threshold without being flushed. On a lossless
//! fabric the same invariants are checked in every reachable state by the
//! explorer in `conn_core.rs`.

use std::sync::Arc;

use emp_proto::{build_cluster, EmpCluster, EmpConfig};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{FaultPlan, LinkConfig, Sim, SimTime, SwitchConfig};
use sockets_emp::{EmpSockets, SockAddr, SubstrateConfig};

fn cluster(faults: FaultPlan) -> EmpCluster {
    let sw = SwitchConfig {
        link: LinkConfig {
            faults,
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    build_cluster(2, EmpConfig::default(), sw)
}

/// Drive `writes` through a stream connection, auditing the §6.1
/// invariants after every operation on both sides. Returns the list of
/// violations (empty = all invariants held throughout).
fn audit_run(
    cfg: SubstrateConfig,
    faults: FaultPlan,
    writes: Vec<usize>,
    reads: Vec<usize>,
) -> Vec<String> {
    let n = cfg.credits;
    // Both configurations below delay acks (§6.3): half the window.
    let threshold = (n / 2).max(1);
    // The windows a side may hold: N, and under the default the initial
    // two (N itself when N is smaller).
    let windows = if cfg.piggyback_acks {
        vec![n.min(2), n]
    } else {
        vec![n]
    };
    let windows_w = windows.clone();
    let total: usize = writes.iter().sum();
    let sim = Sim::new();
    let cl = cluster(faults);
    let server = EmpSockets::new(cl.nodes[1].endpoint(), cfg.clone());
    let client = EmpSockets::new(cl.nodes[0].endpoint(), cfg);
    let addr = SockAddr::new(cl.nodes[1].addr(), 80);
    let violations = Arc::new(Mutex::new(Vec::new()));
    let (v_r, v_w) = (Arc::clone(&violations), Arc::clone(&violations));

    sim.spawn("reader", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = 0usize;
        let mut k = 0usize;
        while got < total {
            let max = reads[k % reads.len()];
            k += 1;
            let m = conn.read(ctx, max)?.expect("data");
            if m.is_empty() {
                v_r.lock().push(format!("premature EOF at byte {got}"));
                break;
            }
            got += m.len();
            let st = conn.debug_state();
            if !windows.contains(&st.window) {
                v_r.lock().push(format!(
                    "receive side has a window of {}, not one of {windows:?}",
                    st.window
                ));
            }
            if st.data_slots + st.rearms_pending != st.window as usize {
                v_r.lock().push(format!(
                    "receive side holds {} data descriptors and {} re-arms, not its window {}",
                    st.data_slots, st.rearms_pending, st.window
                ));
            }
            if st.consumed >= threshold {
                v_r.lock().push(format!(
                    "delayed-ack accumulator {} reached the threshold {threshold} unflushed",
                    st.consumed
                ));
            }
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let payload = vec![0xA5u8; 64 * 1024];
        for len in &writes {
            conn.write(ctx, &payload[..*len])?.expect("send");
            let st = conn.debug_state();
            if st.credits > n {
                v_w.lock().push(format!(
                    "send side holds {} credits, more than N={n}",
                    st.credits
                ));
            }
            if !windows_w.contains(&st.window) {
                v_w.lock().push(format!(
                    "send side has a window of {}, not one of {windows_w:?}",
                    st.window
                ));
            }
            if st.data_slots + st.rearms_pending != st.window as usize {
                v_w.lock().push(format!(
                    "send side holds {} data descriptors and {} re-arms, not its window {}",
                    st.data_slots, st.rearms_pending, st.window
                ));
            }
        }
        conn.close(ctx)?;
        Ok(())
    });
    sim.run_until(SimTime::from_secs(300));
    let v = violations.lock().clone();
    v
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case runs a full simulation
        ..ProptestConfig::default()
    })]

    #[test]
    fn credit_invariants_hold_under_loss_and_reordering(
        writes in prop::collection::vec(1usize..9_000, 1..8),
        reads in prop::collection::vec(1usize..4_096, 1..6),
        credits in 1u32..6,
        seed in any::<u64>(),
        piggyback in any::<bool>(),
    ) {
        let faults = FaultPlan::seeded(seed | 1)
            .with_drop_prob(0.1)
            .with_reorder(0.1, simnet::SimDuration::from_micros(60));
        let cfg = if piggyback {
            SubstrateConfig::default()
        } else {
            SubstrateConfig::ds_da_uq()
        };
        let cfg = cfg.with_credits(credits);
        let violations = audit_run(cfg, faults, writes, reads);
        prop_assert!(violations.is_empty(), "{}", violations.join("; "));
    }
}
