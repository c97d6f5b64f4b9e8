//! NIC-level ack piggy-backing (DESIGN §8): a short message's final ack
//! may wait up to half an SRTT to ride on a data frame going back to its
//! sender, when the conversation with that peer alternates.
//!
//! Request/response traffic must lose nearly every standalone ack and
//! still complete every send; a one-way stream has nothing to ride on and
//! must run exactly as with the switch off; a lost carrier frame must be
//! recovered like any lost ack; and a NIC left switched off (as every
//! paper preset leaves it) never holds an ack.

use bytes::Bytes;
use emp_proto::{build_cluster, EmpCluster, EmpConfig, EmpStats, Tag};
use hostsim::VirtRange;
use parking_lot::Mutex;
use simnet::{FaultPlan, LinkConfig, Sim, SimAccess, SimDuration, SwitchConfig};
use std::sync::Arc;

const REQ: Tag = Tag(1);
const RESP: Tag = Tag(2);

fn buf(slot: u64, len: usize) -> VirtRange {
    VirtRange::new(0x7_0000_0000 + slot * 0x100_0000, len.max(1) as u64)
}

fn cluster(sw: SwitchConfig, piggyback: bool) -> EmpCluster {
    let cl = build_cluster(2, EmpConfig::default(), sw);
    for node in &cl.nodes {
        node.nic.set_piggyback_acks(piggyback);
    }
    cl
}

/// The request's bytes for round `i`: varied length and content.
fn request(i: usize) -> Vec<u8> {
    (0..8 + i % 5 * 300).map(|j| (i * 31 + j) as u8).collect()
}

/// The response to `req`: every byte transformed, and longer.
fn response(req: &[u8]) -> Vec<u8> {
    let mut r: Vec<u8> = req.iter().map(|b| b.wrapping_mul(3) ^ 0x5a).collect();
    r.extend_from_slice(b"-ok");
    r
}

/// `rounds` request/response exchanges from node 0 to a server on node 1,
/// every byte checked at both ends. Returns both NICs' stats.
fn request_response(sw: SwitchConfig, piggyback: bool, rounds: usize) -> [EmpStats; 2] {
    let sim = Sim::new();
    let cl = cluster(sw, piggyback);
    let (client, server) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let (client_addr, server_addr) = (client.addr(), server.addr());
    let served = Arc::new(Mutex::new(0usize));
    let answered = Arc::new(Mutex::new(0usize));

    let done = Arc::clone(&served);
    sim.spawn("server", move |ctx| {
        let mut sends = Vec::new();
        let mut next = server.post_recv(ctx, REQ, None, 4096, buf(1, 4096))?;
        for i in 0..rounds {
            let req = server.wait_recv(ctx, &next)?.expect("request");
            assert_eq!(
                &req.data.to_bytes()[..],
                &request(i)[..],
                "request {i} exact"
            );
            // The next descriptor goes down before the response, as a
            // server's would: a request never finds the NIC unready.
            if i + 1 < rounds {
                next = server.post_recv(ctx, REQ, None, 4096, buf(1, 4096))?;
            }
            let resp = Bytes::from(response(&req.data.to_bytes()));
            sends.push(server.post_send(ctx, client_addr, RESP, resp, buf(2, 4096))?);
        }
        assert!(server.wait_sends(ctx, &sends)?, "every response acked");
        *done.lock() = rounds;
        Ok(())
    });
    let done = Arc::clone(&answered);
    sim.spawn("client", move |ctx| {
        ctx.delay(SimDuration::from_micros(10))?;
        for i in 0..rounds {
            let h = client.post_recv(ctx, RESP, None, 4096, buf(3, 4096))?;
            let req = request(i);
            let s = client.post_send(
                ctx,
                server_addr,
                REQ,
                Bytes::from(req.clone()),
                buf(4, 4096),
            )?;
            let resp = client.wait_recv(ctx, &h)?.expect("response");
            assert_eq!(
                &resp.data.to_bytes()[..],
                &response(&req)[..],
                "response {i} exact"
            );
            assert!(client.wait_send(ctx, &s)?, "request {i} acked");
        }
        *done.lock() = rounds;
        Ok(())
    });
    sim.run();
    assert_eq!(*served.lock(), rounds, "server finished");
    assert_eq!(*answered.lock(), rounds, "client finished");
    [cl.nodes[0].nic.stats(), cl.nodes[1].nic.stats()]
}

fn sum(stats: &[EmpStats; 2], f: fn(&EmpStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

#[test]
fn request_response_acks_ride_on_the_reverse_data() {
    let rounds = 40;
    let stats = request_response(SwitchConfig::default(), true, rounds);
    let msgs = sum(&stats, |s| s.msgs_received);
    assert_eq!(msgs, 2 * rounds as u64);
    assert_eq!(sum(&stats, |s| s.msgs_sent), msgs, "every send completes");
    assert_eq!(sum(&stats, |s| s.sends_failed), 0);
    assert_eq!(sum(&stats, |s| s.frames_retransmitted), 0, "lossless");
    let standalone = sum(&stats, |s| s.acks_sent) as f64 / msgs as f64;
    assert!(
        standalone < 0.3,
        "{standalone:.3} standalone acks per message"
    );
    // Every attached ack was consumed by the peer, on both sides.
    for (i, s) in stats.iter().enumerate() {
        let peer = &stats[1 - i];
        assert!(s.acks_piggybacked > 0, "node {i} attached no ack");
        assert_eq!(s.acks_piggybacked, peer.acks_piggybacked_received);
    }
}

#[test]
fn a_one_way_stream_holds_nothing_and_keeps_its_schedule() {
    // Forty 64-byte messages, pipelined, then one 10 KiB message: each
    // send's completion instant, with the switch on and off.
    fn completions(piggyback: bool) -> (Vec<u64>, [EmpStats; 2]) {
        let sim = Sim::new();
        let cl = cluster(SwitchConfig::default(), piggyback);
        let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
        let dst = b.addr();
        let times = Arc::new(Mutex::new(Vec::new()));
        let sizes: Vec<usize> = (0..40).map(|_| 64).chain([10 * 1024]).collect();
        let n = sizes.len();
        sim.spawn("receiver", move |ctx| {
            let hs: Vec<_> = (0..n)
                .map(|_| b.post_recv(ctx, REQ, None, 16 * 1024, buf(1, 16 * 1024)))
                .collect::<Result<_, _>>()?;
            for h in &hs {
                b.wait_recv(ctx, h)?.expect("data");
            }
            Ok(())
        });
        let t = Arc::clone(&times);
        sim.spawn("sender", move |ctx| {
            ctx.delay(SimDuration::from_micros(200))?;
            let hs: Vec<_> = sizes
                .iter()
                .map(|&len| a.post_send(ctx, dst, REQ, Bytes::from(vec![9u8; len]), buf(0, len)))
                .collect::<Result<_, _>>()?;
            for h in &hs {
                assert!(a.wait_send(ctx, h)?);
                t.lock().push(ctx.now().nanos());
            }
            Ok(())
        });
        sim.run();
        let stats = [cl.nodes[0].nic.stats(), cl.nodes[1].nic.stats()];
        let times = times.lock().clone();
        (times, stats)
    }
    let (on, stats) = completions(true);
    let (off, _) = completions(false);
    assert_eq!(on.len(), 41);
    assert_eq!(on, off, "completion instants move with the switch");
    assert_eq!(sum(&stats, |s| s.acks_held), 0, "nothing to ride on");
    assert_eq!(sum(&stats, |s| s.acks_piggybacked), 0);
}

#[test]
fn a_lost_carrier_frame_is_recovered_like_a_lost_ack() {
    // Every 7th frame on every link is lost. Almost every data frame
    // carries an ack, so some carriers are among them: their acks never
    // arrive, and the acked messages' senders time out and resend; the
    // receivers re-ack the duplicates. Every byte must still arrive.
    let sw = SwitchConfig {
        link: LinkConfig {
            faults: FaultPlan::drop_every(7),
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    let stats = request_response(sw, true, 40);
    assert_eq!(sum(&stats, |s| s.sends_failed), 0);
    assert!(
        sum(&stats, |s| s.frames_retransmitted) > 0,
        "frames were lost"
    );
    let attached = sum(&stats, |s| s.acks_piggybacked);
    let arrived = sum(&stats, |s| s.acks_piggybacked_received);
    assert!(
        arrived < attached,
        "no carrier frame was lost ({arrived} of {attached} attached acks arrived)"
    );
}

#[test]
fn a_nic_left_off_never_holds() {
    let stats = request_response(SwitchConfig::default(), false, 40);
    assert_eq!(sum(&stats, |s| s.acks_held), 0);
    assert_eq!(sum(&stats, |s| s.acks_piggybacked), 0);
    // One standalone ack per message, as before piggy-backing existed.
    assert_eq!(
        sum(&stats, |s| s.acks_sent),
        sum(&stats, |s| s.msgs_received)
    );
}
