//! Golden schedules: "same events, same order, same samples" as a test.
//!
//! Each scenario's triple — events executed, final simulated time, and a
//! hash of every counter, gauge, histogram bucket and sampled series point
//! in the telemetry registry — was recorded at commit 244eb3e, before the
//! event loop moved onto the process threads. An engine change that
//! reorders events, shifts a telemetry sample to another instant, or runs
//! one event more or fewer changes a triple. A change to a *model* (NIC
//! timing, protocol, substrate) legitimately moves them: re-record then,
//! and say why in the commit.
//!
//! The three original scenarios name the paper's `DS_DA_UQ` preset, so a
//! change of what a user gets by default leaves them alone; the fourth
//! (recorded when the default became the adaptive copy policy) runs on
//! `Testbed::emp_default` and pins the staging-deadline timer's place in
//! the schedule.
//!
//! `lossy_stream_1mib` was re-recorded when EMP's loss recovery became
//! selective repeat (acks carry a bitmap of held fragments, the sender
//! resends only holes) with an RTT-measured retransmission timeout: which
//! frames go back on the wire after a drop is the protocol model itself,
//! so that pin moved (7 820 → 7 586 events, 14.60 → 12.35 ms). The three
//! lossless pins never lose a frame and did not move.
//!
//! It was re-recorded again when fragments the receiver already holds left
//! EMP's in-flight window: `tx_window_frames` bounds what the receiving
//! NIC still has to process, and a held fragment waits only for the hole
//! below it, so the window stopped counting it and a hole no longer
//! throttles the frames behind it until it is repaired (7 586 → 7 535
//! events, 12.35 → 11.86 ms). Held fragments exist only after a loss, so
//! the three lossless pins did not move.
//!
//! `default_paired_writes` was re-recorded when EMP's own acks began to
//! ride on reverse data frames under `SubstrateConfig::piggyback_acks`
//! (DESIGN §8): the writer's NIC puts its acks for the reader's two
//! messages on its own data frames instead of in two ack frames (1 151 →
//! 1 145 events, same end time). Its flush and message counts did not
//! move.
//!
//! It was re-recorded again when, under the same switch, a consumed data
//! descriptor stopped being reposted behind a doorbell of its own at read
//! time and began to be re-armed by the send that returns its credit
//! (DESIGN §12): the reader's 40 reads no longer post anything, its two
//! FcAcks re-arm 16 descriptors each on its NIC's tx CPU, and the last 8
//! are freed at close (1 145 → 1 066 events, same end time). Its flush
//! and message counts did not move.
//!
//! It was re-recorded again when, under the same switch, each direction of
//! a stream connection began with a window of two data descriptors and
//! grew it to N the first time its sender used both (DESIGN §12): connect
//! and accept post two descriptors instead of 32 each and close unposts
//! that many fewer, the first pair's staged write is flushed at once on
//! credit pressure, and the read that consumes it sends one FcAck that
//! re-arms two descriptors and posts 30 new ones, paying their builds and
//! first-touch pins (1 066 → 1 027 events, 2.905 620 → 2.917 128 ms).
//! Its flush and message counts did not move.
//!
//! It was re-recorded again when, under the same switch, a fresh
//! connection's first small write began to ride inside its connection
//! request (DESIGN §12): one frame instead of two, and no data descriptor
//! consumed. The first pair's second write then finds nothing in flight
//! and goes at once, so the writer uses up its two-credit window, and the
//! reader grows it, one pair later; the reader's delayed FcAck
//! moves to the tenth pair, whose flush then waits for its held EMP ack,
//! so the eleventh pair's two writes share one message (1 027 → 993
//! events, 2.917 128 → 2.989 098 ms; 40 → 39 messages, 20 → 19 flushes,
//! one connection rider).
//! The three `DS_DA_UQ` pins leave the switch off and did not move.
//!
//! All four were re-recorded once when the engine stopped running events
//! that decide nothing (DESIGN §6): a NIC's tx CPU books each frame's task
//! and puts the frame on the wire at once, as of the task's end, instead
//! of scheduling an event to send it; the switch books its output port
//! when a frame arrives instead of two microseconds later; a receive's
//! second rx CPU task with no ack, nack or delivery to hand out is only
//! booked; and a message's retransmission timer is cancelled when its
//! final ack arrives, so it is skipped when popped. A delivery booked
//! ahead sorts among the events of its instant as of the instant it
//! stands for, so every event that still runs runs at the same instant
//! and in the same order, and every end time stayed where it was. The
//! event counts fell (10 401 → 8 231, 17 488 → 14 048, 7 535 → 4 727 and
//! 993 → 780) and every hash moved: the registry gained the
//! `simnet.events.<class>`, `simnet.events.cancelled` and
//! `simnet.thread_handoffs` counters, and a sampled series takes its point
//! at the first event past each sampling instant, which is now often a
//! later one. The traced build books exactly the same events, so each
//! pin holds in both build modes.

use std::sync::Arc;

use sockets_over_emp::emp_apps::{kvstore, pingpong, Testbed};
use sockets_over_emp::emp_proto::{self, EmpConfig};
use sockets_over_emp::prelude::*;
use sockets_over_emp::simnet::{FaultPlan, LinkConfig};

/// (`events_executed`, final `now()` in ns, FNV-1a of `deterministic_text`).
type Schedule = (u64, u64, u64);

fn schedule_of(sim: &Sim) -> Schedule {
    let reg = sim.telemetry();
    reg.sample_now(sim.now().nanos());
    let text = reg.snapshot().deterministic_text();
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (sim.events_executed(), sim.now().nanos(), hash)
}

fn ds_da_uq_testbed(n: usize) -> Testbed {
    let cfg = SubstrateConfig::ds_da_uq();
    Testbed::emp(n, EmpConfig::default(), cfg, "emp-ds-da-uq")
}

#[test]
fn pingpong_4b_x200() {
    let sim = Sim::new();
    let tb = ds_da_uq_testbed(2);
    pingpong::one_way_latency_us(&sim, &tb, 4, 200);
    // Two stack switches per round trip (each reply lands while the other
    // side's stack drives the loop) plus connection set-up and teardown;
    // the host-overhead delays in between cost none.
    assert!(sim.thread_handoffs() <= 450, "{}", sim.thread_handoffs());
    assert_eq!(
        schedule_of(&sim),
        (8_231, 15_389_847, 17_257_817_376_607_900_875)
    );
}

#[test]
fn kvstore_8_connections() {
    // 8 persistent connections from 3 client nodes into the event-loop
    // server; 40 ops each, 3 in 4 a GET, 64 B - 1 KiB values.
    let sim = Sim::new();
    let tb = ds_da_uq_testbed(4);
    kvstore::spawn_server_event_loop(&sim, &tb, 0, 8);
    for c in 0..8u32 {
        let api = Arc::clone(&tb.nodes[1 + c as usize % 3].api);
        let host = tb.nodes[0].api.local_host();
        sim.spawn(format!("kv-client-{c}"), move |ctx| {
            let conn = api.connect(ctx, host, kvstore::KV_PORT)?.expect("connect");
            let mut x = 0x9e37_79b9u32.wrapping_mul(c + 1);
            for op in 0..40u32 {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let key = (x >> 8) % 16;
                let put = op < 4 || x & 3 == 0;
                let value = vec![c as u8; 64 << ((x >> 16) % 5)];
                // Request: op, key, value length, value.
                let mut req = vec![if put { 2 } else { 1 }];
                req.extend_from_slice(&key.to_le_bytes());
                let body: &[u8] = if put { &value } else { &[] };
                req.extend_from_slice(&(body.len() as u32).to_le_bytes());
                req.extend_from_slice(body);
                conn.write(ctx, &req)?.expect("request");
                // Reply: status, value length, value.
                let hdr = conn.read_exact(ctx, 5)?.expect("reply").expect("header");
                let len = u32::from_le_bytes(hdr[1..5].try_into().expect("4 bytes"));
                if len > 0 {
                    conn.read_exact(ctx, len as usize)?
                        .expect("reply")
                        .expect("body");
                }
            }
            conn.close(ctx)
        });
    }
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        schedule_of(&sim),
        (14_048, 7_574_236, 15_787_784_223_297_617_736)
    );
}

#[test]
fn lossy_stream_1mib() {
    // 1 MiB one way in 16 KiB writes over links that drop 1 % and reorder
    // 2 % of frames (seeded): retransmission timers, reorder buffering and
    // acks all take part in the schedule.
    const TOTAL: usize = 1 << 20;
    let faults = FaultPlan::seeded(20_020_923)
        .with_drop_prob(0.01)
        .with_reorder(0.02, SimDuration::from_micros(80));
    let sw = SwitchConfig {
        link: LinkConfig {
            faults,
            ..LinkConfig::default()
        },
        ..SwitchConfig::default()
    };
    let sim = Sim::new();
    let cluster = emp_proto::build_cluster(2, EmpConfig::default(), sw);
    let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::ds_da_uq());
    let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cluster.nodes[1].addr(), 80);
    let byte = |i: usize| (i * 31 % 251) as u8;

    sim.spawn("reader", move |ctx| {
        let listener = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = listener.accept(ctx)?.expect("connection");
        let mut got = 0;
        while got < TOTAL {
            let chunk = conn.read(ctx, 8192)?.expect("data");
            assert!(!chunk.is_empty(), "premature EOF at byte {got}");
            for (i, b) in chunk.iter().enumerate() {
                assert_eq!(*b, byte(got + i), "byte {} wrong", got + i);
            }
            got += chunk.len();
        }
        assert!(conn.read(ctx, 8192)?.expect("eof").is_empty());
        conn.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");
        let data: Vec<u8> = (0..TOTAL).map(byte).collect();
        for chunk in data.chunks(16 << 10) {
            conn.write(ctx, chunk)?.expect("send");
        }
        conn.close(ctx)
    });
    sim.run();
    let lost: u64 = cluster
        .switch
        .port_stats()
        .iter()
        .map(|p| p.frames_lost())
        .sum();
    assert!(lost > 0, "the fault plan must have bitten");
    assert_eq!(
        schedule_of(&sim),
        (4_727, 11_862_215, 16_444_618_136_821_674_247)
    );
}

#[test]
fn default_paired_writes() {
    // The default configuration with nobody looking: twenty pairs of 64 B
    // writes 100 us apart into a reader parked in `read`. The first of a
    // pair finds the connection idle and is sent at once; the second is
    // staged behind it and sent by its staging deadline — a timer event,
    // not a process — and the writer pays for that flush at its next call.
    // The very first write rides in the connection request instead
    // (DESIGN §12), which is not a send in flight, so the first pair's
    // second write finds the connection idle and is sent at once too. The
    // reader's delayed FcAck then leaves on the tenth pair's first
    // message, so its NIC holds the ack of that pair's flush for reverse
    // data (DESIGN §8): the eleventh pair finds the flush unacknowledged
    // and stages both its writes into one message.
    const PAIRS: u64 = 20;
    let sim = Sim::new();
    let tb = Testbed::emp_default(2);
    let (server, client) = (Arc::clone(&tb.nodes[1].api), Arc::clone(&tb.nodes[0].api));
    let host = server.local_host();
    sim.spawn("reader", move |ctx| {
        let listener = server.listen(ctx, 80, 4)?.expect("port free");
        let conn = listener.accept(ctx)?.expect("connection");
        let mut got = 0;
        loop {
            let chunk = conn.read(ctx, 8192)?.expect("data");
            if chunk.is_empty() {
                break;
            }
            got += chunk.len() as u64;
        }
        assert_eq!(got, PAIRS * 128);
        conn.close(ctx)?;
        listener.close(ctx)
    });
    sim.spawn("writer", move |ctx| {
        let conn = client.connect(ctx, host, 80)?.expect("connect");
        for i in 0..PAIRS {
            conn.write(ctx, &[i as u8; 64])?.expect("sent at once");
            conn.write(ctx, &[i as u8; 64])?.expect("staged");
            ctx.delay(SimDuration::from_micros(100))?;
        }
        let stats = conn.substrate_stats().expect("substrate connection");
        assert_eq!(stats.conn_riders, 1, "the first write rode the request");
        assert_eq!(stats.writes_coalesced, PAIRS);
        assert_eq!(stats.coalesce_flushes, PAIRS - 1, "one pair shares one");
        assert_eq!(stats.msgs_sent, 2 * PAIRS - 1);
        conn.close(ctx)
    });
    sim.run();
    assert_eq!(
        schedule_of(&sim),
        (780, 2_989_098, 16_389_490_222_831_266_141)
    );
}
