//! Property-based tests of the completion-ring invariants: arbitrary
//! push/submit/reap schedules over a live 2-node cluster — each schedule
//! on the substrate and on the kernel baseline — must never lose or
//! double a completion, must round-trip every `user_data`, must never
//! alias one registered buffer across two in-flight ops, and must
//! surface queue overflow as typed push errors rather than dropped
//! completions.
//!
//! The test mirrors `RingCore`'s admission rules in a tiny model and
//! asserts the engine agrees with the model on every push — including
//! which typed error fires when several conditions hold at once.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use sockets_over_emp::emp_apps::{ring, Testbed};
use sockets_over_emp::prelude::*;
use sockets_over_emp::simnet::ring::{CqeResult, RingConfig, RingError, RingOp, Sqe};
use sockets_over_emp::simnet::Completion as SimCompletion;
use sockets_over_emp::simnet::NetError;

/// One step of a random ring schedule. The connection under test is
/// always ring id 0; buffer ids may point past the pool (`BadBuf`) and
/// write lengths past the buffer (`BadLen`) on purpose.
#[derive(Clone, Copy, Debug)]
enum Step {
    PushRead { buf: u32 },
    PushWrite { buf: u32, len: u32 },
    Submit,
    Reap(usize),
    Delay,
}

/// Ring geometry under test (kept tiny so overflow paths are routine).
#[derive(Clone, Copy, Debug)]
struct Geom {
    sq_depth: usize,
    cq_depth: usize,
    buf_count: usize,
    buf_size: usize,
}

/// Decode one sampled `(kind, buf, len)` tuple into a schedule step.
/// Buffer ids range over the pool plus two out-of-range ids and lengths
/// over the buffer size plus a margin, so `BadBuf`/`BadLen` pushes are
/// part of every schedule's vocabulary.
fn decode_step(g: Geom, kind: u8, b: u32, l: u32) -> Step {
    let buf = b % (g.buf_count as u32 + 2);
    let len = 1 + l % (g.buf_size as u32 + 16);
    match kind {
        0..=2 => Step::PushRead { buf },
        3..=5 => Step::PushWrite { buf, len },
        6..=8 => Step::Submit,
        9..=10 => Step::Reap(1 + (l as usize % 7)),
        _ => Step::Delay,
    }
}

/// The model's mirror of `RingCore::push` admission, in the engine's
/// documented validation order.
struct Model {
    g: Geom,
    sq: usize,
    /// Admitted-but-unreaped op count (SQ + in flight + unreaped CQ).
    committed: usize,
    /// Buffers attached to in-flight ops, by id.
    attached: BTreeSet<u32>,
    /// user_data -> attached buffer for every admitted op.
    buf_of: BTreeMap<u64, Option<u32>>,
    /// user_data values seen in reaped completions (each exactly once).
    seen: BTreeSet<u64>,
    next_ud: u64,
}

impl Model {
    fn new(g: Geom) -> Self {
        Model {
            g,
            sq: 0,
            committed: 0,
            attached: BTreeSet::new(),
            buf_of: BTreeMap::new(),
            seen: BTreeSet::new(),
            next_ud: 0,
        }
    }

    /// What must `push` return for `op`, given the model state?
    fn expect(&self, op: RingOp) -> Result<(), RingError> {
        if self.sq >= self.g.sq_depth {
            return Err(RingError::SqFull);
        }
        if self.committed >= self.g.cq_depth {
            return Err(RingError::CqOverflow);
        }
        let (buf, len) = match op {
            RingOp::Read { buf, .. } => (buf, None),
            RingOp::Write { buf, len, .. } => (buf, Some(len)),
            RingOp::Accept { .. } | RingOp::Close { .. } => return Ok(()),
        };
        if buf as usize >= self.g.buf_count {
            return Err(RingError::BadBuf(buf));
        }
        if let Some(len) = len {
            if len as usize > self.g.buf_size {
                return Err(RingError::BadLen { buf, len });
            }
        }
        if self.attached.contains(&buf) {
            return Err(RingError::BufInFlight(buf));
        }
        Ok(())
    }

    fn admit(&mut self, ud: u64, op: RingOp) {
        self.sq += 1;
        self.committed += 1;
        let buf = op.buf();
        if let Some(b) = buf {
            self.attached.insert(b);
        }
        self.buf_of.insert(ud, buf);
    }
}

const CLIENT_TOTAL: usize = 2048;

/// Run one random schedule against a live ring on `tb` and check every
/// invariant along the way. Panics (with the violated invariant) on
/// failure.
fn run_schedule(tb: &Testbed, g: Geom, steps: Vec<Step>) {
    let sim = Sim::new();
    let server = Arc::clone(&tb.nodes[1].api);
    let client = Arc::clone(&tb.nodes[0].api);
    let host = server.local_host();
    let done = SimCompletion::new();
    let d2 = done.clone();
    let failure: Arc<Mutex<Option<String>>> = Arc::default();
    let f2 = Arc::clone(&failure);

    sim.spawn("ring-server", move |ctx| {
        let cfg = RingConfig {
            sq_depth: g.sq_depth,
            cq_depth: g.cq_depth,
            buf_count: g.buf_count,
            buf_size: g.buf_size,
            max_registered_bytes: None,
        };
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        let mut ring = ring(server.as_ref(), cfg, "prop");
        ring.add_listener(l);
        let mut m = Model::new(g);

        // A macro instead of a closure so the checks can borrow both the
        // ring and the model without fighting the borrow checker. A
        // failed check records the message and ends the process cleanly
        // (panicking inside a sim process would poison the scheduler).
        macro_rules! check {
            ($cond:expr, $($msg:tt)*) => {
                if !$cond {
                    *f2.lock() = Some(format!($($msg)*));
                    d2.complete(ctx);
                    return Ok(());
                }
            };
        }

        // Accept is op 0; the client connects immediately.
        let ud = m.next_ud;
        m.next_ud += 1;
        check!(
            ring.push(Sqe::new(ud, RingOp::Accept { listener: 0 }))
                == m.expect(RingOp::Accept { listener: 0 }),
            "accept push disagreed with model"
        );
        m.admit(ud, RingOp::Accept { listener: 0 });
        m.sq = 0;
        ring.submit_and_wait(ctx, 1)?.expect("accept committed");
        let cqes = ring.reap(usize::MAX);
        check!(
            cqes.len() == 1 && matches!(cqes[0].result, CqeResult::Accepted { conn: 0 }),
            "accept completion malformed: {cqes:?}"
        );
        check!(cqes[0].user_data == ud, "accept user_data corrupted");
        m.committed -= 1;
        m.seen.insert(ud);

        for step in steps {
            match step {
                Step::PushRead { .. } | Step::PushWrite { .. } => {
                    let op = match step {
                        Step::PushRead { buf } => RingOp::Read { conn: 0, buf },
                        Step::PushWrite { buf, len } => RingOp::Write { conn: 0, buf, len },
                        _ => unreachable!(),
                    };
                    let ud = m.next_ud;
                    m.next_ud += 1;
                    let want = m.expect(op);
                    let got = ring.push(Sqe::new(ud, op));
                    check!(
                        got == want,
                        "push {op:?} (state: sq={} committed={} attached={:?}): \
                         engine said {got:?}, model said {want:?}",
                        m.sq,
                        m.committed,
                        m.attached
                    );
                    if want.is_ok() {
                        m.admit(ud, op);
                    }
                }
                Step::Submit => {
                    ring.submit(ctx)?;
                    m.sq = 0;
                }
                Step::Reap(max) => {
                    for cqe in ring.reap(max) {
                        check!(
                            !m.seen.contains(&cqe.user_data),
                            "user_data {} completed twice",
                            cqe.user_data
                        );
                        let buf = m.buf_of.remove(&cqe.user_data);
                        check!(
                            buf.is_some(),
                            "completion for never-admitted user_data {}",
                            cqe.user_data
                        );
                        if let Some(Some(b)) = buf {
                            m.attached.remove(&b);
                        }
                        m.seen.insert(cqe.user_data);
                        m.committed -= 1;
                    }
                    // Buffer ownership: exactly the attached set is
                    // unavailable, everything reaped is free again.
                    check!(
                        ring.free_bufs() == g.buf_count - m.attached.len(),
                        "buffer pool accounting diverged: {} free, {} attached of {}",
                        ring.free_bufs(),
                        m.attached.len(),
                        g.buf_count
                    );
                }
                Step::Delay => ctx.delay(SimDuration::from_micros(100))?,
            }
        }

        // Orderly end: drain the SQ, harvest what completed, then close
        // the connection if admission allows — the model predicts the
        // overflow answer exactly.
        ring.submit(ctx)?;
        m.sq = 0;
        for cqe in ring.reap(usize::MAX) {
            check!(
                !m.seen.contains(&cqe.user_data),
                "user_data {} completed twice at drain",
                cqe.user_data
            );
            if let Some(Some(b)) = m.buf_of.remove(&cqe.user_data) {
                m.attached.remove(&b);
            }
            m.seen.insert(cqe.user_data);
            m.committed -= 1;
        }
        let close = RingOp::Close { conn: 0 };
        let want = m.expect(close);
        let got = ring.push(Sqe::new(m.next_ud, close));
        check!(got == want, "close push: engine {got:?}, model {want:?}");

        // Shutdown completes (as failures) everything still queued; the
        // conservation law must balance exactly afterwards.
        ring.shutdown(ctx)?;
        let c = ring.counters();
        check!(
            c.pushed == c.completed && c.completed == c.reaped,
            "completion conservation violated: {c:?}"
        );
        check!(
            ring.free_bufs() == g.buf_count,
            "registered buffers leaked through shutdown: {} of {} free",
            ring.free_bufs(),
            g.buf_count
        );
        let d = ring.depths();
        check!(
            (d.sq, d.in_flight, d.cq) == (0, 0, 0),
            "ring not drained after shutdown: {d:?}"
        );
        d2.complete(ctx);
        Ok(())
    });

    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, host, 80)?.expect("connect");
        let data = vec![0xAB; CLIENT_TOTAL];
        let mut off = 0;
        // Nonblocking sender with a bounded spin so the sim always
        // terminates even when the random schedule never reads.
        for _ in 0..2_000 {
            if off == data.len() {
                break;
            }
            match conn.try_write(ctx, &data[off..])? {
                Ok(n) => off += n,
                Err(NetError::WouldBlock) => ctx.delay(SimDuration::from_micros(200))?,
                Err(_) => break, // server tore the connection down
            }
        }
        let _ = conn.close(ctx);
        Ok(())
    });

    sim.run_until(SimTime::from_secs(120));
    let stack = tb.nodes[0].api.label();
    assert!(
        done.is_done(),
        "{stack}: ring server never finished its schedule"
    );
    let failed = failure.lock().take();
    if let Some(msg) = failed {
        panic!("{stack}: ring invariant violated: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs two full simulations
        .. ProptestConfig::default()
    })]

    #[test]
    fn ring_schedules_uphold_completion_and_buffer_invariants(
        geom_raw in (1usize..6, 1usize..10, 1usize..5, 16usize..64),
        steps_raw in prop::collection::vec((0u8..12, 0u32..64, 0u32..96), 1..40),
    ) {
        let g = Geom {
            sq_depth: geom_raw.0,
            cq_depth: geom_raw.1,
            buf_count: geom_raw.2,
            buf_size: geom_raw.3,
        };
        let steps: Vec<Step> = steps_raw
            .iter()
            .map(|&(k, b, l)| decode_step(g, k, b, l))
            .collect();
        // The stack is one more input: the same schedule on each.
        let substrate = Testbed::emp(
            2,
            EmpConfig::default(),
            SubstrateConfig::ds_da_uq(),
            "prop-emp",
        );
        for tb in [substrate, Testbed::kernel_default(2)] {
            run_schedule(&tb, g, steps.clone());
        }
    }
}

/// A cancelled op completes as `Cancelled` through the stack-agnostic
/// facade ring — the completion an async op future's drop produces — on
/// both stacks.
#[test]
fn cancelled_ring_ops_complete_as_cancelled_on_both_stacks() {
    for tb in [Testbed::emp_default(2), Testbed::kernel_default(2)] {
        let sim = Sim::new();
        let server = Arc::clone(&tb.nodes[1].api);
        let client = Arc::clone(&tb.nodes[0].api);
        let host = tb.nodes[1].api.local_host();
        let done = SimCompletion::new();
        let d2 = done.clone();
        sim.spawn("ring-server", move |ctx| {
            let l = server.listen(ctx, 80, 4)?.expect("port free");
            let mut ring = ring(server.as_ref(), RingConfig::default(), "cancel");
            let conn = ring.add_conn(l.accept(ctx)?.expect("client"));
            // The client never writes: the read stalls until cancelled.
            ring.push(Sqe::new(9, RingOp::Read { conn, buf: 0 }))
                .expect("room");
            ring.submit(ctx)?;
            assert!(ring.cancel(ctx, 9), "stalled read is cancellable");
            let cqe = ring.reap(1)[0];
            // The facade type itself (async ring ops used to say `Other`).
            assert_eq!(
                cqe.result,
                CqeResult::Failed {
                    err: NetError::Cancelled
                }
            );
            ring.shutdown(ctx)?;
            d2.complete(ctx);
            Ok(())
        });
        sim.spawn("idle-client", move |ctx| {
            let conn = client.connect(ctx, host, 80)?.expect("connect");
            // Send the substrate's connection request now (a default
            // connection sends it with its first operation), so the server
            // accepts and its read stalls while this client idles.
            conn.flush(ctx)?.expect("flush");
            ctx.delay(SimDuration::from_millis(1))?;
            conn.close(ctx)
        });
        sim.run();
        assert!(done.is_done(), "ring server did not finish");
    }
}
