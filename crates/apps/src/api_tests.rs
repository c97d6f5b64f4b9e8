//! Unit tests for the facade layer: error display, cross-stack errors
//! and stack plumbing that the application tests exercise only
//! indirectly.

#![cfg(test)]

use crate::api::{ring, CqeResult, NetError, Ring, RingConfig, RingOp, Sqe};
use crate::testbed::Testbed;
use simnet::{ProcessCtx, Sim, SimAccess, SimDuration, SimResult, SimTime};
use std::sync::Arc;

#[test]
fn net_error_displays() {
    assert_eq!(NetError::Refused.to_string(), "connection refused");
    assert_eq!(NetError::Closed.to_string(), "socket closed");
    assert_eq!(NetError::PeerClosed.to_string(), "peer closed");
    assert_eq!(
        NetError::TooBig {
            size: 100,
            limit: 64
        }
        .to_string(),
        "message of 100 bytes exceeds receiver limit 64"
    );
}

#[test]
fn adapters_report_their_labels_and_hosts() {
    let tb = Testbed::emp_default(2);
    assert_eq!(tb.nodes[0].api.label(), "emp-default");
    assert_eq!(tb.nodes[1].api.local_host(), simnet::MacAddr(1));
    let tb = Testbed::kernel_default(3);
    assert_eq!(tb.nodes[2].api.label(), "tcp-16k");
    assert_eq!(tb.nodes[2].api.local_host(), simnet::MacAddr(2));
    assert!(tb.emp_cluster().is_none());
    assert!(Testbed::emp_default(2).emp_cluster().is_some());
}

#[test]
fn refused_connections_map_to_net_error_on_both_stacks() {
    // Kernel stack refuses synchronously; the substrate refuses lazily
    // (EMP retransmits the connection request until it gives up), which
    // surfaces on a later blocking operation.
    let tb = Testbed::kernel_default(2);
    let sim = Sim::new();
    let api = Arc::clone(&tb.nodes[0].api);
    let host = tb.nodes[1].api.local_host();
    sim.spawn("kernel-client", move |ctx| {
        let res = api.connect(ctx, host, 444)?;
        assert!(matches!(res, Err(NetError::Refused)));
        Ok(())
    });
    sim.run();

    let tb = Testbed::emp_default(2);
    let sim = Sim::new();
    let api = Arc::clone(&tb.nodes[0].api);
    let host = tb.nodes[1].api.local_host();
    sim.spawn("emp-client", move |ctx| {
        let conn = api.connect(ctx, host, 444)?.expect("connect is lazy");
        conn.write(ctx, b"hello?")?.expect("buffered send");
        // Wait out EMP's retransmission give-up, then the failure shows.
        ctx.delay(SimDuration::from_secs(2))?;
        let res = conn.write(ctx, b"again")?;
        assert!(
            matches!(res, Err(NetError::Refused | NetError::PeerClosed)),
            "got {res:?}"
        );
        Ok(())
    });
    sim.run();
}

#[test]
fn cross_stack_adapters_are_independent() {
    // Two testbeds can coexist in one simulation-free scope: handles are
    // plain values, nothing global.
    let a = Testbed::emp_default(2);
    let b = Testbed::kernel_default(2);
    assert_ne!(a.nodes[0].api.label(), b.nodes[0].api.label());
}

/// Run one op through a facade ring to its completion and return why it
/// failed. Stalled ops give up after 5 ms, like the facade probes.
fn ring_failure(ctx: &ProcessCtx, ring: &mut Ring<'_>, op: RingOp) -> SimResult<NetError> {
    let deadline = ctx.now() + SimDuration::from_millis(5);
    ring.push(Sqe::new(0, op).with_deadline(deadline))
        .expect("ring has room");
    ring.submit_and_wait(ctx, 1)?.expect("op committed");
    match ring.reap(1)[0].result {
        CqeResult::Failed { err } => Ok(err),
        other => panic!("{op:?} completed as {other:?}"),
    }
}

/// Retire a ring connection (frees its slot in the connection budget).
fn ring_close(ctx: &ProcessCtx, ring: &mut Ring<'_>, conn: u32) -> SimResult<()> {
    ring.push(Sqe::new(1, RingOp::Close { conn }))
        .expect("ring has room");
    ring.submit_and_wait(ctx, 1)?.expect("close committed");
    assert!(matches!(ring.reap(1)[0].result, CqeResult::Closed { .. }));
    Ok(())
}

/// One scenario, both stacks, one trace: each failure condition must
/// surface the *same* [`NetError`] through the facade regardless of which
/// stack produced it, and the same again through a completion ring where
/// the ring has the op. This is the differential test for the unified
/// error type — refusal, address clash, deadline expiry, budget
/// exhaustion, a closed listener and a closed peer are distinct,
/// deterministic outcomes everywhere.
fn taxonomy_trace(tb: Testbed) -> Vec<String> {
    use simnet::Completion;
    use std::cell::RefCell;
    use std::rc::Rc;

    let ms = SimDuration::from_millis;
    let sim = Sim::new();
    let client = Arc::clone(&tb.nodes[0].api);
    let server = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[1].api.local_host();
    let trace: Rc<RefCell<Vec<String>>> = Rc::default();
    let t2 = Rc::clone(&trace);
    let probes_done = Completion::new();
    let (pd2, pd3) = (probes_done.clone(), probes_done.clone());
    let client_done = Completion::new();
    let (cd2, cd3) = (client_done.clone(), client_done.clone());
    let sdone = Completion::new();
    let sd2 = sdone.clone();

    sim.spawn("taxonomy-server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        // Hold both budgeted connections open until the client has run
        // the budget probes, so the connection budget stays saturated.
        let a = l.accept(ctx)?.expect("first conn");
        let b = l.accept(ctx)?.expect("second conn");
        pd2.wait(ctx)?;
        a.close(ctx)?;
        b.close(ctx)?;
        // A peer that never reads, then one that closes at once.
        let silent = l.accept(ctx)?.expect("silent conn");
        l.accept(ctx)?.expect("closing conn").close(ctx)?;
        cd2.wait(ctx)?;
        silent.close(ctx)?;
        sd2.complete(ctx);
        Ok(())
    });
    sim.spawn("taxonomy-client", move |ctx| {
        let mut tr = Vec::new();
        let mut ring = ring(client.as_ref(), RingConfig::default(), "taxonomy");
        // Refusal: nobody listens on port 444.
        let r = client.connect_deadline(ctx, host, 444, ms(50))?;
        tr.push(format!("connect-noone:{:?}", r.err().expect("no listener")));
        // A port can be listened on once.
        let idle = client.listen(ctx, 81, 2)?.expect("port free");
        let r = client.listen(ctx, 81, 2)?;
        tr.push(format!("listen-twice:{:?}", r.err().expect("port taken")));
        // Deadline on accept: a local listener nobody connects to.
        let r = idle.accept_deadline(ctx, ms(5))?;
        tr.push(format!("accept-idle:{:?}", r.err().expect("nobody comes")));
        // Accept on a closed listener fails instead of parking.
        idle.close(ctx)?;
        let r = idle.accept(ctx)?;
        tr.push(format!("accept-closed:{:?}", r.err().expect("closed")));
        let r = idle.try_accept(ctx)?;
        tr.push(format!("try-accept-closed:{:?}", r.err().expect("closed")));
        // Fill the 2-connection budget, then one more.
        let c1 = client
            .connect_deadline(ctx, host, 80, ms(50))?
            .expect("conn 1");
        let c2 = client
            .connect_deadline(ctx, host, 80, ms(50))?
            .expect("conn 2");
        let r = client.connect_deadline(ctx, host, 80, ms(50))?;
        tr.push(format!("connect-overbudget:{:?}", r.err().expect("cap")));
        // Deadline on read: the server never writes.
        let r = c1.read_deadline(ctx, 64, ms(5))?;
        tr.push(format!("read-idle:{:?}", r.expect_err("silent peer")));
        let id = ring.add_conn(c1);
        let read = RingOp::Read { conn: id, buf: 0 };
        tr.push(format!(
            "ring-read-idle:{:?}",
            ring_failure(ctx, &mut ring, read)?
        ));
        ring_close(ctx, &mut ring, id)?;
        c2.close(ctx)?;
        pd3.complete(ctx);
        // Let both teardowns finish: closing sockets still count against
        // the budget.
        ctx.delay(ms(5))?;

        // Deadline on write: the peer never reads, so flow control stalls.
        let c3 = client
            .connect_deadline(ctx, host, 80, ms(50))?
            .expect("conn 3");
        let chunk = [7u8; 4096];
        let mut writes = 0;
        let err = loop {
            if let Err(e) = c3.write_deadline(ctx, &chunk, ms(5))? {
                break e;
            }
            writes += 1;
            assert!(writes < 10_000, "a reader that never reads never stalled");
        };
        tr.push(format!("write-blocked:{err:?}"));
        let id = ring.add_conn(c3);
        ring.fill(0, &chunk).expect("free buffer");
        let write = RingOp::Write {
            conn: id,
            buf: 0,
            len: chunk.len() as u32,
        };
        tr.push(format!(
            "ring-write-blocked:{:?}",
            ring_failure(ctx, &mut ring, write)?
        ));
        ring_close(ctx, &mut ring, id)?;
        // Write after the peer closed: EOF first, then the writes fail.
        let c4 = client
            .connect_deadline(ctx, host, 80, ms(50))?
            .expect("conn 4");
        assert!(c4.read(ctx, 64)?.expect("EOF").is_empty());
        let mut writes = 0;
        let err = loop {
            match c4.write(ctx, b"x")? {
                Ok(_) => ctx.delay(ms(1))?,
                Err(e) => break e,
            }
            writes += 1;
            assert!(writes < 10_000, "writes to a closed peer never failed");
        };
        tr.push(format!("write-peer-closed:{err:?}"));
        let id = ring.add_conn(c4);
        ring.fill(0, b"x").expect("free buffer");
        let write = RingOp::Write {
            conn: id,
            buf: 0,
            len: 1,
        };
        tr.push(format!(
            "ring-write-peer-closed:{:?}",
            ring_failure(ctx, &mut ring, write)?
        ));
        ring.shutdown(ctx)?;
        *t2.borrow_mut() = tr;
        cd3.complete(ctx);
        Ok(())
    });
    // Stop once the server is done: the substrate would otherwise spend
    // a second and a half of sim time retransmitting the writes to the
    // closed peer before giving up on them.
    assert!(
        sim.run_until_complete(&sdone, SimTime::MAX),
        "server did not finish"
    );
    trace.take()
}

#[test]
fn overload_errors_are_typed_identically_on_both_stacks() {
    use emp_proto::EmpConfig;
    use sockets_emp::SubstrateConfig;

    let emp = taxonomy_trace(Testbed::emp(
        2,
        EmpConfig::default(),
        SubstrateConfig::ds_da_uq().with_max_connections(2),
        "emp-capped",
    ));
    let tcp = {
        let tb = Testbed::kernel_default(2);
        let stack = tb.nodes[0].api.tcp_stack().expect("kernel introspection");
        stack.set_max_conns(Some(2));
        taxonomy_trace(tb)
    };
    let want = vec![
        "connect-noone:Refused".to_string(),
        "listen-twice:AddrInUse".to_string(),
        "accept-idle:Timeout".to_string(),
        "accept-closed:Closed".to_string(),
        "try-accept-closed:Closed".to_string(),
        "connect-overbudget:Exhausted".to_string(),
        "read-idle:Timeout".to_string(),
        "ring-read-idle:Timeout".to_string(),
        "write-blocked:Timeout".to_string(),
        "ring-write-blocked:Timeout".to_string(),
        "write-peer-closed:PeerClosed".to_string(),
        "ring-write-peer-closed:PeerClosed".to_string(),
    ];
    assert_eq!(emp, want, "substrate taxonomy");
    assert_eq!(tcp, want, "kernel taxonomy");
}
