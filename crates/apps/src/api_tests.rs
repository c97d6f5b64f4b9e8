//! Unit tests for the facade layer: error display/mapping and adapter
//! plumbing that the application tests exercise only indirectly.

#![cfg(test)]

use crate::api::NetError;
use crate::testbed::Testbed;
use simnet::{Sim, SimDuration};
use std::sync::Arc;

#[test]
fn net_error_displays() {
    assert_eq!(NetError::Refused.to_string(), "connection refused");
    assert_eq!(NetError::Closed.to_string(), "socket closed");
    assert_eq!(NetError::PeerClosed.to_string(), "peer closed");
    assert_eq!(NetError::TooBig.to_string(), "message too big");
    assert_eq!(NetError::Other("x".into()).to_string(), "x");
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

/// One scenario, both stacks, one trace: each overload condition must
/// surface the *same* typed [`NetError`] through the facade regardless
/// of which stack produced it. This is the differential test for the
/// unified error taxonomy — refusal, deadline expiry, and budget
/// exhaustion are three distinct, deterministic outcomes everywhere.
fn taxonomy_trace(tb: Testbed) -> Vec<String> {
    use simnet::Completion;
    use std::sync::Mutex;

    let ms = SimDuration::from_millis;
    let sim = Sim::new();
    let client = Arc::clone(&tb.nodes[0].api);
    let server = Arc::clone(&tb.nodes[1].api);
    let host = tb.nodes[1].api.local_host();
    let trace: Arc<Mutex<Vec<String>>> = Arc::default();
    let t2 = Arc::clone(&trace);
    let probes_done = Completion::new();
    let (pd2, pd3) = (probes_done.clone(), probes_done.clone());
    let sdone = Completion::new();
    let sd2 = sdone.clone();

    sim.spawn("taxonomy-server", move |ctx| {
        let l = server.listen(ctx, 80, 4)?.expect("port free");
        // Hold both budgeted connections open until the client has run
        // every probe, so the connection budget stays saturated.
        let a = l.accept(ctx)?.expect("first conn");
        let b = l.accept(ctx)?.expect("second conn");
        pd2.wait(ctx)?;
        a.close(ctx)?;
        b.close(ctx)?;
        sd2.complete(ctx);
        Ok(())
    });
    sim.spawn("taxonomy-client", move |ctx| {
        let mut tr = Vec::new();
        // Refusal: nobody listens on port 444.
        let r = client.connect_deadline(ctx, host, 444, ms(50))?;
        tr.push(format!("connect-noone:{:?}", r.err().expect("no listener")));
        // Deadline on accept: a local listener nobody connects to.
        let idle = client.listen(ctx, 81, 2)?.expect("port free");
        let r = idle.accept_deadline(ctx, ms(5))?;
        tr.push(format!("accept-idle:{:?}", r.err().expect("nobody comes")));
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
        c1.close(ctx)?;
        c2.close(ctx)?;
        *t2.lock().unwrap() = tr;
        pd3.complete(ctx);
        Ok(())
    });
    sim.run();
    assert!(sdone.is_done(), "server did not finish");
    Arc::try_unwrap(trace).unwrap().into_inner().unwrap()
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
        "accept-idle:Timeout".to_string(),
        "connect-overbudget:Exhausted".to_string(),
        "read-idle:Timeout".to_string(),
    ];
    assert_eq!(emp, want, "substrate taxonomy");
    assert_eq!(tcp, want, "kernel taxonomy");
}
