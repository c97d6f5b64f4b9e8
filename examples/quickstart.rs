//! Quickstart: a two-node cluster, one echo exchange, and a latency
//! measurement over the sockets-over-EMP substrate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use parking_lot::Mutex as PlMutex;
use sockets_over_emp::prelude::*;

// parking_lot is a workspace dependency; examples use the re-exported
// engine types plus it for result plumbing.
use sockets_over_emp::emp_proto;

fn main() {
    let sim = Sim::new();
    let cluster = emp_proto::build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    // The paper's preset by name, because the number printed below is
    // compared with the paper's; `SubstrateConfig::default()` is faster.
    let server = EmpSockets::new(cluster.nodes[1].endpoint(), SubstrateConfig::ds_da_uq());
    let client = EmpSockets::new(cluster.nodes[0].endpoint(), SubstrateConfig::ds_da_uq());
    let addr = SockAddr::new(cluster.nodes[1].addr(), 80);

    let latency = Arc::new(PlMutex::new(0.0f64));
    let latency2 = Arc::clone(&latency);

    sim.spawn("echo-server", move |ctx| {
        let listener = server.listen(ctx, 80, 8)?.expect("port free");
        let conn = listener.accept(ctx)?.expect("connection");
        loop {
            let msg = conn.read(ctx, 4096)?.expect("data");
            if msg.is_empty() {
                break; // client closed
            }
            conn.write(ctx, &msg)?.expect("echo");
        }
        Ok(())
    });

    sim.spawn("client", move |ctx| {
        let conn = client.connect(ctx, addr)?.expect("connect");

        // One friendly exchange.
        conn.write(ctx, b"hello, user-level sockets")?
            .expect("send");
        let reply = conn.read(ctx, 4096)?.expect("reply");
        println!(
            "echoed {} bytes: {:?}",
            reply.len(),
            std::str::from_utf8(&reply).unwrap()
        );

        // Then a 4-byte ping-pong, the paper's headline microbenchmark.
        let iters = 100u32;
        for _ in 0..4 {
            conn.write(ctx, b"warm")?.expect("w");
            while conn.read(ctx, 4)?.expect("r").len() < 4 {}
        }
        let t0 = ctx.now();
        for _ in 0..iters {
            conn.write(ctx, b"ping")?.expect("w");
            let mut got = 0;
            while got < 4 {
                got += conn.read(ctx, 4 - got)?.expect("r").len();
            }
        }
        let one_way = ((ctx.now() - t0) / u64::from(iters)).as_micros_f64() / 2.0;
        *latency2.lock() = one_way;
        conn.close(ctx)?;
        Ok(())
    });

    sim.run();
    println!(
        "4-byte one-way latency over the substrate: {:.2} us (paper: ~37 us for data streaming)",
        *latency.lock()
    );
    println!(
        "simulated time elapsed: {}, events executed: {}",
        sim.now(),
        sim.events_executed()
    );
}
