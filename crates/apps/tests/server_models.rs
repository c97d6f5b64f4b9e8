//! Acceptance table for the server models: both applications — the
//! webserver and the kvstore, each stating its protocol once — served by
//! [`emp_apps::serve()`] under all four [`ServerModel`]s, on the default
//! substrate and on kernel TCP.
//!
//! Byte-exactness is enforced inside the clients: every webserver
//! response byte is a function of (connection, request, position), so a
//! response delivered to the wrong connection, out of order, or corrupted
//! fails the run; every kvstore response is status- and length-checked
//! against the stored value. The 16 KiB kvstore row makes one PUT span
//! several [`emp_apps::serve::READ_CHUNK`] reads in every model, so the
//! service must carry a partial frame across reads.
//!
//! GET hit counts are not compared across models: which GETs hit depends
//! on how the clients' operations interleave, which is the model's to
//! decide.

use emp_apps::webserver::concurrent_throughput;
use emp_apps::{kvstore, ServerModel, Testbed};

const MODELS: [ServerModel; 4] = [
    ServerModel::PerConnection,
    ServerModel::EventLoop,
    ServerModel::Completion,
    ServerModel::Async,
];

const CONNS: u32 = 32;
const REQS_PER_CONN: u32 = 4;
const RESPONSE: usize = 1024;

/// The webserver at 32 concurrent connections under every model, each
/// on a fresh testbed, and the async model competitive with the event
/// loop it desugars to.
fn webserver_rows(make: fn(usize) -> Testbed) {
    let runs = MODELS.map(|model| {
        let tb = make(5);
        let r = concurrent_throughput(&tb, model, CONNS, REQS_PER_CONN, RESPONSE);
        let row = format!("{} on {}", model.label(), tb.nodes[0].api.label());
        assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN), "{row}");
        assert!(r.reqs_per_sec > 0.0, "{row}");
        r.reqs_per_sec
    });
    let [_, event_loop, _, async_] = runs;
    assert!(
        async_ >= 0.85 * event_loop,
        "async goodput fell >15% behind the event loop: {async_} vs {event_loop}"
    );
}

const KV_OPS: u32 = 8;

/// `clients` kvstore clients with `value_size`-byte values under every
/// model, each on a fresh testbed: every operation completes, and the
/// warmed keys produce hits.
fn kvstore_rows(make: fn(usize) -> Testbed, clients: usize, value_size: usize) {
    for model in MODELS {
        let tb = make(clients + 1);
        let r = kvstore::run_workload_with(&tb, model, clients, KV_OPS, value_size, 0.5, 7);
        let row = format!(
            "{} on {}, {clients} clients, {value_size} B",
            model.label(),
            tb.nodes[0].api.label()
        );
        assert_eq!(r.ops, clients as u64 * u64::from(KV_OPS), "{row}");
        assert!(r.hits > 0, "warmed keys must produce hits: {row}");
        assert!(r.ops_per_sec > 0.0, "{row}");
    }
}

#[test]
fn webserver_serves_32_connections_in_every_model_on_the_substrate() {
    webserver_rows(Testbed::emp_default);
}

#[test]
fn webserver_serves_32_connections_in_every_model_on_kernel_tcp() {
    webserver_rows(Testbed::kernel_default);
}

#[test]
fn kvstore_serves_32_clients_in_every_model_on_the_substrate() {
    kvstore_rows(Testbed::emp_default, 32, 256);
}

#[test]
fn kvstore_serves_32_clients_in_every_model_on_kernel_tcp() {
    kvstore_rows(Testbed::kernel_default, 32, 256);
}

#[test]
fn kvstore_puts_span_read_chunks_in_every_model_on_the_substrate() {
    kvstore_rows(Testbed::emp_default, 4, 16 << 10);
}

#[test]
fn kvstore_puts_span_read_chunks_in_every_model_on_kernel_tcp() {
    kvstore_rows(Testbed::kernel_default, 4, 16 << 10);
}
