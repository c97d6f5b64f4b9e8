//! Allocation budget of the steady-state data path (DESIGN §6): after
//! warm-up, a 4 B ping-pong and a 2 MiB bulk transfer may allocate at most
//! a bounded number of heap blocks per executed event, and a bulk
//! transfer at most a bounded number of bytes per payload byte — the
//! simulator copies where the modelled system copies (the write into the
//! stack and the read out of it), not at every layer a buffer passes. The
//! byte budget is checked where tracing is compiled out (the default).
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not mix; a simulation runs every process on
//! the thread that calls `run`, so one thread's counters see all of it.
//! The window is measured inside the simulation, by the process that
//! sees the traffic, between two snapshots of the counters and of the
//! engine's executed-event counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use emp_apps::Testbed;
use emp_proto::EmpConfig;
use simnet::{Sim, SimAccess};
use sockets_emp::SubstrateConfig;

struct Counting;

thread_local! {
    /// Blocks and bytes allocated on this thread (reallocations count as
    /// one block of their new size).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation and event counters at one instant of a run.
#[derive(Clone, Copy, Default)]
struct Mark {
    blocks: u64,
    bytes: u64,
    events: u64,
}

/// What a measured window cost.
#[derive(Debug)]
struct Window {
    blocks: u64,
    bytes: u64,
    events: u64,
}

impl Window {
    fn blocks_per_event(&self) -> f64 {
        self.blocks as f64 / self.events as f64
    }
}

/// Reads the counters from inside a process. The engine's class counters
/// are looked up once, before the window, so reading them allocates
/// nothing.
struct Meter {
    classes: Vec<Rc<simnet::emp_trace::Counter>>,
}

impl Meter {
    fn new(s: &dyn SimAccess) -> Meter {
        let reg = s.telemetry();
        let classes = ["wake", "deliver", "task", "timer", "other"]
            .iter()
            .map(|c| reg.counter(&format!("simnet.events.{c}")))
            .collect();
        Meter { classes }
    }

    fn mark(&self) -> Mark {
        let events = self.classes.iter().map(|c| c.get()).sum();
        let (blocks, bytes) = ALLOCATED.with(Cell::get);
        Mark {
            blocks,
            bytes,
            events,
        }
    }
}

fn window(from: Mark, to: Mark) -> Window {
    Window {
        blocks: to.blocks - from.blocks,
        bytes: to.bytes - from.bytes,
        events: to.events - from.events,
    }
}

const PORT: u16 = 90;

/// A one-way transfer of `warm + bytes` in `write`-byte writes from node 0
/// to node 1, measured at the receiver over the last `bytes`. The sender
/// closes only once the receiver has read everything, so the window holds
/// the data path and no teardown.
fn bulk(tb: &Testbed, write: usize, warm: usize, bytes: usize) -> Window {
    let sim = Sim::new();
    let out = Rc::new(Cell::new(None));
    let out2 = Rc::clone(&out);
    let server = Arc::clone(&tb.nodes[1].api);
    let client = Arc::clone(&tb.nodes[0].api);
    let host = server.local_host();
    sim.spawn("sink", move |ctx| {
        let meter = Meter::new(ctx);
        let l = server.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        let mut got = 0;
        let mut start = None;
        while got < warm + bytes {
            if got >= warm && start.is_none() {
                start = Some(meter.mark());
            }
            let d = conn.read(ctx, write)?.expect("data");
            assert!(!d.is_empty(), "early EOF");
            assert!(d.iter().all(|&b| b == 0x5a), "payload bytes differ");
            got += d.len();
        }
        out2.set(Some(window(start.expect("window opened"), meter.mark())));
        conn.write(ctx, b"done")?.expect("done");
        let _ = conn.close(ctx);
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("source", move |ctx| {
        let conn = client.connect(ctx, host, PORT)?.expect("connect");
        let buf = vec![0x5au8; write];
        let mut sent = 0;
        while sent < warm + bytes {
            let n = write.min(warm + bytes - sent);
            conn.write(ctx, &buf[..n])?.expect("write");
            sent += n;
        }
        conn.flush(ctx)?.expect("flush");
        let done = conn.read_exact(ctx, 4)?.expect("read").expect("done");
        assert_eq!(done, b"done"[..]);
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    out.take().expect("transfer completed")
}

/// `warm + iters` round trips of `size` bytes, measured at the client over
/// the last `iters`.
fn pingpong(tb: &Testbed, size: usize, warm: u32, iters: u32) -> Window {
    let sim = Sim::new();
    let out = Rc::new(Cell::new(None));
    let out2 = Rc::clone(&out);
    let server = Arc::clone(&tb.nodes[1].api);
    let client = Arc::clone(&tb.nodes[0].api);
    let host = server.local_host();
    sim.spawn("echo", move |ctx| {
        let l = server.listen(ctx, PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("connection");
        while let Ok(m) = conn.read(ctx, size)? {
            if m.is_empty() || conn.write(ctx, &m)?.is_err() {
                break;
            }
        }
        let _ = conn.close(ctx);
        l.close(ctx)?;
        Ok(())
    });
    sim.spawn("ping", move |ctx| {
        let meter = Meter::new(ctx);
        let conn = client.connect(ctx, host, PORT)?.expect("connect");
        let payload = vec![0x55u8; size];
        let mut start = None;
        for i in 0..warm + iters {
            if i == warm {
                start = Some(meter.mark());
            }
            conn.write(ctx, &payload)?.expect("write");
            let pong = conn.read_exact(ctx, size)?.expect("read").expect("pong");
            assert_eq!(pong, payload[..], "pong bytes differ");
        }
        out2.set(Some(window(start.expect("window opened"), meter.mark())));
        conn.close(ctx)?;
        Ok(())
    });
    sim.run();
    out.take().expect("ping-pong completed")
}

/// A named testbed builder.
type Stack = (&'static str, fn() -> Testbed);

/// The three stacks the budget holds for.
fn stacks() -> [Stack; 3] {
    [
        ("ds_da_uq", || {
            Testbed::emp(
                2,
                EmpConfig::default(),
                SubstrateConfig::ds_da_uq(),
                "ds-da-uq",
            )
        }),
        ("default", || Testbed::emp_default(2)),
        ("kernel-tcp", || Testbed::kernel_default(2)),
    ]
}

const BULK_BLOCKS_PER_EVENT: f64 = 0.35;
const BULK_BYTES_PER_PAYLOAD_BYTE: f64 = 2.5;
const PINGPONG_BLOCKS_PER_EVENT: f64 = 1.0;

#[test]
fn bulk_transfer_allocates_within_budget() {
    const BYTES: usize = 2 << 20;
    // Every stack is measured before any is judged, so a failure shows
    // all three.
    let windows = stacks().map(|(name, tb)| (name, bulk(&tb(), 64 << 10, 256 << 10, BYTES)));
    for (name, w) in &windows {
        eprintln!(
            "bulk {name}: {w:?}, {:.3} blocks/event, {:.2} bytes/payload byte",
            w.blocks_per_event(),
            w.bytes as f64 / BYTES as f64
        );
    }
    for (name, w) in &windows {
        let per_byte = w.bytes as f64 / BYTES as f64;
        assert!(w.events > 1000, "{name}: the window holds the transfer");
        assert!(
            w.blocks_per_event() <= BULK_BLOCKS_PER_EVENT,
            "{name}: bulk allocates {:.3} blocks per event (budget {BULK_BLOCKS_PER_EVENT})",
            w.blocks_per_event()
        );
        // A traced build also grows the tracer's event ring in the window
        // (about a byte per payload byte on kernel TCP): the byte budget is
        // the data path's, so it holds where tracing is compiled out.
        assert!(
            simnet::emp_trace::ENABLED || per_byte < BULK_BYTES_PER_PAYLOAD_BYTE,
            "{name}: bulk allocates {per_byte:.2} bytes per payload byte \
             (budget {BULK_BYTES_PER_PAYLOAD_BYTE})"
        );
    }
}

#[test]
fn pingpong_allocates_within_budget() {
    let windows = stacks().map(|(name, tb)| (name, pingpong(&tb(), 4, 8, 200)));
    for (name, w) in &windows {
        eprintln!(
            "ping-pong {name}: {w:?}, {:.3} blocks/event",
            w.blocks_per_event()
        );
    }
    for (name, w) in &windows {
        assert!(w.events > 1000, "{name}: the window holds the round trips");
        assert!(
            w.blocks_per_event() <= PINGPONG_BLOCKS_PER_EVENT,
            "{name}: ping-pong allocates {:.3} blocks per event \
             (budget {PINGPONG_BLOCKS_PER_EVENT})",
            w.blocks_per_event()
        );
    }
}
