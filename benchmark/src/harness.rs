//! What every workload shares: the testbed handle with its public stats,
//! the measured window (opened at a sim-side barrier, closed when the last
//! operation is verified, read on both clocks), and the per-run record.
//!
//! Layers are measured from outside: [`Bed::counters`] reads only public
//! functions and public stats of the crates under test, at window open and
//! at window close; the difference is what the window cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emp_apps::{Api, EmpNet, Testbed};
use emp_proto::{EmpCluster, EmpConfig, EmpNic, EmpStats};
use hostsim::Host;
use kernel_tcp::TcpStack;
use parking_lot::Mutex;
use simnet::emp_trace::telemetry::RegistrySnapshot;
use simnet::{
    Completion, FaultPlan, LinkConfig, LinkStats, ProcessCtx, Sim, SimAccess, SimAccessExt,
    SimResult, SimTime, SwitchConfig,
};
use sockets_emp::{ConnStats, EmpSockets, SubstrateConfig};

use crate::host;
use crate::spans::{Span, SpanLog};
use crate::workloads::anchors::{Anchor, HeadlineRtt};

/// Node that runs the server side of every workload.
pub const SERVER: usize = 0;

enum Backing {
    Testbed(Testbed),
    /// A cluster built by hand, for the one workload whose links carry a
    /// `FaultPlan` ([`Testbed`] takes no switch configuration).
    Cluster(EmpCluster),
}

/// A testbed plus handles on the public stats of its components.
pub struct Bed {
    backing: Backing,
    /// One sockets API per node.
    pub apis: Vec<Api>,
    nics: Vec<Arc<EmpNic>>,
    hosts: Vec<Host>,
    stacks: Vec<Arc<TcpStack>>,
}

impl Bed {
    fn from_testbed(tb: Testbed) -> Bed {
        let apis: Vec<Api> = tb.nodes.iter().map(|n| Arc::clone(&n.api)).collect();
        let hosts = tb.nodes.iter().map(|n| n.host.clone()).collect();
        let nics = tb
            .emp_cluster()
            .map(|c| c.nodes.iter().map(|n| Arc::clone(&n.nic)).collect())
            .unwrap_or_default();
        let stacks = apis
            .iter()
            .filter_map(|a| a.tcp_stack().map(Arc::clone))
            .collect();
        Bed {
            backing: Backing::Testbed(tb),
            apis,
            nics,
            hosts,
            stacks,
        }
    }

    /// `Testbed::emp_default(n)` — what a user gets without choosing.
    pub fn emp_default(n: usize) -> Bed {
        Bed::from_testbed(Testbed::emp_default(n))
    }

    /// `Testbed::kernel_default(n)`.
    pub fn kernel_default(n: usize) -> Bed {
        Bed::from_testbed(Testbed::kernel_default(n))
    }

    /// The default EMP testbed's configuration with `faults` on every link.
    pub fn emp_with_faults(n: usize, faults: FaultPlan) -> Bed {
        let switch_cfg = SwitchConfig {
            link: LinkConfig {
                faults,
                ..LinkConfig::default()
            },
            ..SwitchConfig::default()
        };
        let cluster = emp_proto::build_cluster(n, EmpConfig::default(), switch_cfg);
        let apis = cluster
            .nodes
            .iter()
            .map(|node| {
                Arc::new(EmpNet::new(
                    EmpSockets::new(node.endpoint(), SubstrateConfig::ds_da_uq()),
                    "emp-ds-da-uq",
                )) as Api
            })
            .collect();
        Bed {
            apis,
            nics: cluster.nodes.iter().map(|n| Arc::clone(&n.nic)).collect(),
            hosts: cluster.nodes.iter().map(|n| n.host.clone()).collect(),
            stacks: Vec::new(),
            backing: Backing::Cluster(cluster),
        }
    }

    /// The repo testbed behind this bed (the kv servers take one).
    pub fn testbed(&self) -> &Testbed {
        match &self.backing {
            Backing::Testbed(tb) => tb,
            Backing::Cluster(_) => panic!("hand-built cluster has no Testbed"),
        }
    }

    /// True on the kernel-TCP testbed.
    pub fn is_kernel(&self) -> bool {
        !self.stacks.is_empty()
    }

    fn switch_ports(&self) -> Vec<LinkStats> {
        match &self.backing {
            Backing::Testbed(tb) => tb.emp_cluster().map(|c| c.switch.port_stats()),
            Backing::Cluster(c) => Some(c.switch.port_stats()),
        }
        .unwrap_or_default()
    }

    /// Read every public counter the per-layer metrics are built from.
    pub fn counters(&self, sim: &Sim) -> Counters {
        let mut c = Counters {
            events: sim.events_executed(),
            threads: host::threads_now(),
            cpu_ticks: host::cpu_ticks(),
            ..Counters::default()
        };
        for nic in &self.nics {
            let s = nic.stats();
            c.emp.msgs_sent += s.msgs_sent;
            c.emp.msgs_received += s.msgs_received;
            c.emp.frames_dropped += s.frames_dropped;
            c.emp.frames_retransmitted += s.frames_retransmitted;
            c.emp.sends_failed += s.sends_failed;
            c.emp.acks_sent += s.acks_sent;
            c.emp.nacks_sent += s.nacks_sent;
            c.emp.unexpected_msgs += s.unexpected_msgs;
            c.emp.descriptors_walked += s.descriptors_walked;
            c.nic_frames_sent += nic.tigon().frames_sent();
        }
        if let Some(nic) = self.nics.get(SERVER) {
            c.server_tx_busy_ns = nic.tigon().cpu_tx.busy_total().nanos();
            c.server_rx_busy_ns = nic.tigon().cpu_rx.busy_total().nanos();
        }
        for h in &self.hosts {
            let m = h.memory().lock();
            c.pin_hits += m.cache_hits();
            c.pin_misses += m.cache_misses();
            c.pinned_pages = c.pinned_pages.max(m.pinned_pages());
        }
        for p in self.switch_ports() {
            c.port_payload_bytes.push(p.payload_bytes);
            c.link_dropped += p.frames_lost();
            c.link_delayed += p.frames_delayed;
            c.switch_backlog_max_ns = c.switch_backlog_max_ns.max(p.max_backlog.nanos());
        }
        for (i, s) in self.stacks.iter().enumerate() {
            if i == SERVER {
                c.server_kernel_busy_ns = s.kernel_cpu_busy().nanos();
            }
            c.tcp_interrupts += s.nic().interrupts();
            c.tcp_rsts += s.rsts_sent();
            c.tcp_segments += sim
                .telemetry()
                .counter(&format!("tcp.n{i}.segments_out"))
                .get();
        }
        c
    }

    /// Connections either stack still holds open (the end-of-run drain).
    pub fn live_conns(&self) -> usize {
        let emp: usize = self
            .apis
            .iter()
            .filter_map(|a| a.substrate())
            .map(|s| s.stats().connections)
            .sum();
        let tcp: usize = self.stacks.iter().map(|s| s.live_conns()).sum();
        emp + tcp
    }
}

/// A reading of the public counters (monotonic unless noted).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// `Sim::events_executed`.
    pub events: u64,
    /// Live OS threads (a level, not a count).
    pub threads: u64,
    /// `(user, system)` CPU ticks of the process.
    pub cpu_ticks: (u64, u64),
    /// `EmpStats` summed over every NIC.
    pub emp: EmpStats,
    /// `Tigon::frames_sent` summed over every NIC.
    pub nic_frames_sent: u64,
    /// Server NIC transmit-CPU busy time.
    pub server_tx_busy_ns: u64,
    /// Server NIC receive-CPU busy time.
    pub server_rx_busy_ns: u64,
    /// Pin/translate cache hits over every host.
    pub pin_hits: u64,
    /// Pin/translate cache misses over every host.
    pub pin_misses: u64,
    /// Most pages any one host has pinned (a level).
    pub pinned_pages: u64,
    /// Payload bytes each switch egress port has carried.
    pub port_payload_bytes: Vec<u64>,
    /// Frames the switch egress links lost (dropped, corrupted, link down).
    pub link_dropped: u64,
    /// Frames the switch egress links delayed (reorder, jitter).
    pub link_delayed: u64,
    /// Longest switch egress queue so far, as wire time (a level).
    pub switch_backlog_max_ns: u64,
    /// Server kernel-CPU busy time (kernel-TCP testbed).
    pub server_kernel_busy_ns: u64,
    /// NIC interrupts over every kernel stack.
    pub tcp_interrupts: u64,
    /// RSTs sent over every kernel stack.
    pub tcp_rsts: u64,
    /// Segments put on the wire over every kernel stack.
    pub tcp_segments: u64,
}

/// The measured window on both clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Sim time the barrier released.
    pub sim_open: SimTime,
    /// Sim time the last operation was verified.
    pub sim_close: SimTime,
    /// Host time of the same two instants, since process start.
    pub host_open: Duration,
    /// See `host_open`.
    pub host_close: Duration,
}

impl Window {
    /// Length on the sim clock, seconds.
    pub fn sim_secs(&self) -> f64 {
        self.sim_close.since(self.sim_open).as_secs_f64()
    }

    /// Length on the host clock, seconds.
    pub fn host_secs(&self) -> f64 {
        self.host_close.saturating_sub(self.host_open).as_secs_f64()
    }
}

/// What the client processes of a run accumulate.
#[derive(Default)]
struct Tally {
    samples_ns: Vec<u64>,
    per_conn: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    verified_bytes: u64,
    write_calls: u64,
    conn_stats: ConnStats,
    errors: Vec<String>,
    window: Window,
    open_counters: Option<Counters>,
    close_counters: Option<Counters>,
}

/// A one-shot meeting point of `n` simulated processes.
pub struct Barrier {
    left: Mutex<usize>,
    released: Completion,
}

impl Barrier {
    /// A barrier that releases when `n` processes have arrived.
    pub fn new(n: usize) -> Barrier {
        Barrier {
            left: Mutex::new(n),
            released: Completion::new(),
        }
    }

    /// Arrive. The last arrival runs `on_release` and frees the others; all
    /// continue at the same sim instant.
    pub fn arrive(&self, ctx: &ProcessCtx, on_release: impl FnOnce()) -> SimResult<()> {
        let last = {
            let mut left = self.left.lock();
            *left -= 1;
            *left == 0
        };
        if !last {
            return self.released.wait(ctx);
        }
        on_release();
        self.released.complete(ctx);
        Ok(())
    }
}

/// One run's shared state: barriers, window, tallies, spans.
pub struct Session {
    started: Instant,
    /// The testbed under test.
    pub bed: Arc<Bed>,
    /// Span store (a no-op unless the run is traced).
    pub spans: Arc<SpanLog>,
    /// Workload seed.
    pub seed: u64,
    tally: Mutex<Tally>,
    /// Meeting point before warm-up, for workloads whose warm-up needs
    /// every connection's preload to be in place.
    pub preloaded: Barrier,
    opening: Barrier,
    finishers_left: Mutex<usize>,
}

/// What one client connection hands in when it has verified its last op.
#[derive(Default)]
pub struct ClientReport {
    /// Sim nanoseconds of each measured operation, in issue order.
    pub samples_ns: Vec<u64>,
    /// Operations issued in the window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// Payload bytes verified in the window.
    pub verified_bytes: u64,
    /// Facade write calls over the connection's whole life.
    pub write_calls: u64,
    /// The connection's substrate counters, read just before close.
    pub conn_stats: ConnStats,
}

impl Session {
    /// A session for `participants` processes meeting at the window-open
    /// barrier, `finishers` of which report operations. `started` is the
    /// process start, the origin of `setup_s`.
    pub fn new(
        started: Instant,
        bed: Bed,
        seed: u64,
        traced: bool,
        participants: usize,
        finishers: usize,
    ) -> Arc<Session> {
        Arc::new(Session {
            started,
            bed: Arc::new(bed),
            spans: SpanLog::new(traced),
            seed,
            tally: Mutex::new(Tally::default()),
            preloaded: Barrier::new(participants),
            opening: Barrier::new(participants),
            finishers_left: Mutex::new(finishers),
        })
    }

    fn probe(self: &Arc<Session>, ctx: &ProcessCtx, opening: bool) {
        let me = Arc::clone(self);
        // Events get the `Sim`, which alone can read its event count; this
        // one runs at the current instant, before anything it could count.
        ctx.schedule_at(ctx.now(), move |sim| {
            let c = me.bed.counters(sim);
            let mut t = me.tally.lock();
            if opening {
                t.open_counters = Some(c);
            } else {
                t.close_counters = Some(c);
            }
        });
    }

    /// Warm-up is done: wait for every other participant, then the window
    /// opens for all at the same sim instant.
    pub fn open_window(self: &Arc<Session>, ctx: &ProcessCtx) -> SimResult<()> {
        self.opening.arrive(ctx, || {
            {
                let mut t = self.tally.lock();
                t.window.sim_open = ctx.now();
                t.window.host_open = self.started.elapsed();
            }
            self.probe(ctx, true);
        })
    }

    /// A client has verified its last operation. The last one to do so
    /// closes the window.
    pub fn client_done(self: &Arc<Session>, ctx: &ProcessCtx, r: ClientReport) {
        let mut t = self.tally.lock();
        let conn_ns: u64 = r.samples_ns.iter().sum();
        t.per_conn.push((r.samples_ns.len() as u64, conn_ns));
        t.samples_ns.extend_from_slice(&r.samples_ns);
        t.attempted += r.attempted;
        t.failed += r.failed;
        t.verified_bytes += r.verified_bytes;
        t.write_calls += r.write_calls;
        t.conn_stats += r.conn_stats;
        let last = {
            let mut left = self.finishers_left.lock();
            *left -= 1;
            *left == 0
        };
        if last {
            t.window.sim_close = ctx.now();
            t.window.host_close = self.started.elapsed();
            drop(t);
            self.probe(ctx, false);
        }
    }

    /// Add a server-side connection's counters and write calls (no samples).
    pub fn server_conn_done(&self, write_calls: u64, stats: Option<ConnStats>) {
        let mut t = self.tally.lock();
        t.write_calls += write_calls;
        if let Some(s) = stats {
            t.conn_stats += s;
        }
    }

    /// Unwrap a set-up step (listen, accept, connect); on error record the
    /// violation and give `None`, on which the process just ends — the run
    /// then never closes its window and is rejected.
    pub fn setup<T>(&self, what: &str, r: Result<T, impl std::fmt::Display>) -> Option<T> {
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// Record a correctness violation; any one fails the run.
    pub fn fail(&self, what: impl Into<String>) {
        let mut t = self.tally.lock();
        if t.errors.len() < 20 {
            t.errors.push(what.into());
        }
    }

    /// Drive the simulation to completion and collect the record.
    pub fn finish(self: Arc<Session>, sim: &Sim) -> RunRecord {
        sim.run_until(SimTime::from_secs(3600));
        let reg = sim.telemetry();
        reg.sample_now(sim.now().nanos());
        let telemetry = reg.snapshot();
        let live_conns = self.bed.live_conns();
        let mut t = std::mem::take(&mut *self.tally.lock());
        if t.close_counters.is_none() {
            t.errors
                .push("the workload did not run to completion (window never closed)".into());
        }
        RunRecord {
            samples_ns: t.samples_ns,
            per_conn: t.per_conn,
            attempted: t.attempted,
            failed: t.failed,
            verified_bytes: t.verified_bytes,
            write_calls: t.write_calls,
            conn_stats: t.conn_stats,
            errors: t.errors,
            window: t.window,
            open: t.open_counters.unwrap_or_default(),
            close: t.close_counters.unwrap_or_default(),
            telemetry,
            live_conns,
            spans: self.spans.take(),
            anchors: Vec::new(),
            headline: HeadlineRtt::default(),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct RunRecord {
    /// Sim nanoseconds per measured operation.
    pub samples_ns: Vec<u64>,
    /// Per connection: operations and the sim nanoseconds they took.
    pub per_conn: Vec<(u64, u64)>,
    /// Operations issued in the window.
    pub attempted: u64,
    /// Operations failed, refused or wrong.
    pub failed: u64,
    /// Payload bytes verified in the window.
    pub verified_bytes: u64,
    /// Facade write calls, whole run.
    pub write_calls: u64,
    /// Substrate per-connection counters summed, whole run.
    pub conn_stats: ConnStats,
    /// Correctness violations.
    pub errors: Vec<String>,
    /// The measured window.
    pub window: Window,
    /// Public counters at window open.
    pub open: Counters,
    /// Public counters at window close.
    pub close: Counters,
    /// The telemetry registry after the run drained.
    pub telemetry: RegistrySnapshot,
    /// Connections still open after the run drained.
    pub live_conns: usize,
    /// Recorded spans (empty unless traced).
    pub spans: Vec<Span>,
    /// The six paper anchors (`paper_anchors` only).
    pub anchors: Vec<Anchor>,
    /// Round trips of the DS_DA_UQ anchor (`paper_anchors` only).
    pub headline: HeadlineRtt,
}
