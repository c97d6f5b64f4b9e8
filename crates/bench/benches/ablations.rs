//! Criterion wrapper for the design-choice ablations: the §5.2
//! communication-thread alternatives and §6.1 piggy-backed acks.

use criterion::{criterion_group, criterion_main, Criterion};
use emp_apps::{pingpong, Testbed};
use emp_proto::EmpConfig;
use simnet::Sim;
use sockets_emp::{RecvMode, SubstrateConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    for (label, mode) in [
        ("direct", RecvMode::Direct),
        ("commthread_polling", RecvMode::CommThreadPolling),
        ("commthread_blocking", RecvMode::CommThreadBlocking),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = SubstrateConfig::ds_da_uq();
                cfg.recv_mode = mode;
                let sim = Sim::new();
                let tb = Testbed::emp(2, EmpConfig::default(), cfg, label);
                pingpong::one_way_latency_us(&sim, &tb, 4, 5)
            })
        });
    }
    g.bench_function("piggyback_on", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let cfg = SubstrateConfig {
                piggyback_acks: true,
                ..SubstrateConfig::ds_da().with_credits(4)
            };
            let tb = Testbed::emp(2, EmpConfig::default(), cfg, "pb");
            pingpong::one_way_latency_us(&sim, &tb, 4, 5)
        })
    });
    g.bench_function("single_cpu_nic_bidirectional", |b| {
        b.iter(|| {
            let mut emp_cfg = EmpConfig::default();
            emp_cfg.nic.single_cpu = true;
            let sim = Sim::new();
            let tb = Testbed::emp(2, emp_cfg, SubstrateConfig::ds_da_uq(), "1cpu");
            emp_apps::bandwidth::bidirectional_mbps(&sim, &tb, 64 * 1024, 1 << 20)
        })
    });
    g.bench_function("datacenter_kv_emp", |b| {
        b.iter(|| emp_apps::kvstore::run_workload(&Testbed::emp_default(4), 3, 20, 128, 0.9, 7))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
