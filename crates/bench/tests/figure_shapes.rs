//! The quick-profile figures, computed once per test run. The golden test
//! pins every point of them byte for byte against the committed
//! `figures.quick.json`; the shape tests pin the qualitative relationships
//! the paper's figures show — who wins, where, and in which direction the
//! curves move — so a regenerated golden still has to tell the paper's
//! story.

use std::sync::OnceLock;

use emp_bench::report::parallel_sweep;
use emp_bench::{figures, figures_json, Figure, Profile};

/// The committed golden: `figures --quick --json` of every figure.
const GOLDEN: &str = include_str!("figures.quick.json");
const GOLDEN_PATH: &str = "crates/bench/tests/figures.quick.json";

/// Every quick-profile figure, simulated once for the whole binary.
fn quick_figures() -> &'static [Figure] {
    static FIGURES: OnceLock<Vec<Figure>> = OnceLock::new();
    FIGURES.get_or_init(|| figures::all_figures(Profile::Quick))
}

/// The quick-profile figure with id `id`.
fn fig(id: &str) -> &'static Figure {
    quick_figures()
        .iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("no figure '{id}'"))
}

/// The last value of `"key": "..."` at or above line `at`.
fn enclosing(lines: &[&str], at: usize, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    lines[..=at.min(lines.len() - 1)]
        .iter()
        .rev()
        .find_map(|l| {
            let rest = &l[l.find(&pat)? + pat.len()..];
            Some(rest[..rest.find('"')?].to_string())
        })
        .unwrap_or_else(|| "-".to_string())
}

#[test]
fn quick_figures_match_golden() {
    for ((name, _), fig) in figures::FIGURES.iter().zip(quick_figures()) {
        assert_eq!(*name, fig.id, "figure table name and id disagree");
    }
    let fresh = figures_json(quick_figures());
    if fresh == GOLDEN {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), fresh.lines().collect());
    let at = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(0);
    let series = if new.get(at).is_some_and(|l| l.contains("\"label\": \"")) {
        enclosing(&new, at, "label")
    } else {
        "-".to_string()
    };
    panic!(
        "quick figures differ from {GOLDEN_PATH} at line {}: figure {}, series {series}\n\
         golden: {}\n fresh: {}\n\
         If the change is meant to move this figure, regenerate the golden and commit its diff:\n  \
         cargo run --release -p emp-bench --bin figures -- --quick --json {GOLDEN_PATH}",
        at + 1,
        enclosing(&new, at, "id"),
        old.get(at).unwrap_or(&"<end of file>"),
        new.get(at).unwrap_or(&"<end of file>"),
    );
}

#[test]
fn fig11_enhancement_progression() {
    let fig = fig("fig11");
    let at4 = |label: &str| fig.value(label, 4.0).expect("4-byte point");
    assert!(at4("DS") > at4("DS_DA"), "delayed acks help");
    assert!(at4("DS_DA_UQ") > at4("DG"), "datagram beats streaming");
    // §7.1: "The Datagram option performs the closest to EMP ... an
    // overhead of as low as 1 us over EMP". Within the measurement's
    // harness-structure noise, DG tracks raw EMP to well under 1 us.
    assert!(
        (at4("DG") - at4("EMP")).abs() < 1.0,
        "datagram stays within ~1 us of raw EMP (paper §7.1): DG {} vs EMP {}",
        at4("DG"),
        at4("EMP")
    );
}

#[test]
fn fig12_delayed_acks_decay_with_credits() {
    let fig = fig("fig12");
    let da = |x: f64| fig.value("DS_DA", x).expect("point");
    let ds = |x: f64| fig.value("DS", x).expect("point");
    assert!(da(32.0) < da(1.0), "latency drops with credit size");
    assert!((ds(1.0) - ds(32.0)).abs() < 1.0, "DS stays flat");
    assert!(
        (da(1.0) - ds(1.0)).abs() < 1.0,
        "at credit 1 delayed acks degenerate to per-message acks"
    );
}

#[test]
fn fig13_substrate_beats_tcp_on_both_axes() {
    let lat = fig("fig13a");
    let tcp = lat.value("TCP-16K", 4.0).expect("point");
    let dg = lat.value("Datagram", 4.0).expect("point");
    let ds = lat.value("DataStream", 4.0).expect("point");
    assert!(
        (3.0..6.0).contains(&(tcp / dg)),
        "datagram latency improvement ~4.2x (paper): {:.2}",
        tcp / dg
    );
    assert!(
        (2.5..4.5).contains(&(tcp / ds)),
        "streaming latency improvement ~3.4x (paper): {:.2}",
        tcp / ds
    );

    let bw = fig("fig13b");
    let emp = bw.value("DataStream", 65536.0).expect("point");
    let tcp16 = bw.value("TCP-16K", 65536.0).expect("point");
    let tcp_big = bw.value("TCP-256K", 65536.0).expect("point");
    assert!(tcp16 < tcp_big, "bigger kernel buffers help TCP");
    assert!(emp > tcp_big * 1.35, "substrate wins by >35% (paper: 53%)");
}

#[test]
fn fig14_ftp_ordering() {
    let fig = fig("fig14");
    let x = (4 << 20) as f64;
    let ds = fig.value("DataStream", x).expect("point");
    let dg = fig.value("Datagram", x).expect("point");
    let tcp = fig.value("TCP", x).expect("point");
    assert!(ds > tcp && dg > tcp, "both substrate modes beat TCP");
    assert!(
        (ds - dg).abs() / ds < 0.15,
        "DS and DG overlap under file-system overhead (paper §7.3)"
    );
}

#[test]
fn fig15_fig16_webserver_gap_narrows_with_http11() {
    let f15 = fig("fig15");
    let f16 = fig("fig16");
    for x in [4.0, 1024.0] {
        let r10 = f15.value("TCP", x).unwrap() / f15.value("Substrate", x).unwrap();
        let r11 = f16.value("TCP", x).unwrap() / f16.value("Substrate", x).unwrap();
        assert!(r10 > 2.0, "HTTP/1.0 speedup at {x}: {r10:.2}");
        assert!(r11 > 1.2, "HTTP/1.1 still wins at {x}: {r11:.2}");
        assert!(r11 < r10, "persistent connections narrow the gap at {x}");
    }
}

#[test]
fn fig17_matmul_gap_shrinks_with_n() {
    let fig = fig("fig17");
    let gap = |n: f64| fig.value("TCP", n).unwrap() / fig.value("Substrate", n).unwrap();
    assert!(gap(48.0) > 1.0 && gap(96.0) > 1.0, "substrate always wins");
}

#[test]
fn ablations_match_the_papers_qualitative_claims() {
    let ct = fig("ablation-commthread");
    let direct = ct.value("DS_DA_UQ", 0.0).unwrap();
    let polling = ct.value("DS_DA_UQ", 1.0).unwrap();
    let blocking = ct.value("DS_DA_UQ", 2.0).unwrap();
    assert!(
        (35.0..50.0).contains(&(polling - direct)),
        "polling thread adds ~2x20 us per round trip: +{:.1}",
        polling - direct
    );
    assert!(blocking > 2_000.0, "blocking thread is milliseconds");

    let pb = fig("ablation-piggyback");
    let off = pb.value("DS_DA_UQ", 0.0).unwrap();
    let on = pb.value("DS_DA_UQ", 1.0).unwrap();
    assert!(on < off, "piggy-backing helps bidirectional traffic");

    let nc = fig("ablation-nic-cpus");
    let bi1 = nc.value("bidirectional", 1.0).unwrap();
    let bi2 = nc.value("bidirectional", 2.0).unwrap();
    assert!(
        bi2 > bi1 * 1.15,
        "two firmware CPUs clearly win bidirectionally: {bi2:.0} vs {bi1:.0}"
    );

    let cpu = fig("cpu-utilization");
    let tcp_ms = cpu.value("kernel CPU", 0.0).unwrap();
    let emp_ms = cpu.value("kernel CPU", 1.0).unwrap();
    assert!(tcp_ms > 10.0, "kernel TCP burns host CPU: {tcp_ms:.1} ms");
    assert_eq!(emp_ms, 0.0, "the substrate burns none (§2 claim)");
}

#[test]
fn connect_time_and_kv_match_paper_mechanisms() {
    let ct = fig("connect-time");
    let tcp_block = ct.value("connect() blocks", 0.0).unwrap();
    let emp_block = ct.value("connect() blocks", 1.0).unwrap();
    assert!(
        (180.0..280.0).contains(&tcp_block),
        "TCP connect ~200-250 us (paper §7.4): {tcp_block:.0}"
    );
    assert!(
        emp_block < 40.0,
        "substrate connect just posts: {emp_block:.0}"
    );

    let kv = fig("datacenter-kv");
    let emp = kv.value("Substrate", 64.0).unwrap();
    let tcp = kv.value("TCP", 64.0).unwrap();
    assert!(
        tcp / emp > 2.0,
        "kv service ops ~3x faster on the substrate: {:.2}",
        tcp / emp
    );
}

#[test]
fn figure_json_serializes() {
    let fig = fig("fig12");
    let json = fig.to_json();
    assert!(json.contains("\"id\": \"fig12\""));
    assert!(json.contains("\"points\""));
    assert!(json.trim_end().ends_with('}'));
}

#[test]
fn overload_goodput_degrades_gracefully_past_saturation() {
    // The robustness acceptance: goodput at 4x saturation stays within
    // 20% of the peak across the at-or-past-saturation loads on both
    // stacks — admission control sheds the excess instead of letting
    // the server collapse. The 0.5x point is deliberately excluded from
    // the peak: below saturation nothing is refused, so every client is
    // served back-to-back and the serving window measures uncontended
    // burst throughput, not the saturated service rate the claim is
    // about. Refusals/sheds must actually happen at 4x (the storm is
    // past saturation by construction).
    use emp_apps::Testbed;
    for make in [
        (&|| Testbed::emp_default(4)) as &(dyn Fn() -> Testbed + Sync),
        &|| Testbed::kernel_default(4),
    ] {
        let loads = [0.5, 1.0, 2.0, 4.0];
        let reports = parallel_sweep(&loads, |&l| figures::overload_point(&make(), l, 32));
        let label = make().nodes[0].api.label().to_string();
        let goodputs: Vec<f64> = reports.iter().map(|r| r.goodput_mbps()).collect();
        let peak = goodputs[1..].iter().cloned().fold(0.0, f64::max);
        let at4 = goodputs[3];
        assert!(
            goodputs[0] > 0.0,
            "{label}: no goodput below saturation ({goodputs:?})"
        );
        assert!(peak > 0.0, "{label}: no goodput anywhere in the sweep");
        assert!(
            at4 >= 0.8 * peak,
            "{label}: goodput collapsed past saturation: {at4:.1} Mbps at 4x \
             vs {peak:.1} Mbps peak ({goodputs:?})"
        );
        let r4 = &reports[3];
        assert!(
            r4.outcomes.refused + r4.shed > 0,
            "{label}: 4x saturation must trip admission control: {r4:?}"
        );
        assert_eq!(
            r4.leaked_conns + r4.leaked_listeners,
            0,
            "{label}: leaked state after the 4x storm: {r4:?}"
        );
    }
}
