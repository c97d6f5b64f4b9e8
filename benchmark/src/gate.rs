//! The correctness gate: what must hold for a run's numbers to count.
//!
//! Byte-for-byte verification happens inside the workloads (they record a
//! violation as they find it); this adds the accounting and the end-of-run
//! drains. Any violation fails the run and no metric of it is printed.

use crate::harness::RunRecord;

/// Every violation `rec` shows as a run of `workload`; empty = correct.
pub fn violations(workload: &str, rec: &RunRecord) -> Vec<String> {
    let mut v = rec.errors.clone();
    if !rec.anchors.is_empty() {
        // `paper_anchors` runs the repo's own microbenchmarks; its check is
        // the anchors' distance from the paper, already in `errors`.
        return v;
    }
    let completed = rec.samples_ns.len() as u64;
    if rec.attempted == 0 {
        v.push("no operation was attempted in the window".into());
    }
    if rec.attempted != completed + rec.failed {
        v.push(format!(
            "attempted {} != completed {completed} + failed {}",
            rec.attempted, rec.failed
        ));
    }
    if rec.failed != 0 {
        v.push(format!("{} operations failed", rec.failed));
    }
    if rec.live_conns != 0 {
        v.push(format!(
            "{} connections still open after the drain",
            rec.live_conns
        ));
    }
    let t = &rec.telemetry;
    for (name, s) in &t.series {
        let drained = name.starts_with("sock.") && name.ends_with(".conns_live");
        if let (true, Some(&(_, last))) = (drained, s.points.last()) {
            if last != 0 {
                v.push(format!("{name} reads {last} after the drain"));
            }
        }
    }
    for (name, &g) in &t.gauges {
        if (name.starts_with("ring.") || name == "exec.tasks_live") && g != 0 {
            v.push(format!("{name} reads {g} after the drain"));
        }
    }
    // The links of every workload but the lossy one are lossless: whatever
    // is retransmitted there is the protocol timing out under load (it is
    // reported, as `emp-proto.frames_retransmitted`), never a lost frame.
    let lost = rec.close.link_dropped.saturating_sub(rec.open.link_dropped);
    let retransmitted = rec
        .close
        .emp
        .frames_retransmitted
        .saturating_sub(rec.open.emp.frames_retransmitted);
    if workload == "stream_lossy.emp" {
        if lost == 0 || retransmitted == 0 {
            v.push(format!(
                "the fault plan did not bite: {lost} frames lost, {retransmitted} retransmitted"
            ));
        }
    } else if lost != 0 {
        v.push(format!("{lost} frames lost on lossless links"));
    }
    v
}
