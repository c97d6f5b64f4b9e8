//! Span self time: duration minus the part the children cover.

use emp_benchmark::spans::{covered, self_times, Clock, Span, NO_PARENT};

fn span(id: u64, parent: u64, sim: (u64, u64), host: (u64, u64)) -> Span {
    Span {
        id,
        parent,
        req: 1,
        layer: "core",
        name: "x",
        proc_id: 1,
        sim_start_ns: sim.0,
        sim_end_ns: sim.1,
        host_start_ns: host.0,
        host_end_ns: host.1,
    }
}

#[test]
fn nested_children_are_subtracted_level_by_level() {
    // root 0..100 > child 10..60 > grandchild 20..30
    let spans = vec![
        span(1, NO_PARENT, (0, 100), (0, 1000)),
        span(2, 1, (10, 60), (100, 600)),
        span(3, 2, (20, 30), (200, 300)),
    ];
    // A span gives up only what its direct children cover.
    assert_eq!(self_times(&spans, Clock::Sim), vec![50, 40, 10]);
    assert_eq!(self_times(&spans, Clock::Host), vec![500, 400, 100]);
    // Self times of a tree sum to the root's duration.
    assert_eq!(self_times(&spans, Clock::Sim).iter().sum::<u64>(), 100);
}

#[test]
fn overlapping_children_count_once() {
    // Children 10..50 and 30..70 overlap in 30..50; a third, 80..90, is
    // disjoint. Covered: 10..70 and 80..90 = 70.
    let spans = vec![
        span(1, NO_PARENT, (0, 100), (0, 100)),
        span(2, 1, (10, 50), (10, 50)),
        span(3, 1, (30, 70), (30, 70)),
        span(4, 1, (80, 90), (80, 90)),
    ];
    assert_eq!(self_times(&spans, Clock::Sim)[0], 30);
}

#[test]
fn children_are_clipped_to_the_parent() {
    // A child that outlives its parent covers only the shared part.
    let spans = vec![
        span(1, NO_PARENT, (10, 50), (0, 0)),
        span(2, 1, (0, 20), (0, 0)),
        span(3, 1, (40, 90), (0, 0)),
    ];
    assert_eq!(self_times(&spans, Clock::Sim)[0], 20);
}

#[test]
fn contained_and_identical_children() {
    let mut both = [(10, 40), (10, 40), (15, 20)];
    assert_eq!(covered((0, 100), &mut both), 30);
    let mut none: [(u64, u64); 0] = [];
    assert_eq!(covered((0, 100), &mut none), 0);
    // A leaf's self time is its duration.
    let leaf = vec![span(1, NO_PARENT, (5, 9), (1, 2))];
    assert_eq!(self_times(&leaf, Clock::Sim), vec![4]);
}
