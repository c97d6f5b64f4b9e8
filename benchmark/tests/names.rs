//! Every name the benchmark prints obeys the manifest's rules and appears
//! in `BENCHMARK.json`, and the other way round.

use std::path::Path;

use emp_benchmark::manifest::Manifest;
use emp_benchmark::metrics::{END_TO_END, PER_LAYER};
use emp_benchmark::workloads::WORKLOADS;

fn manifest() -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Manifest::load(&path).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn well_formed_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for w in WORKLOADS {
        assert!(well_formed(w), "workload name {w}");
        assert!(seen.insert(w.to_string()), "{w} used twice");
    }
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(well_formed(d.name), "metric name {}", d.name);
        assert!(well_formed_unit(d.unit), "unit {} of {}", d.unit, d.name);
        assert!(seen.insert(d.name.to_string()), "{} used twice", d.name);
    }
}

#[test]
fn catalogue_and_manifest_agree() {
    let m = manifest();
    assert_eq!(m.workloads, WORKLOADS);
    for (declared, defs) in [
        (&m.end_to_end, &END_TO_END[..]),
        (&m.per_layer, &PER_LAYER[..]),
    ] {
        assert_eq!(declared.len(), defs.len());
        for (mm, d) in declared.iter().zip(defs) {
            assert_eq!(mm.name, d.name);
            assert_eq!(mm.unit, d.unit, "unit of {}", d.name);
            assert_eq!(mm.better, d.better.word(), "direction of {}", d.name);
        }
    }
    m.check_names(false, END_TO_END.iter().map(|d| d.name))
        .unwrap();
    m.check_names(true, PER_LAYER.iter().map(|d| d.name))
        .unwrap();
    assert!(m
        .check_names(false, END_TO_END.iter().skip(1).map(|d| d.name))
        .is_err());
}

#[test]
fn manifest_obeys_the_contract_limits() {
    let m = manifest();
    assert!((2..=8).contains(&m.workloads.len()));
    assert!((1..=16).contains(&m.end_to_end.len()));
    assert!((1..=128).contains(&m.per_layer.len()));
    assert!((1..=60).contains(&m.run_seconds));
    for e in &m.end_to_end {
        let bound = e.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", e.name);
    }
    assert!(m.per_layer.iter().all(|p| p.bound.is_none()));
    let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = m
        .end_to_end
        .iter()
        .filter_map(|e| e.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "set-up time gets the largest bound"
    );
}
