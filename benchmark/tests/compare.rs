//! Verdicts of `compare`, and the JSON it reads.

use emp_benchmark::compare::{judge, worsening, Verdict};
use emp_benchmark::json::{self, Value};
use emp_benchmark::metrics::Better;

#[test]
fn worsening_follows_the_direction() {
    assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
    assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    assert_eq!(worsening(5.0, 5.0, Better::Lower), 0.0);
}

#[test]
fn bounded_metrics() {
    let b = Some(0.05);
    assert_eq!(judge(0.0, b, Some(0.0), false), Verdict::Same);
    assert_eq!(judge(0.04, b, Some(0.0), false), Verdict::Same);
    assert_eq!(judge(0.06, b, Some(0.0), false), Verdict::Worse);
    assert_eq!(judge(-0.06, b, Some(0.0), false), Verdict::Better);
    // Spread wider than the bound, difference inside it: cannot tell.
    assert_eq!(judge(0.06, b, Some(0.08), true), Verdict::Unresolved);
    assert_eq!(judge(-0.03, b, Some(0.08), true), Verdict::Unresolved);
    // ... but a difference beyond even the spread still resolves.
    assert_eq!(judge(0.20, b, Some(0.08), true), Verdict::Worse);
    // A spread inside the bound never blocks a verdict.
    assert_eq!(judge(0.06, b, Some(0.03), true), Verdict::Worse);
    assert_eq!(judge(0.06, b, None, true), Verdict::Worse);
}

#[test]
fn unbounded_per_layer_metrics() {
    assert_eq!(judge(0.0, None, None, false), Verdict::Same);
    assert_eq!(judge(0.001, None, None, false), Verdict::Worse);
    assert_eq!(judge(-0.001, None, None, false), Verdict::Better);
    // One noisy reading a side resolves nothing.
    assert_eq!(judge(0.3, None, None, true), Verdict::Unresolved);
    assert_eq!(judge(0.0, None, None, true), Verdict::Same);
}

#[test]
fn json_round_trips_with_every_digit() {
    let text = r#"{"a":[1,2.5,-3e-7,true,null],"s":"q\"\\\nz","o":{"k":0.1}}"#;
    let v = json::parse(text).unwrap();
    assert_eq!(json::parse(&v.render()).unwrap(), v);
    let x = 14187.818339173986_f64;
    let back = json::parse(&Value::Num(x).render()).unwrap();
    assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    assert!(json::parse("{\"a\":1} x").is_err());
    assert!(json::parse("[1,").is_err());
    assert!(json::parse(&"[".repeat(200)).is_err(), "depth is bounded");
}
