//! `empstat` — the testbed's `netstat`/`ss`: run the standard workload
//! (ping-pong + event-loop webserver on one substrate testbed) and print
//! everything the always-on telemetry registry collected.
//!
//! ```text
//! cargo run --release -p emp-bench --bin empstat             # tables
//! cargo run --release -p emp-bench --bin empstat -- --json   # JSON export
//! cargo run --release -p emp-bench --bin empstat -- --prom   # Prometheus text
//! cargo run --release -p emp-bench --bin empstat -- --overhead
//! cargo run --release -p emp-bench --bin empstat -- --overload
//! ```
//!
//! The table form also prints each NIC's firmware busy time by task kind.
//! With `--json`/`--prom` the export goes to stdout and the workload
//! summary, per-NIC table and self-check lines to stderr, so the output
//! pipes cleanly into files or scrapers. The process exits non-zero if
//! the self-check fails (a named histogram recorded nothing, or the
//! default data path was not taken) — the `telemetry-smoke` stage of
//! `ci.sh` relies on that. `--overhead` instead microbenchmarks the
//! telemetry hot paths and fails if the estimated share of an
//! instrumented ping-pong exceeds the 2% budget. `--overload` runs the
//! connect-storm + slowloris smoke on both stacks and fails unless
//! admission control refused connections while real clients were still
//! served, the refusals show up as telemetry counters, the idle reaper
//! fired, and nothing leaked — the `overload-smoke` stage of `ci.sh`
//! relies on that.

use emp_bench::stat;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        None => "table",
        Some("--json") => "json",
        Some("--prom") => "prom",
        Some("--overhead") => "overhead",
        Some("--overload") => "overload",
        Some(other) => {
            eprintln!("usage: empstat [--json | --prom | --overhead | --overload] (got '{other}')");
            std::process::exit(2);
        }
    };

    if mode == "overload" {
        match stat::run_overload_smoke() {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if mode == "overhead" {
        let report = stat::measure_overhead();
        println!("{}", report.text());
        if report.overhead_pct >= 2.0 {
            eprintln!(
                "FAIL: telemetry overhead {:.3}% exceeds the 2% budget",
                report.overhead_pct
            );
            std::process::exit(1);
        }
        return;
    }

    let run = stat::run_standard_workload();
    let summary = stat::workload_summary(&run);
    let nics = stat::nic_profile_table(&run.nics);
    let check = match stat::self_check(&run) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{summary}");
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    match mode {
        "table" => {
            println!("{summary}");
            println!("{check}");
            println!();
            println!("{nics}");
            print!("{}", run.snapshot.render_table());
        }
        "json" => {
            eprintln!("{summary}");
            eprint!("{nics}");
            eprintln!("{check}");
            print!("{}", run.snapshot.to_json());
        }
        "prom" => {
            eprintln!("{summary}");
            eprint!("{nics}");
            eprintln!("{check}");
            print!("{}", run.snapshot.render_prom());
        }
        _ => unreachable!(),
    }
}
