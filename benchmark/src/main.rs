//! `emp-benchmark` — see `benchmark/README.md`. `benchmark/run.sh` builds
//! this and passes its arguments through.

use std::process::ExitCode;

use emp_benchmark::cli;

fn main() -> ExitCode {
    // Taken first: `setup_s` counts from process start.
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(started, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("emp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
