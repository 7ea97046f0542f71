//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, the report, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when an output check fails and 2 when the run cannot
//! report at all.

use dp_perfbench::host::Host;
use dp_perfbench::{run, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <library_build|serve_ladder|wire_fastchain> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!("{host}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    match run(&opts, &host) {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
