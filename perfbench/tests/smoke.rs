//! Reduced-scale runs of every workload, untraced and traced: each must
//! pass its output checks, and a second untraced run with the same seed
//! must reproduce the first one's digest.
//!
//! They train a model and serve real requests, so run them optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dp_perfbench::host::Host;
use dp_perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool, seconds: f64) -> Options {
    Options {
        workload,
        seed: 5,
        seconds,
        trace,
        scale: Scale::smoke(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}", workload.name())),
    }
}

fn assert_correct(opts: &Options, host: &Host) {
    let report = run(opts, host).expect("the run reports");
    let failed: Vec<_> = report.checks().iter().filter(|c| !c.passed).collect();
    assert!(
        failed.is_empty(),
        "{}: {failed:#?}\n{}",
        opts.workload.name(),
        report.human()
    );
    let line = report.json_line();
    let json = dp_serve::json::parse(&line).expect("the last line is JSON");
    assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert!(json.get("attempted").and_then(|v| v.as_int()).unwrap_or(0) >= 1);
}

fn smoke(workload: Workload, seconds: f64) {
    let host = Host::probe();
    let untraced = options(workload, false, seconds);
    // The first run stores its digest, the second must match it.
    assert_correct(&untraced, &host);
    assert_correct(&untraced, &host);
    assert_correct(&options(workload, true, seconds), &host);
}

#[test]
fn library_build_smoke() {
    // Long enough for more than ten requests, so tails exist.
    smoke(Workload::LibraryBuild, 6.0);
}

#[test]
fn serve_ladder_smoke() {
    smoke(Workload::ServeLadder, 2.0);
}

#[test]
fn wire_fastchain_smoke() {
    smoke(Workload::WireFastchain, 1.0);
}

#[test]
fn arguments_are_parsed_and_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let opts = Options::parse(&args(
        "--workload serve_ladder --seed 9 --seconds 12 --trace 1",
    ))
    .expect("valid arguments");
    assert_eq!(opts.workload, Workload::ServeLadder);
    assert_eq!((opts.seed, opts.seconds, opts.trace), (9, 12.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve_ladder --seed x --seconds 1 --trace 0",
        "--workload serve_ladder --seed 1 --seconds 0 --trace 0",
        "--workload serve_ladder --seed 1 --seconds 1 --trace 2",
        "--workload serve_ladder --seed 1 --trace 0",
        "--workload serve_ladder --seed 1 --seconds 1 --trace",
    ] {
        assert!(Options::parse(&args(bad)).is_err(), "{bad}");
    }
}
