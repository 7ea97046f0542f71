//! The DiffPattern pipeline benchmark.
//!
//! One command runs one of three workloads against one canonical model
//! (`PipelineConfig::tiny()` trained for 150 iterations from a fixed
//! seed), prints every metric by name with its unit, checks every
//! output, and ends with a one-line JSON summary. `--trace 1` runs the
//! same workload with spans recorded around the benchmark's calls into
//! each layer and prints the per-layer metrics instead. See README.md
//! in this directory for the workloads, metrics and the layer → metric
//! → workload map.

pub mod gen;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;

mod common;
mod library_build;
mod probes;
mod replay;
mod serve_ladder;
mod setup;
mod wire_fastchain;

use report::Report;
use std::path::{Path, PathBuf};

/// Any failure that stops a run before it can report.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller, 64-pattern requests into a library.
    LibraryBuild,
    /// Open loop at 20, 40 and 80 requests per second, in process.
    ServeLadder,
    /// Closed loop over two keep-alive connections, strided sampling
    /// with Solving-E donors.
    WireFastchain,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::LibraryBuild,
        Workload::ServeLadder,
        Workload::WireFastchain,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LibraryBuild => "library_build",
            Workload::ServeLadder => "serve_ladder",
            Workload::WireFastchain => "wire_fastchain",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does besides its timed phase. [`Scale::full`]
/// is the benchmark; [`Scale::smoke`] is the reduced scale the tests
/// run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training iterations of the benchmark model.
    pub train_iters: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// The closed loops' heads: requests at the start of the list that
    /// every run completes, for `library_build` and for `wire_fastchain`.
    /// Diversity, uniqueness, program counts and the digest are taken
    /// over them, so they repeat exactly for one seed.
    pub head_requests: Heads,
    /// Requests of the head regenerated in process after the timed
    /// phase and compared byte for byte with what the run delivered.
    pub verify_requests: Heads,
    /// Lanes driven through the layer replay of a traced run.
    pub replay_lanes: usize,
    /// Lanes of the specs sent one at a time through the wire probe of
    /// a traced run (whole specs, at least two).
    pub probe_lanes: usize,
}

/// A request count for each closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Heads {
    /// For `library_build`.
    pub library_build: usize,
    /// For `wire_fastchain`.
    pub wire_fastchain: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            train_iters: 150,
            setup_repeats: 3,
            head_requests: Heads {
                library_build: 8,
                wire_fastchain: 256,
            },
            verify_requests: Heads {
                library_build: 2,
                wire_fastchain: 64,
            },
            replay_lanes: 128,
            probe_lanes: 64,
        }
    }

    /// The reduced scale of the smoke tests.
    pub fn smoke() -> Scale {
        Scale {
            train_iters: 20,
            setup_repeats: 2,
            head_requests: Heads {
                library_build: 1,
                wire_fastchain: 8,
            },
            verify_requests: Heads {
                library_build: 1,
                wire_fastchain: 8,
            },
            replay_lanes: 16,
            probe_lanes: 4,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work besides the timed phase.
    pub scale: Scale,
    /// Where libraries, spans and digests are written.
    pub work_dir: PathBuf,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            scale: Scale::full(),
            work_dir: default_work_dir(),
        })
    }
}

/// `$CARGO_TARGET_DIR/perfbench-work`, defaulting to `.bench_build`
/// under the current directory: everything a run writes stays inside
/// the checkout it runs from.
pub fn default_work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Path::new(&target).join("perfbench-work")
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Set-up failures, I/O errors and requests the program could not
/// serve; output that is wrong is reported through the report's checks
/// instead.
pub fn run(opts: &Options, host: &host::Host) -> Result<Report, BenchError> {
    let run_dir = opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)?;
    let mut report = Report::new(opts.trace);
    report.set("dp_nn.gemm_calibration_ms", host.gemm_calibration_ms);

    let repeats = if opts.trace {
        1
    } else {
        opts.scale.setup_repeats
    };
    let setup = setup::repeated(
        opts.scale.train_iters,
        repeats,
        opts.workload == Workload::WireFastchain,
        &mut report,
    )?;

    let digest = match opts.workload {
        Workload::LibraryBuild => library_build::run(&setup, opts, &run_dir, &mut report)?,
        Workload::ServeLadder => serve_ladder::run(&setup, opts, &run_dir, &mut report)?,
        Workload::WireFastchain => wire_fastchain::run(&setup, opts, &run_dir, &mut report)?,
    };
    drop(setup);

    report.set("peak_rss_mb", common::peak_rss_mb());
    common::check_digest(opts, digest, &mut report)?;
    report.seal();
    std::fs::remove_dir_all(&run_dir)?;
    Ok(report)
}
