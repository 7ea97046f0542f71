//! Measurements and checks shared by the workloads.

use crate::gen::Rules;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{BenchError, Options};
use diffpattern::datagen::PatternLibrary;
use diffpattern::library::codec::{fnv1a, pack_bits, FNV_OFFSET};
use diffpattern::library::Record;
use diffpattern::squish::SquishPattern;
use diffpattern::{Generated, PatternService, PipelineReport};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The bytes that identify a pattern: shape, packed topology, Δx, Δy.
pub fn pattern_bytes(p: &SquishPattern) -> Vec<u8> {
    let topo = p.topology();
    let mut out = Vec::new();
    out.extend_from_slice(&(topo.width() as u32).to_le_bytes());
    out.extend_from_slice(&(topo.height() as u32).to_le_bytes());
    out.extend_from_slice(&pack_bits(topo));
    for v in p.dx().iter().chain(p.dy()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The legality audit: an independent DRC check of delivered patterns
/// under their requests' rules.
#[derive(Debug, Default)]
pub struct Audit {
    patterns: u64,
    clean: u64,
    violations: u64,
    elapsed: Duration,
}

impl Audit {
    /// Checks one pattern.
    pub fn add(&mut self, pattern: &SquishPattern, rules: Rules) {
        let t0 = Instant::now();
        let drc = diffpattern::drc::check_pattern(pattern, &rules.design_rules());
        self.elapsed += t0.elapsed();
        self.patterns += 1;
        self.clean += u64::from(drc.is_clean());
        self.violations += drc.violations().len() as u64;
    }

    /// Sets `legal_pct` and the `dp_drc` metrics and records the
    /// legality check.
    pub fn report(&self, report: &mut Report) {
        report.check(
            "every delivered pattern is DRC-clean under its request's rules",
            self.patterns > 0 && self.clean == self.patterns,
            format!(
                "{} of {} clean, {} violations",
                self.clean, self.patterns, self.violations
            ),
        );
        report.set(
            "legal_pct",
            100.0 * self.clean as f64 / self.patterns.max(1) as f64,
        );
        report.set(
            "dp_drc.audit_us_per_pattern",
            self.elapsed.as_secs_f64() * 1e6 / self.patterns.max(1) as f64,
        );
        report.set("dp_drc.violations", self.violations as f64);
    }
}

/// Delivered patterns written to a file during a timed phase and
/// audited after it, so the benchmark's own memory does not grow with
/// the program's throughput (which would show in `peak_rss_mb`). Each
/// entry is a length-prefixed `dp_library` record whose ruleset label is
/// the request's rules.
pub struct Spill {
    out: BufWriter<File>,
}

impl Spill {
    /// Creates (truncates) the spill file.
    pub fn create(path: &Path) -> Result<Spill, BenchError> {
        Ok(Spill {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Appends one pattern.
    pub fn push(&mut self, pattern: &SquishPattern, rules: Rules) -> Result<(), BenchError> {
        let payload = Record {
            method: String::new(),
            ruleset: rules.name().to_string(),
            source_index: 0,
            dups_since_prev: 0,
            skips_since_prev: 0,
            legal: true,
            complexity: (0, 0),
            pattern: pattern.clone(),
        }
        .encode()?;
        self.out
            .write_all(&u32::try_from(payload.len())?.to_le_bytes())?;
        self.out.write_all(&payload)?;
        Ok(())
    }

    /// Flushes the file.
    pub fn finish(mut self) -> Result<(), BenchError> {
        self.out.flush()?;
        Ok(())
    }
}

/// Audits every pattern of a spill file; returns how many it held.
pub fn audit_spill(path: &Path, audit: &mut Audit) -> Result<usize, BenchError> {
    let bytes = std::fs::read(path)?;
    let mut rest = bytes.as_slice();
    let mut n = 0;
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*len) as usize;
        if tail.len() < len {
            return Err("truncated spill file".into());
        }
        let record = Record::decode(&tail[..len])?;
        let rules = match record.ruleset.as_str() {
            "standard" => Rules::Standard,
            "smaller_area" => Rules::SmallerArea,
            other => return Err(format!("unknown rules {other:?} in spill file").into()),
        };
        audit.add(&record.pattern, rules);
        rest = &tail[len..];
        n += 1;
    }
    Ok(n)
}

/// Definition-1 diversity of the distinct patterns in `set` (in
/// delivery order), the share of `delivered` that was distinct, and the
/// digest of `set`. `delivered` is at least `set.len()`; it is larger
/// when `set` was already deduplicated (a library's records).
pub fn quality(set: &[SquishPattern], delivered: usize, label: &str, report: &mut Report) -> u64 {
    let mut seen = BTreeSet::new();
    let mut library = PatternLibrary::new();
    let mut digest = FNV_OFFSET;
    for p in set {
        let bytes = pattern_bytes(p);
        digest = fnv1a(digest, &bytes);
        if seen.insert(bytes) {
            // Complexity of the squished core: generated topologies are
            // padded to the model's fixed side.
            library.add_topology(p.topology());
        }
    }
    // `+ 0.0` turns the entropy of a one-class library, -0.0, into 0.
    let diversity = library.diversity() + 0.0;
    report.set_noted(
        "diversity_bits",
        diversity,
        format!("{} distinct of {delivered} patterns {label}", seen.len()),
    );
    report.set(
        "unique_pct",
        100.0 * seen.len() as f64 / delivered.max(1) as f64,
    );
    report.detail(format!(
        "digest {digest:016x} over {} patterns {label}; Definition-1 diversity {diversity:.6} bits over {} distinct",
        set.len(),
        seen.len()
    ));
    digest
}

/// Sets the median and tail of first-item and whole-request latencies.
pub fn latency_metrics(first_ms: &[f64], request_ms: &[f64], label: &str, report: &mut Report) {
    for (p50, tail_name, values) in [
        ("first_item_p50_ms", "first_item_tail_ms", first_ms),
        ("request_p50_ms", "request_tail_ms", request_ms),
    ] {
        let n = values.len();
        report.set_noted(
            p50,
            median(values).unwrap_or(f64::NAN),
            format!("n={n} {label}"),
        );
        match tail(values) {
            Some(t) => report.set_noted(tail_name, t.value, format!("{t} {label}")),
            None => report.set_noted(tail_name, f64::NAN, format!("n={n}: too few samples")),
        }
    }
}

/// Program counts over a set of finished requests, from their
/// [`PipelineReport`]s and the items' provenance.
pub fn program_counts(reports: &[PipelineReport], items: &[&Generated], report: &mut Report) {
    let mut total = PipelineReport::default();
    for r in reports {
        total.merge(r);
    }
    let legal = total.legal_patterns.max(1) as f64;
    let sampled = total.topologies_sampled.max(1) as f64;
    let iterations: usize = items.iter().map(|g| g.provenance.solve.iterations).sum();
    let restarts: usize = items.iter().map(|g| g.provenance.solve.restarts).sum();
    let solved = items.len().max(1) as f64;
    report.set(
        "diffpattern.attempts_per_legal",
        total.topologies_sampled as f64 / legal,
    );
    report.set(
        "dp_geometry.prefilter_repaired_pct",
        100.0 * total.prefilter_repaired as f64 / sampled,
    );
    report.set(
        "dp_geometry.prefilter_rejected_pct",
        100.0 * total.prefilter_rejected as f64 / sampled,
    );
    report.set("dp_legalize.iters_per_solve", iterations as f64 / solved);
    report.set("dp_legalize.restarts_per_solve", restarts as f64 / solved);
    report.set(
        "dp_legalize.failures_pct",
        100.0 * total.solver_failures as f64
            / (total.solver_failures + total.legal_patterns).max(1) as f64,
    );
    report.detail(format!(
        "program counts over {} requests: {total:?}",
        reports.len()
    ));
}

/// Samples [`PatternService::stats`] every 2 ms on its own thread while
/// a traced pass runs.
pub struct StatsPoller {
    stop: AtomicBool,
}

/// Means of the polled scheduler figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolledStats {
    /// Mean lanes waiting to be claimed.
    pub queued_lanes: f64,
    /// Mean lanes claimed and not yet delivered.
    pub lanes_in_flight: f64,
    /// Polls taken.
    pub polls: usize,
}

impl StatsPoller {
    /// A poller that has not started.
    pub fn new() -> Self {
        StatsPoller {
            stop: AtomicBool::new(false),
        }
    }

    /// Polls until [`StatsPoller::stop`] is called.
    pub fn run(&self, service: &PatternService) -> PolledStats {
        let (mut queued, mut in_flight, mut polls) = (0usize, 0usize, 0usize);
        while !self.stop.load(Ordering::SeqCst) {
            let s = service.stats();
            queued += s.queued_lanes;
            in_flight += s.lanes_in_flight;
            polls += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let n = polls.max(1) as f64;
        PolledStats {
            queued_lanes: queued as f64 / n,
            lanes_in_flight: in_flight as f64 / n,
            polls,
        }
    }

    /// Ends [`StatsPoller::run`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Runs `pass` while a [`StatsPoller`] samples the service, and sets the
/// engine metrics: mean queued and in-flight lanes, batch fill, and the
/// queue wait by Little's law from `lanes` submitted over the pass.
pub fn with_engine_stats<T>(
    service: &PatternService,
    report: &mut Report,
    pass: impl FnOnce() -> Result<(T, u64), BenchError>,
) -> Result<T, BenchError> {
    let poller = StatsPoller::new();
    let t0 = Instant::now();
    let (result, polled) = std::thread::scope(|s| {
        let handle = s.spawn(|| poller.run(service));
        let result = pass();
        poller.stop();
        let polled = handle.join().expect("stats poller does not panic");
        (result, polled)
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (value, lanes) = result?;
    let arrival_per_ms = lanes as f64 / elapsed_ms.max(1e-9);
    report.set("diffpattern.queued_lanes_mean", polled.queued_lanes);
    report.set("diffpattern.lanes_in_flight_mean", polled.lanes_in_flight);
    report.set(
        "diffpattern.batch_fill_pct",
        100.0 * polled.lanes_in_flight / (service.threads() * service.micro_batch()) as f64,
    );
    report.set(
        "diffpattern.queue_wait_ms",
        polled.queued_lanes / arrival_per_ms.max(1e-12),
    );
    report.detail(format!(
        "engine: {} polls, {lanes} lanes submitted in {elapsed_ms:.0} ms",
        polled.polls
    ));
    Ok(value)
}

/// The replay batch width a traced pass observed: mean in-flight lanes
/// per worker, rounded up (a worker that is briefly idle between claims
/// does not shrink the batches it runs), between 1 and the micro-batch.
pub fn observed_width(report: &Report, threads: usize) -> usize {
    let in_flight = report
        .get("diffpattern.lanes_in_flight_mean")
        .unwrap_or(crate::setup::MICRO_BATCH as f64);
    ((in_flight / threads as f64).ceil() as usize).clamp(1, crate::setup::MICRO_BATCH)
}

/// Windows a closed loop's timed phase is cut into.
pub const WINDOWS: usize = 10;

/// Wall time per delivered pattern of a closed loop: the timed phase
/// `[t0, end]` is cut into [`WINDOWS`] equal windows, each window's
/// figure is its length over the patterns delivered in it, and the
/// median window is reported — a short stall of the host moves one
/// window, not the result.
pub fn ms_per_pattern(t0: Instant, end: Instant, delivered_at: &[Instant]) -> f64 {
    let total = ms(t0, end);
    let window = total / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    for &t in delivered_at {
        let i = ((ms(t0, t) / window) as usize).min(WINDOWS - 1);
        counts[i] += 1;
    }
    let per: Vec<f64> = counts.iter().map(|&c| window / c.max(1) as f64).collect();
    median(&per).expect("WINDOWS > 0")
}

/// Sets the closed-loop throughput figures: `ms_per_legal_pattern` and
/// `max_rate_rps`, the request rate that pattern rate sustains.
pub fn closed_loop_rates(
    t0: Instant,
    end: Instant,
    delivered_at: &[Instant],
    requests: usize,
    report: &mut Report,
) {
    let per = ms_per_pattern(t0, end, delivered_at);
    let patterns_per_request = delivered_at.len() as f64 / requests.max(1) as f64;
    report.set_noted(
        "ms_per_legal_pattern",
        per,
        format!(
            "median of {WINDOWS} windows; {} patterns in {:.0} ms",
            delivered_at.len(),
            ms(t0, end)
        ),
    );
    report.set_noted(
        "max_rate_rps",
        1e3 / (per * patterns_per_request),
        format!("{requests} requests completed"),
    );
}

/// Sets `harness.tracing_overhead_pct` from an untraced and a traced
/// figure of the same end-to-end time.
pub fn tracing_overhead(untraced: f64, traced: f64, report: &mut Report) {
    report.set(
        "harness.tracing_overhead_pct",
        100.0 * (traced - untraced) / untraced,
    );
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Writes a traced run's spans to the work directory.
pub fn write_spans(opts: &Options, tracer: &Tracer, report: &mut Report) -> Result<(), BenchError> {
    let path = opts.work_dir.join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tracer.write_jsonl(&path)?;
    report.detail(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

/// Compares the run's digest with the one an earlier run of the same
/// binary, workload, seed and length stored, and stores it if none was.
pub fn check_digest(opts: &Options, digest: u64, report: &mut Report) -> Result<(), BenchError> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let dir = opts.work_dir.join("digests");
    std::fs::create_dir_all(&dir)?;
    // A traced run halves the timed phase, which changes the
    // `serve_ladder` schedule, so the trace flag is part of the key.
    let key = format!(
        "{:016x}-{}-{}-{}-{}-{}",
        fnv1a(FNV_OFFSET, &exe),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale.train_iters
    );
    let path = dir.join(key);
    let line = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) => report.check(
            "digest matches earlier runs of this binary and seed",
            stored.trim() == line,
            format!("{line} vs stored {}", stored.trim()),
        ),
        Err(_) => {
            std::fs::write(&path, &line)?;
            report.check(
                "digest matches earlier runs of this binary and seed",
                true,
                format!("{line} (first run, stored)"),
            );
        }
    }
    Ok(())
}
