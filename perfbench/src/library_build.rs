//! `library_build`: a closed loop with one caller that builds a pattern
//! library — sequential 64-pattern requests with consecutive
//! `first_index`, each drained by `LibrarySink` into one fresh
//! `LibraryWriter`, then finished, reopened and read back.

use crate::common::{self, ms, pattern_bytes};
use crate::gen::{library_request, Rules, LIBRARY_COUNT};
use crate::replay;
use crate::report::Report;
use crate::setup::Setup;
use crate::trace::Tracer;
use crate::{probes, BenchError, Options};
use diffpattern::library::{Library, LibraryConfig, LibraryWriter};
use diffpattern::squish::SquishPattern;
use diffpattern::{LibrarySink, RequestSpec, SinkReport};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const METHOD: &str = "diffpattern";
const RULESET: &str = "standard";

struct Done {
    count: usize,
    first_ms: f64,
    request_ms: f64,
    submit_us: f64,
    lag_ms: f64,
    sink: SinkReport,
}

struct Pass {
    done: Vec<Done>,
    t0: Instant,
    end: Instant,
    /// When each delivered pattern was stored.
    delivered_at: Vec<Instant>,
}

impl Pass {
    fn delivered(&self) -> u64 {
        self.done
            .iter()
            .map(|d| d.sink.accepted + d.sink.duplicates)
            .sum()
    }

    fn ms_per_legal(&self) -> f64 {
        common::ms_per_pattern(self.t0, self.end, &self.delivered_at)
    }
}

/// Runs requests until `seconds` have passed and at least `min_requests`
/// completed, then finishes the library.
fn pass(
    setup: &Setup,
    seed: u64,
    dir: &Path,
    seconds: f64,
    min_requests: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, BenchError> {
    let config = LibraryConfig {
        timestamp_override: Some("1970-01-01T00:00:00Z".to_string()),
        ..LibraryConfig::default()
    };
    let mut writer = LibraryWriter::open(dir, config)?;
    writer.open_bucket(METHOD, RULESET, 0)?;
    let mut done = Vec::new();
    let mut delivered_at = Vec::new();
    let t0 = Instant::now();
    let mut prev_end = t0;
    for id in 0.. {
        if id >= min_requests && ms(t0, Instant::now()) >= seconds * 1e3 {
            break;
        }
        let spec = library_request(seed, id).spec(&setup.parts);
        let start = Instant::now();
        let handle = setup.service.submit(&spec)?;
        let submitted = Instant::now();
        let mut first = None;
        let mut stored = 0;
        let sink = LibrarySink::new(&mut writer, METHOD, RULESET).drain_with(handle, |r| {
            let now = Instant::now();
            first.get_or_insert(now);
            if r.accepted + r.duplicates > stored {
                stored = r.accepted + r.duplicates;
                delivered_at.push(now);
            }
        })?;
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let request = t.record("request", start, end, None, id as u64);
            t.record(
                "diffpattern.submit",
                start,
                submitted,
                Some(request),
                id as u64,
            );
            t.record(
                "diffpattern.library_sink.drain",
                submitted,
                end,
                Some(request),
                id as u64,
            );
        }
        done.push(Done {
            count: spec.count,
            first_ms: ms(start, first.unwrap_or(end)),
            request_ms: ms(start, end),
            submit_us: ms(start, submitted) * 1e3,
            lag_ms: ms(prev_end, start),
            sink,
        });
        prev_end = end;
    }
    drop(writer.finish()?);
    Ok(Pass {
        done,
        t0,
        end: prev_end,
        delivered_at,
    })
}

pub fn run(
    setup: &Setup,
    opts: &Options,
    run_dir: &Path,
    report: &mut Report,
) -> Result<u64, BenchError> {
    let head_requests = opts.scale.head_requests.library_build;
    let verify_requests = opts.scale.verify_requests.library_build.min(head_requests);
    let measured_dir = run_dir.join("library");
    let mut tracer = Tracer::new(Instant::now());
    let measured = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = pass(
            setup,
            opts.seed,
            &run_dir.join("untraced"),
            half,
            head_requests,
            None,
        )?;
        let traced = common::with_engine_stats(&setup.service, report, || {
            let p = pass(
                setup,
                opts.seed,
                &measured_dir,
                half,
                head_requests,
                Some(&mut tracer),
            )?;
            let lanes = p.done.iter().map(|d| d.count as u64).sum();
            Ok((p, lanes))
        })?;
        common::tracing_overhead(plain.ms_per_legal(), traced.ms_per_legal(), report);
        traced
    } else {
        pass(
            setup,
            opts.seed,
            &measured_dir,
            opts.seconds,
            head_requests,
            None,
        )?
    };

    // End-to-end figures of the timed phase.
    let requests = measured.done.len();
    report.attempted = requests as u64;
    let slots: usize = measured.done.iter().map(|d| d.count).sum();
    common::closed_loop_rates(
        measured.t0,
        measured.end,
        &measured.delivered_at,
        requests,
        report,
    );
    report.set(
        "fulfilled_pct",
        100.0 * measured.delivered() as f64 / slots.max(1) as f64,
    );
    let first: Vec<f64> = measured.done.iter().map(|d| d.first_ms).collect();
    let whole: Vec<f64> = measured.done.iter().map(|d| d.request_ms).collect();
    common::latency_metrics(&first, &whole, "(first item stored)", report);
    let submit: Vec<f64> = measured.done.iter().map(|d| d.submit_us).collect();
    probes::set_submit(&submit, report);
    let lag: Vec<f64> = measured.done.iter().map(|d| d.lag_ms).collect();
    report.set(
        "harness.generator_lag_tail_ms",
        crate::stats::tail(&lag).map_or(lag.iter().copied().fold(0.0, f64::max), |t| t.value),
    );
    let unsettled = measured
        .done
        .iter()
        .filter(|d| (d.sink.accepted + d.sink.duplicates + d.sink.skipped) as usize != d.count)
        .count();
    report.check(
        "items + shortfall equals count for every request",
        unsettled == 0,
        format!("{requests} requests, {unsettled} unsettled"),
    );

    // Read the library back, auditing every record and keeping those of
    // the requests every run completes.
    let boundary = (head_requests * LIBRARY_COUNT) as u64;
    let library = Library::open(&measured_dir)?;
    let mut head_records: Vec<(u64, SquishPattern)> = Vec::new();
    let mut audit = common::Audit::default();
    let mut scratch = Vec::new();
    let refs = library.records(METHOD, RULESET).unwrap_or(&[]);
    for r in refs {
        let pattern = library.read(r, &mut scratch)?.pattern;
        audit.add(&pattern, Rules::Standard);
        if r.source_index < boundary {
            head_records.push((r.source_index, pattern));
        }
    }
    let accepted: u64 = measured.done.iter().map(|d| d.sink.accepted).sum();
    report.check(
        "the library holds every accepted pattern",
        refs.len() as u64 == accepted,
        format!("{} records, {accepted} accepted", refs.len()),
    );
    audit.report(report);

    // Quality over the requests every run completes.
    let head: Vec<SquishPattern> = head_records.iter().map(|(_, p)| p.clone()).collect();
    let head_delivered: u64 = measured.done[..head_requests]
        .iter()
        .map(|d| d.sink.accepted + d.sink.duplicates)
        .sum();
    let digest = common::quality(
        &head,
        head_delivered as usize,
        &format!("(first {head_requests} requests)"),
        report,
    );

    // Regenerate the first requests and compare with the read-back.
    let specs: Vec<(usize, Arc<RequestSpec>)> = (0..verify_requests)
        .map(|id| {
            (
                id,
                Arc::new(library_request(opts.seed, id).spec(&setup.parts)),
            )
        })
        .collect();
    let stored: BTreeMap<u64, Vec<u8>> = head_records
        .iter()
        .map(|(i, p)| (*i, pattern_bytes(p)))
        .collect();
    let stored_set: BTreeSet<&Vec<u8>> = stored.values().collect();
    let mut regenerated = Vec::new();
    let mut expected: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
    let (mut compared, mut differ) = (0, 0);
    for (id, spec) in &specs {
        let generation = setup.service.generate(spec)?;
        for g in &generation.items {
            let bytes = pattern_bytes(&g.pattern);
            let absolute = (spec.first_index + g.provenance.index) as u64;
            let same = match stored.get(&absolute) {
                Some(b) => *b == bytes,
                // Dropped at ingest as a duplicate of an earlier record,
                // which lies in the same head of the stream.
                None => stored_set.contains(&bytes),
            };
            compared += 1;
            if !same {
                differ += 1;
            }
            expected.insert((*id, g.provenance.index), bytes);
        }
        regenerated.push(generation);
    }
    report.check(
        "library read-back equals what was ingested",
        differ == 0 && compared > 0,
        format!("{compared} regenerated items of {verify_requests} requests, {differ} differ"),
    );

    if opts.trace {
        let reports: Vec<_> = regenerated.iter().map(|g| g.report).collect();
        let items: Vec<_> = regenerated.iter().flat_map(|g| &g.items).collect();
        common::program_counts(&reports, &items, report);
        let width = common::observed_width(report, setup.service.threads());
        let replayed = replay::replay(
            &setup.model,
            replay::lanes_of(&specs, opts.scale.replay_lanes),
            width,
            tracer.epoch(),
        );
        replay::report_replay(&replayed, &expected, report);
        probes::conditioning(&setup.model, width, 1, &setup.parts.conditioning, report);
        let probe = probes::probe_specs(&specs, opts.scale.probe_lanes);
        let _ = probes::wire(&setup.service, &probe, report)?;
        probes::store(&run_dir.join("store-probe"), &head, report)?;
        tracer.absorb(replayed.tracer);
        common::write_spans(opts, &tracer, report)?;
    }
    Ok(digest)
}
