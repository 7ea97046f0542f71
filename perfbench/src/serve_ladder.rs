//! `serve_ladder`: an open loop in process. One thread submits on a
//! seeded Poisson schedule at 20, 40 and then 80 requests per second,
//! collects results with `RequestHandle::recv_timeout`, and reads
//! `PatternService::stats()` at the end of each step. Latency counts
//! from each request's due time, so a stall shows in every request it
//! delays.

use crate::common::{self, ms, pattern_bytes};
use crate::gen::{ladder_schedule, Req, LADDER_RATES};
use crate::replay;
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{probes, BenchError, Options};
use diffpattern::{Generated, PipelineReport, RecvPoll, RequestHandle, RequestSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency limit on a step's tail, in ms.
pub const SLO_MS: f64 = 200.0;
/// A step's queue counts as drained when its last request finished
/// within this long after its last arrival, in ms.
pub const DRAIN_MS: f64 = 1000.0;
/// The step whose latencies are the headline figures.
const HEADLINE_STEP: usize = 1;

#[derive(Debug, PartialEq, Eq)]
enum Status {
    Running,
    Done,
    /// Refused at admission (`QueueFull`).
    Refused,
    /// A lane hit a structural error.
    Failed,
}

struct Sent {
    req: Req,
    spec: Arc<RequestSpec>,
    due: Instant,
    submit_us: f64,
    lag_ms: f64,
    first: Option<Instant>,
    end: Option<Instant>,
    items: Vec<Generated>,
    report: PipelineReport,
    status: Status,
}

struct Step {
    rate: f64,
    sent: Vec<Sent>,
    start: Instant,
    last_due: Instant,
    drained: Instant,
    queued_lanes_end: usize,
}

impl Step {
    fn succeeded(&self) -> impl Iterator<Item = &Sent> {
        self.sent.iter().filter(|s| s.status == Status::Done)
    }

    fn count(&self, status: Status) -> usize {
        self.sent.iter().filter(|s| s.status == status).count()
    }

    fn request_ms(&self) -> Vec<f64> {
        self.succeeded()
            .map(|s| ms(s.due, s.end.expect("finished")))
            .collect()
    }

    fn first_ms(&self) -> Vec<f64> {
        self.succeeded()
            .map(|s| ms(s.due, s.first.or(s.end).expect("finished")))
            .collect()
    }

    fn lag_ms(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.lag_ms).collect()
    }

    fn drain_ms(&self) -> f64 {
        ms(self.last_due, self.drained)
    }

    fn delivered(&self) -> usize {
        self.sent.iter().map(|s| s.items.len()).sum()
    }

    /// Whether the generator kept to the schedule within the SLO.
    fn valid(&self) -> bool {
        tail(&self.lag_ms()).map_or_else(
            || self.lag_ms().iter().all(|&l| l <= SLO_MS),
            |t| t.value <= SLO_MS,
        )
    }

    /// Whether the step meets the SLO: valid, nothing refused or failed,
    /// tail latency within the limit and the queue drained.
    fn meets_slo(&self) -> bool {
        self.valid()
            && self.count(Status::Refused) + self.count(Status::Failed) == 0
            && tail(&self.request_ms()).is_some_and(|t| t.value <= SLO_MS)
            && self.drain_ms() <= DRAIN_MS
    }

    /// Wall time from the step's start until its queue drained, per
    /// legal pattern delivered.
    fn ms_per_legal(&self) -> f64 {
        ms(self.start, self.drained) / self.delivered().max(1) as f64
    }
}

/// Moves whatever `handle` has ready into `sent`; finishes it when the
/// stream ends.
fn collect(sent: &mut Sent, handle: &mut RequestHandle) {
    loop {
        match handle.recv_timeout(Duration::ZERO) {
            RecvPoll::Item(g) => {
                sent.first.get_or_insert_with(Instant::now);
                sent.items.push(g);
            }
            RecvPoll::Finished => {
                sent.end = Some(Instant::now());
                sent.report = handle.report();
                sent.status = if handle.error().is_some() {
                    Status::Failed
                } else {
                    Status::Done
                };
                return;
            }
            RecvPoll::TimedOut => return,
        }
    }
}

/// Runs the three steps of a `seconds`-long schedule one after another;
/// a step starts once the previous one drained.
fn ladder(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Step>, BenchError> {
    let schedule = ladder_schedule(seed, seconds);
    let mut steps = Vec::new();
    for (arrivals, rate) in schedule.into_iter().zip(LADDER_RATES) {
        let start = Instant::now() + Duration::from_millis(1);
        let due = |us: u64| start + Duration::from_micros(us);
        let last_due = arrivals.last().map_or(start, |a| due(a.due_us));
        let mut sent: Vec<Sent> = Vec::with_capacity(arrivals.len());
        let mut open: Vec<(usize, RequestHandle)> = Vec::new();
        let mut queued_lanes_end = None;
        let mut next = 0;
        loop {
            let now = Instant::now();
            while next < arrivals.len() && due(arrivals[next].due_us) <= now {
                let arrival = &arrivals[next];
                let spec = Arc::new(arrival.req.spec(&setup.parts));
                let due_at = due(arrival.due_us);
                let t0 = Instant::now();
                let submitted = setup.service.submit(&spec);
                let t1 = Instant::now();
                let mut s = Sent {
                    req: arrival.req.clone(),
                    spec,
                    due: due_at,
                    submit_us: ms(t0, t1) * 1e3,
                    lag_ms: ms(due_at, t0),
                    first: None,
                    end: None,
                    items: Vec::new(),
                    report: PipelineReport::default(),
                    status: Status::Running,
                };
                match submitted {
                    Ok(handle) => open.push((sent.len(), handle)),
                    Err(_) => {
                        s.status = Status::Refused;
                        s.end = Some(t1);
                    }
                }
                sent.push(s);
                next += 1;
            }
            for (i, handle) in &mut open {
                collect(&mut sent[*i], handle);
            }
            open.retain(|(i, _)| sent[*i].status == Status::Running);
            if next == arrivals.len() {
                if queued_lanes_end.is_none() {
                    queued_lanes_end = Some(setup.service.stats().queued_lanes);
                }
                if open.is_empty() {
                    break;
                }
            }
            let wait = match arrivals.get(next) {
                Some(a) => due(a.due_us).saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            std::thread::sleep(wait.min(Duration::from_micros(500)));
        }
        let drained = sent
            .iter()
            .filter_map(|s| s.end)
            .max()
            .unwrap_or(last_due)
            .max(last_due);
        if let Some(t) = tracer.as_deref_mut() {
            for s in &sent {
                let end = s.end.expect("every request finished");
                let id = s.req.id as u64;
                let request = t.record("request", s.due, end, None, id);
                let submit_start = s.due + Duration::from_secs_f64(s.lag_ms / 1e3);
                let submit_end = submit_start + Duration::from_secs_f64(s.submit_us / 1e6);
                t.record(
                    "diffpattern.submit",
                    submit_start,
                    submit_end,
                    Some(request),
                    id,
                );
                t.record("diffpattern.stream", submit_end, end, Some(request), id);
            }
        }
        steps.push(Step {
            rate,
            sent,
            start,
            last_due,
            drained,
            queued_lanes_end: queued_lanes_end.unwrap_or(0),
        });
    }
    Ok(steps)
}

fn step_line(step: &Step) -> String {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
    let request = step.request_ms();
    let first = step.first_ms();
    let lag = step.lag_ms();
    format!(
        "step {:>3} req/s: sent {} succeeded {} failed {} refused {}; request p50 {} ms tail {} ms ({}); first item p50 {} ms tail {} ms; generator lag tail {} ms; queued lanes at last arrival {}; drained {:.1} ms after last arrival; {}",
        step.rate,
        step.sent.len(),
        step.count(Status::Done),
        step.count(Status::Failed),
        step.count(Status::Refused),
        show(median(&request)),
        show(tail(&request).map(|t| t.value)),
        tail(&request).map_or("too few samples".to_string(), |t| t.to_string()),
        show(median(&first)),
        show(tail(&first).map(|t| t.value)),
        show(tail(&lag).map(|t| t.value).or(lag.iter().copied().reduce(f64::max))),
        step.queued_lanes_end,
        step.drain_ms(),
        if !step.valid() {
            "INVALID (generator behind schedule)"
        } else if step.meets_slo() {
            "meets SLO"
        } else {
            "misses SLO"
        }
    )
}

pub fn run(
    setup: &Setup,
    opts: &Options,
    run_dir: &Path,
    report: &mut Report,
) -> Result<u64, BenchError> {
    let mut tracer = Tracer::new(Instant::now());
    let steps = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = ladder(setup, opts.seed, half, None)?;
        let traced = common::with_engine_stats(&setup.service, report, || {
            let steps = ladder(setup, opts.seed, half, Some(&mut tracer))?;
            let lanes = steps
                .iter()
                .flat_map(|s| &s.sent)
                .map(|s| s.req.count as u64)
                .sum();
            Ok((steps, lanes))
        })?;
        let last = |s: &[Step]| s.last().map_or(f64::NAN, Step::ms_per_legal);
        common::tracing_overhead(last(&plain), last(&traced), report);
        traced
    } else {
        ladder(setup, opts.seed, opts.seconds, None)?
    };

    report.detail(format!(
        "SLO: tail request latency <= {SLO_MS} ms, nothing refused or failed, queue drained within {DRAIN_MS} ms of the last arrival"
    ));
    for step in &steps {
        report.detail(step_line(step));
    }
    let all: Vec<&Sent> = steps.iter().flat_map(|s| &s.sent).collect();
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|s| s.status != Status::Done).count() as u64;

    let headline = &steps[HEADLINE_STEP];
    let label = format!("at {} req/s", headline.rate);
    if headline.valid() {
        common::latency_metrics(&headline.first_ms(), &headline.request_ms(), &label, report);
    } else {
        common::latency_metrics(&[], &[], &format!("{label}: step invalid"), report);
    }
    let saturated = steps.last().expect("three steps");
    report.set_noted(
        "ms_per_legal_pattern",
        saturated.ms_per_legal(),
        format!(
            "{} patterns from the {} req/s step's start until it drained",
            saturated.delivered(),
            saturated.rate
        ),
    );
    let max_rate = steps
        .iter()
        .filter(|s| s.meets_slo())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    report.set_noted("max_rate_rps", max_rate, format!("SLO {SLO_MS} ms"));
    let slots: usize = all.iter().map(|s| s.req.count).sum();
    let delivered: usize = all.iter().map(|s| s.items.len()).sum();
    report.set(
        "fulfilled_pct",
        100.0 * delivered as f64 / slots.max(1) as f64,
    );
    let unsettled = all
        .iter()
        .filter(|s| s.status == Status::Done && s.items.len() + s.report.shortfall != s.req.count)
        .count();
    report.check(
        "items + shortfall equals count for every request",
        unsettled == 0,
        format!("{} requests, {unsettled} unsettled", all.len()),
    );
    report.check(
        "no request refused or failed",
        report.failed == 0,
        format!("{} of {} refused or failed", report.failed, all.len()),
    );

    let mut ordered: Vec<&Sent> = all.clone();
    ordered.sort_by_key(|s| s.req.id);
    let mut patterns = Vec::with_capacity(delivered);
    let mut audit = common::Audit::default();
    for s in &ordered {
        let mut items: Vec<&Generated> = s.items.iter().collect();
        items.sort_by_key(|g| g.provenance.index);
        for g in items {
            audit.add(&g.pattern, s.req.rules);
            patterns.push(g.pattern.clone());
        }
    }
    audit.report(report);
    let digest = common::quality(&patterns, patterns.len(), "(all steps)", report);

    if opts.trace {
        let reports: Vec<PipelineReport> = ordered.iter().map(|s| s.report).collect();
        let items: Vec<&Generated> = ordered.iter().flat_map(|s| &s.items).collect();
        common::program_counts(&reports, &items, report);
        let submit: Vec<f64> = all.iter().map(|s| s.submit_us).collect();
        probes::set_submit(&submit, report);
        let lag: Vec<f64> = all.iter().map(|s| s.lag_ms).collect();
        report.set(
            "harness.generator_lag_tail_ms",
            tail(&lag).map_or(lag.iter().copied().fold(0.0, f64::max), |t| t.value),
        );
        let width = common::observed_width(report, setup.service.threads());
        let specs: Vec<(usize, Arc<RequestSpec>)> = headline
            .sent
            .iter()
            .map(|s| (s.req.id, Arc::clone(&s.spec)))
            .collect();
        let lanes = replay::lanes_of(&specs, opts.scale.replay_lanes);
        let mut expected = BTreeMap::new();
        for s in headline
            .sent
            .iter()
            .filter(|s| lanes.iter().any(|l| l.request == s.req.id))
        {
            for g in &s.items {
                expected.insert((s.req.id, g.provenance.index), pattern_bytes(&g.pattern));
            }
        }
        let replayed = replay::replay(&setup.model, lanes, width, tracer.epoch());
        replay::report_replay(&replayed, &expected, report);
        probes::conditioning(&setup.model, width, 1, &setup.parts.conditioning, report);
        let probe = probes::probe_specs(&specs, opts.scale.probe_lanes);
        let _ = probes::wire(&setup.service, &probe, report)?;
        probes::store(&run_dir.join("store-probe"), &patterns, report)?;
        tracer.absorb(replayed.tracer);
        common::write_spans(opts, &tracer, report)?;
    }
    Ok(digest)
}
