//! `wire_fastchain`: a closed loop over two keep-alive `dp_serve`
//! connections. Each request asks for two patterns at sampling stride
//! 10 with Solving-E donors, so legalization and the wire carry the
//! largest share of the work of any workload.

use crate::common::{self, ms, pattern_bytes, Spill};
use crate::gen::{wire_request, Req};
use crate::replay;
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::tail;
use crate::trace::Tracer;
use crate::{probes, BenchError, Options};
use diffpattern::{Generated, PipelineReport, RequestSpec};
use dp_serve::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client connections, at most the 2 CPUs of the reference host.
const CONNECTIONS: usize = 2;

struct Done {
    req: Req,
    first_ms: f64,
    request_ms: f64,
    lag_ms: f64,
    end: Instant,
    /// When each item record arrived.
    arrived: Vec<Instant>,
    /// Items delivered.
    delivered: usize,
    /// Items sorted by index; kept for the first requests only, the
    /// rest go to the connection's spill file.
    items: Vec<Generated>,
    report: PipelineReport,
    outcome: Result<(), String>,
}

struct Pass {
    done: Vec<Done>,
    t0: Instant,
    end: Instant,
    /// When each item record reached its client.
    delivered_at: Vec<Instant>,
    /// The connections' spill files.
    spills: Vec<PathBuf>,
}

impl Pass {
    fn delivered(&self) -> usize {
        self.done.iter().map(|d| d.delivered).sum()
    }

    fn ms_per_legal(&self) -> f64 {
        common::ms_per_pattern(self.t0, self.end, &self.delivered_at)
    }
}

/// What every connection of one pass shares.
struct Shared<'a> {
    setup: &'a Setup,
    addr: SocketAddr,
    seed: u64,
    /// The next request id to send.
    next: AtomicUsize,
    t0: Instant,
    seconds: f64,
    min_requests: usize,
    trace: bool,
}

fn connection(shared: &Shared<'_>, spill_path: &Path) -> Result<(Vec<Done>, Tracer), BenchError> {
    let Shared {
        setup,
        addr,
        seed,
        ref next,
        t0,
        seconds,
        min_requests,
        trace,
    } = *shared;
    let mut client = Client::connect(addr)?;
    let mut spill = Spill::create(spill_path)?;
    let mut tracer = Tracer::new(t0);
    let mut done = Vec::new();
    let mut prev_end = Instant::now();
    loop {
        let id = next.fetch_add(1, Ordering::SeqCst);
        if id >= min_requests && ms(t0, Instant::now()) >= seconds * 1e3 {
            break;
        }
        let req = wire_request(seed, id);
        let spec = req.spec(&setup.parts);
        let start = Instant::now();
        let mut arrived = Vec::with_capacity(spec.count);
        let result = client.generate_streaming(&spec, |_| arrived.push(Instant::now()));
        let end = Instant::now();
        if trace {
            let request = tracer.record("request", start, end, None, id as u64);
            tracer.record(
                "dp_serve.client.generate",
                start,
                end,
                Some(request),
                id as u64,
            );
        }
        let (mut items, report, outcome) = match result {
            Ok(out) => {
                let outcome = match out.error {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
                (out.items, out.report, outcome)
            }
            Err(e) => (Vec::new(), PipelineReport::default(), Err(e.to_string())),
        };
        items.sort_by_key(|g| g.provenance.index);
        let delivered = items.len();
        if id >= min_requests {
            for g in items.drain(..) {
                spill.push(&g.pattern, req.rules)?;
            }
        }
        done.push(Done {
            req,
            first_ms: ms(start, arrived.first().copied().unwrap_or(end)),
            request_ms: ms(start, end),
            lag_ms: ms(prev_end, start),
            end,
            arrived,
            delivered,
            items,
            report,
            outcome,
        });
        prev_end = end;
    }
    spill.finish()?;
    Ok((done, tracer))
}

fn pass(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    min_requests: usize,
    tracer: Option<&mut Tracer>,
    dir: &Path,
) -> Result<Pass, BenchError> {
    let addr = setup
        .server
        .as_ref()
        .ok_or("wire_fastchain needs its server")?
        .addr();
    std::fs::create_dir_all(dir)?;
    let shared = Shared {
        setup,
        addr,
        seed,
        next: AtomicUsize::new(0),
        t0: Instant::now(),
        seconds,
        min_requests,
        trace: tracer.is_some(),
    };
    let t0 = shared.t0;
    let spills: Vec<PathBuf> = (0..CONNECTIONS)
        .map(|c| dir.join(format!("spill-{c}.bin")))
        .collect();
    let results: Vec<Result<(Vec<Done>, Tracer), BenchError>> = std::thread::scope(|s| {
        let handles: Vec<_> = spills
            .iter()
            .map(|spill| {
                let shared = &shared;
                s.spawn(move || connection(shared, spill))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut done = Vec::new();
    let mut tracers = Vec::new();
    for r in results {
        let (d, t) = r?;
        done.extend(d);
        tracers.push(t);
    }
    if let Some(tracer) = tracer {
        for t in tracers {
            tracer.absorb(t);
        }
    }
    done.sort_by_key(|d| d.req.id);
    let end = done.iter().map(|d| d.end).max().unwrap_or(t0);
    let delivered_at = done
        .iter()
        .flat_map(|d| d.arrived.iter().copied())
        .collect();
    Ok(Pass {
        done,
        t0,
        end,
        delivered_at,
        spills,
    })
}

pub fn run(
    setup: &Setup,
    opts: &Options,
    run_dir: &Path,
    report: &mut Report,
) -> Result<u64, BenchError> {
    let head_requests = opts.scale.head_requests.wire_fastchain;
    let verify_requests = opts.scale.verify_requests.wire_fastchain.min(head_requests);
    let mut tracer = Tracer::new(Instant::now());
    let measured = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = pass(
            setup,
            opts.seed,
            half,
            head_requests,
            None,
            &run_dir.join("untraced"),
        )?;
        let traced = common::with_engine_stats(&setup.service, report, || {
            let p = pass(
                setup,
                opts.seed,
                half,
                head_requests,
                Some(&mut tracer),
                run_dir,
            )?;
            let lanes = p.done.iter().map(|d| d.req.count as u64).sum();
            Ok((p, lanes))
        })?;
        common::tracing_overhead(plain.ms_per_legal(), traced.ms_per_legal(), report);
        traced
    } else {
        pass(setup, opts.seed, opts.seconds, head_requests, None, run_dir)?
    };

    let requests = measured.done.len();
    report.attempted = requests as u64;
    report.failed = measured.done.iter().filter(|d| d.outcome.is_err()).count() as u64;
    if let Some(d) = measured.done.iter().find(|d| d.outcome.is_err()) {
        report.detail(format!("request {} failed: {:?}", d.req.id, d.outcome));
    }
    report.check(
        "no request refused or failed",
        report.failed == 0,
        format!("{} of {requests} refused or failed", report.failed),
    );
    common::closed_loop_rates(
        measured.t0,
        measured.end,
        &measured.delivered_at,
        requests,
        report,
    );
    let slots: usize = measured.done.iter().map(|d| d.req.count).sum();
    report.set(
        "fulfilled_pct",
        100.0 * measured.delivered() as f64 / slots.max(1) as f64,
    );
    let first: Vec<f64> = measured.done.iter().map(|d| d.first_ms).collect();
    let whole: Vec<f64> = measured.done.iter().map(|d| d.request_ms).collect();
    common::latency_metrics(&first, &whole, "(client-timed)", report);
    let lag: Vec<f64> = measured.done.iter().map(|d| d.lag_ms).collect();
    report.set(
        "harness.generator_lag_tail_ms",
        tail(&lag).map_or(lag.iter().copied().fold(0.0, f64::max), |t| t.value),
    );
    let unsettled = measured
        .done
        .iter()
        .filter(|d| d.outcome.is_ok() && d.delivered + d.report.shortfall != d.req.count)
        .count();
    report.check(
        "items + shortfall equals count for every request",
        unsettled == 0,
        format!("{requests} requests, {unsettled} unsettled"),
    );
    let mut audit = common::Audit::default();
    for d in &measured.done {
        for g in &d.items {
            audit.add(&g.pattern, d.req.rules);
        }
    }
    for spill in &measured.spills {
        common::audit_spill(spill, &mut audit)?;
    }
    audit.report(report);

    let head = &measured.done[..head_requests];
    let patterns: Vec<_> = head
        .iter()
        .flat_map(|d| d.items.iter().map(|g| g.pattern.clone()))
        .collect();
    let digest = common::quality(
        &patterns,
        patterns.len(),
        &format!("(first {head_requests} requests)"),
        report,
    );

    // The same specs in process, on the now idle service.
    let specs: Vec<(usize, Arc<RequestSpec>)> = head
        .iter()
        .take(verify_requests)
        .map(|d| (d.req.id, Arc::new(d.req.spec(&setup.parts))))
        .collect();
    let mut expected = BTreeMap::new();
    let mut differ = 0;
    for ((id, spec), d) in specs.iter().zip(head) {
        let local = setup.service.generate(spec)?;
        let wire: Vec<Vec<u8>> = d.items.iter().map(|g| pattern_bytes(&g.pattern)).collect();
        let here: Vec<Vec<u8>> = local
            .items
            .iter()
            .map(|g| pattern_bytes(&g.pattern))
            .collect();
        if wire != here {
            differ += 1;
        }
        for g in &d.items {
            expected.insert((*id, g.provenance.index), pattern_bytes(&g.pattern));
        }
    }
    report.check(
        "wire items are byte-identical to the in-process replay of the same spec",
        differ == 0 && !specs.is_empty(),
        format!("{} requests compared, {differ} differ", specs.len()),
    );

    if opts.trace {
        let reports: Vec<PipelineReport> = head.iter().map(|d| d.report).collect();
        let items: Vec<&Generated> = head.iter().flat_map(|d| &d.items).collect();
        common::program_counts(&reports, &items, report);
        let width = common::observed_width(report, setup.service.threads());
        let lanes = replay::lanes_of(&specs, opts.scale.replay_lanes);
        expected.retain(|(id, _), _| lanes.iter().any(|l| l.request == *id));
        let replayed = replay::replay(&setup.model, lanes, width, tracer.epoch());
        replay::report_replay(&replayed, &expected, report);
        let stride = crate::gen::WIRE_STRIDE;
        probes::conditioning(
            &setup.model,
            width,
            stride,
            &setup.parts.conditioning,
            report,
        );
        let probe = probes::probe_specs(&specs, opts.scale.probe_lanes);
        let submit_us = probes::wire(&setup.service, &probe, report)?;
        probes::set_submit(&submit_us, report);
        probes::store(&run_dir.join("store-probe"), &patterns, report)?;
        tracer.absorb(replayed.tracer);
        common::write_spans(opts, &tracer, report)?;
    }
    Ok(digest)
}
