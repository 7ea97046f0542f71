//! The small, idle measurements of a traced run: the wire, the store
//! and the cost of conditioning, each timed from the benchmark's calls
//! into that layer's public API.

use crate::common::{ms, pattern_bytes};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::BenchError;
use diffpattern::diffusion::BatchScratch;
use diffpattern::library::{IngestOutcome, Library, LibraryConfig, LibraryWriter};
use diffpattern::squish::SquishPattern;
use diffpattern::{Conditioning, PatternService, RequestSpec, TrainedModel};
use dp_serve::{Client, Json, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The specs of a wire probe: whole specs from the head of `specs` up to
/// `lanes` patterns, at least two.
pub fn probe_specs(specs: &[(usize, Arc<RequestSpec>)], lanes: usize) -> Vec<RequestSpec> {
    let mut out: Vec<RequestSpec> = Vec::new();
    let mut total = 0;
    for (_, spec) in specs {
        if out.len() >= 2 && total + spec.count > lanes {
            break;
        }
        total += spec.count;
        out.push((**spec).clone());
    }
    out
}

/// Sends `specs` one at a time over a fresh loopback server and through
/// [`PatternService::submit`], alternating which goes first; sets the
/// `dp_serve` metrics and returns the in-process submit times in µs.
pub fn wire(
    service: &PatternService,
    specs: &[RequestSpec],
    report: &mut Report,
) -> Result<Vec<f64>, BenchError> {
    let mut server = dp_serve::serve(service.clone(), "127.0.0.1:0", ServeConfig::default())?;
    let mut client = Client::connect(server.addr())?;
    let (mut wire_ms, mut local_ms, mut first_ms, mut submit_us) = (vec![], vec![], vec![], vec![]);
    let mut mismatched = 0;
    for (i, spec) in specs.iter().enumerate() {
        let mut run_wire = |client: &mut Client| -> Result<Vec<Vec<u8>>, BenchError> {
            let t0 = Instant::now();
            let mut first = None;
            let out = client.generate_streaming(spec, |_| {
                first.get_or_insert_with(Instant::now);
            })?;
            let t1 = Instant::now();
            wire_ms.push(ms(t0, t1));
            first_ms.push(ms(t0, first.unwrap_or(t1)));
            let mut items = out.items;
            items.sort_by_key(|g| g.provenance.index);
            Ok(items.iter().map(|g| pattern_bytes(&g.pattern)).collect())
        };
        let mut run_local = || -> Result<Vec<Vec<u8>>, BenchError> {
            let t0 = Instant::now();
            let handle = service.submit(spec)?;
            let t1 = Instant::now();
            let generation = handle.wait()?;
            local_ms.push(ms(t0, Instant::now()));
            submit_us.push(ms(t0, t1) * 1e3);
            Ok(generation
                .items
                .iter()
                .map(|g| pattern_bytes(&g.pattern))
                .collect())
        };
        let (w, l) = if i % 2 == 0 {
            let w = run_wire(&mut client)?;
            (w, run_local()?)
        } else {
            let l = run_local()?;
            (run_wire(&mut client)?, l)
        };
        if w != l {
            mismatched += 1;
        }
    }
    let metrics = client.metrics()?;
    drop(client);
    server.stop();
    report.check(
        "wire probe: items over the wire equal in-process generation",
        mismatched == 0,
        format!("{} specs, {mismatched} differ", specs.len()),
    );
    let mean_us = |name: &str| {
        metrics
            .get("latency")
            .and_then(|l| l.get(name))
            .and_then(|h| h.get("mean_us"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    report.set(
        "dp_serve.first_chunk_ms",
        median(&first_ms).unwrap_or(f64::NAN),
    );
    report.set("dp_serve.server_admit_us", mean_us("admit"));
    report.set("dp_serve.server_first_item_ms", mean_us("first_item") / 1e3);
    report.set("dp_serve.server_stream_ms", mean_us("stream") / 1e3);
    report.set(
        "dp_serve.wire_overhead_ms",
        median(&wire_ms).unwrap_or(f64::NAN) - median(&local_ms).unwrap_or(f64::NAN),
    );
    Ok(submit_us)
}

/// Sets `diffpattern.submit_us.p50` and `.tail` from submit times.
pub fn set_submit(submit_us: &[f64], report: &mut Report) {
    report.set_noted(
        "diffpattern.submit_us.p50",
        median(submit_us).unwrap_or(f64::NAN),
        format!("n={}", submit_us.len()),
    );
    // Few samples (an idle probe) have no tail; their maximum stands in.
    match tail(submit_us) {
        Some(t) => report.set_noted("diffpattern.submit_us.tail", t.value, t.to_string()),
        None => report.set_noted(
            "diffpattern.submit_us.tail",
            submit_us.iter().copied().fold(f64::NAN, f64::max),
            format!("max of n={}", submit_us.len()),
        ),
    }
}

/// Ingests `patterns` into a fresh library at `dir`, finishes it,
/// reopens it and reads every record back; sets the `dp_library`
/// metrics and checks the read-back against what was ingested.
pub fn store(
    dir: &Path,
    patterns: &[SquishPattern],
    report: &mut Report,
) -> Result<(), BenchError> {
    let config = LibraryConfig {
        timestamp_override: Some("1970-01-01T00:00:00Z".to_string()),
        ..LibraryConfig::default()
    };
    let mut writer = LibraryWriter::open(dir, config)?;
    let mut stored = Vec::new();
    let mut duplicates = 0u64;
    let t0 = Instant::now();
    for (i, p) in patterns.iter().enumerate() {
        match writer.ingest("diffpattern", "probe", i as u64, p, true)? {
            IngestOutcome::Duplicate => duplicates += 1,
            _ => stored.push(pattern_bytes(p)),
        }
    }
    let t1 = Instant::now();
    drop(writer.finish()?);
    let t2 = Instant::now();
    let library = Library::open(dir)?;
    let t3 = Instant::now();
    let read = read_all(&library, "diffpattern", "probe")?;
    let t4 = Instant::now();
    report.set(
        "dp_library.ingest_us_per_item",
        ms(t0, t1) * 1e3 / patterns.len().max(1) as f64,
    );
    report.set("dp_library.duplicates", duplicates as f64);
    report.set("dp_library.finish_ms", ms(t1, t2));
    report.set("dp_library.reopen_ms", ms(t2, t3));
    report.set(
        "dp_library.read_us_per_record",
        ms(t3, t4) * 1e3 / read.len().max(1) as f64,
    );
    let read: Vec<Vec<u8>> = read.iter().map(pattern_bytes).collect();
    report.check(
        "store probe: library read-back equals what was ingested",
        read == stored,
        format!(
            "{} ingested, {duplicates} duplicates, {} read back",
            patterns.len(),
            read.len()
        ),
    );
    Ok(())
}

/// Every record of one bucket, in stored order.
pub fn read_all(
    library: &Library,
    method: &str,
    ruleset: &str,
) -> Result<Vec<SquishPattern>, BenchError> {
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    for r in library.records(method, ruleset).unwrap_or(&[]) {
        out.push(library.read(r, &mut scratch)?.pattern);
    }
    Ok(out)
}

/// Times one batch of `width` chains at `stride` without and with the
/// conditioning of the conditioned `serve_ladder` requests, alternating,
/// and sets `dp_diffusion.conditioned_overhead_pct` from the medians.
pub fn conditioning(
    model: &TrainedModel,
    width: usize,
    stride: usize,
    conditioned: &Conditioning,
    report: &mut Report,
) {
    let sampler = model.sampler();
    let retained = sampler.strided_steps(stride);
    let none = Conditioning::none();
    let mut scratch = BatchScratch::new();
    let (mut plain_ms, mut cond_ms) = (vec![], vec![]);
    for round in 0..6u64 {
        for (c, out) in [(&none, &mut plain_ms), (conditioned, &mut cond_ms)] {
            let mut rngs: Vec<StdRng> = (0..width as u64)
                .map(|i| StdRng::seed_from_u64(round * 1000 + i))
                .collect();
            let t0 = Instant::now();
            std::hint::black_box(sampler.sample_conditioned_batch_with(
                model,
                model.channels(),
                model.side(),
                &retained,
                c,
                &mut rngs,
                &mut scratch,
            ));
            out.push(ms(t0, Instant::now()));
        }
    }
    let plain = median(&plain_ms).unwrap_or(f64::NAN);
    let cond = median(&cond_ms).unwrap_or(f64::NAN);
    report.set_noted(
        "dp_diffusion.conditioned_overhead_pct",
        100.0 * (cond - plain) / plain,
        format!(
            "batch of {width} at stride {stride}: {plain:.2} ms plain, {cond:.2} ms conditioned"
        ),
    );
}
