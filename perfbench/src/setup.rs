//! The shared set-up every workload times as `setup_s`: build the
//! dataset, train the canonical model, freeze it, start the service
//! (and, for `wire_fastchain`, the loopback server).

use crate::gen::{ladder_conditioning, SpecParts, WIRE_DONORS};
use crate::report::Report;
use crate::BenchError;
use diffpattern::datagen::{split_into_tiles, LayoutMapGenerator};
use diffpattern::library::codec::{fnv1a, FNV_OFFSET};
use diffpattern::squish::SquishPattern;
use diffpattern::{PatternService, Pipeline, PipelineConfig, TrainedModel};
use dp_serve::{ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the canonical benchmark model. The workload seed never
/// reaches training.
pub const MODEL_SEED: u64 = 2023;
/// Lock-step denoising lanes per U-Net call.
pub const MICRO_BATCH: usize = 8;

/// A trained model behind a running service.
pub struct Setup {
    /// The frozen model.
    pub model: Arc<TrainedModel>,
    /// The service over it, with `threads = nproc`.
    pub service: PatternService,
    /// The loopback server, when the workload goes over the wire.
    pub server: Option<ServerHandle>,
    /// Donors and conditioning for turning requests into specs.
    pub parts: SpecParts,
}

struct Timed {
    setup: Setup,
    dataset_ms: f64,
    train_s: f64,
    freeze_ms: f64,
    total_s: f64,
    model_hash: u64,
}

fn once(train_iters: usize, wire: bool) -> Result<Timed, BenchError> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let config = PipelineConfig::tiny();
    let map = LayoutMapGenerator::new(config.generator).generate(&mut rng);
    let tiles = split_into_tiles(&map, config.tile);
    let mut pipeline = Pipeline::from_tiles(config, &tiles, &mut rng)?;
    let t1 = Instant::now();
    pipeline.train(train_iters, &mut rng)?;
    let t2 = Instant::now();
    let donors: Arc<[SquishPattern]> = pipeline
        .dataset()
        .extended
        .iter()
        .take(WIRE_DONORS)
        .cloned()
        .collect();
    if donors.is_empty() {
        return Err("the dataset holds no patterns to use as donors".into());
    }
    let model = Arc::new(pipeline.into_trained_model()?);
    let service = PatternService::builder(Arc::clone(&model))
        .threads(crate::host::nproc())
        .micro_batch(MICRO_BATCH)
        .build()?;
    let server = if wire {
        Some(dp_serve::serve(
            service.clone(),
            "127.0.0.1:0",
            ServeConfig::default(),
        )?)
    } else {
        None
    };
    let t3 = Instant::now();
    let entries = model.channels() * model.side() * model.side();
    let parts = SpecParts {
        donors,
        conditioning: Arc::new(ladder_conditioning(entries)),
    };
    Ok(Timed {
        model_hash: fnv1a(FNV_OFFSET, &model.save()),
        setup: Setup {
            model,
            service,
            server,
            parts,
        },
        dataset_ms: (t1 - t0).as_secs_f64() * 1e3,
        train_s: (t2 - t1).as_secs_f64(),
        freeze_ms: (t3 - t2).as_secs_f64() * 1e3,
        total_s: (t3 - t0).as_secs_f64(),
    })
}

/// Sets up `repeats` times, reports the median set-up time and the
/// layer times of the last set-up, checks that every set-up trained the
/// same model, and keeps the last one.
pub fn repeated(
    train_iters: usize,
    repeats: usize,
    wire: bool,
    report: &mut Report,
) -> Result<Setup, BenchError> {
    let mut totals = Vec::with_capacity(repeats);
    let mut hashes = Vec::with_capacity(repeats);
    let mut last: Option<Timed> = None;
    for _ in 0..repeats.max(1) {
        // Tear the previous set-up down first, so each one starts from
        // the same state.
        drop(last.take());
        let timed = once(train_iters, wire)?;
        totals.push(timed.total_s);
        hashes.push(timed.model_hash);
        last = Some(timed);
    }
    let last = last.expect("at least one set-up");
    let median = crate::stats::median(&totals).expect("at least one set-up");
    report.set_noted(
        "setup_s",
        median,
        format!("median of {} set-ups", totals.len()),
    );
    report.set("dp_datagen.dataset_ms", last.dataset_ms);
    report.set("dp_nn.train_s", last.train_s);
    report.set("diffpattern.freeze_ms", last.freeze_ms);
    report.check(
        "set-up trains the same model every time",
        hashes.iter().all(|&h| h == hashes[0]),
        format!("{} set-ups, model hash {:016x}", hashes.len(), hashes[0]),
    );
    Ok(last.setup)
}
