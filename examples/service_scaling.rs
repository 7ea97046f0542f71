//! Batch-generation scaling: the headline of the train/infer split.
//!
//! PR 1's baseline put one topology sample at **19.6 ms** — topology
//! sampling utterly dominates generation (a legalization solve is ~27 µs).
//! With an immutable [`diffpattern::TrainedModel`] shared by a
//! [`diffpattern::PatternService`]'s worker pool, batch sampling scales
//! with cores while staying bit-identical per seed. This example measures
//! exactly that: the same 16-topology request at 1, 2, 4, ... workers,
//! verifying the outputs match before reporting the speedups.
//!
//! ```text
//! cargo run --release --example service_scaling
//! ```
//!
//! The second sweep varies the sampling **micro-batch** (lock-step
//! denoising lanes per U-Net call) at a fixed thread count, again
//! verifying bit-identical output at every setting — the determinism
//! argument is per-lane RNG streams, so neither knob can change what is
//! generated.
//!
//! Environment knobs: `DP_TRAIN_ITERS` (default 100), `DP_GENERATE`
//! (batch size, default 16), `DP_MAX_THREADS` (default = available
//! parallelism), `DP_SEED`.

use diffpattern::{PatternService, Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 100);
    let batch = env_knob("DP_GENERATE", 16);
    let hw_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let max_threads = env_knob("DP_MAX_THREADS", hw_threads);
    let seed = env_knob("DP_SEED", 42) as u64;

    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    println!("training for {train_iters} iterations...");
    let _ = pipeline.train(train_iters, &mut rng)?;
    let spec = pipeline.request_spec(batch).seed(seed);
    let model = Arc::new(pipeline.into_trained_model()?);

    println!(
        "\nbatch of {batch} topologies, hardware parallelism {hw_threads}:\n\n{:<8} {:>12} {:>12} {:>9}",
        "threads", "total", "per-sample", "speedup"
    );

    let mut serial_total = 0.0f64;
    let mut reference: Option<Vec<_>> = None;
    let mut runs = 0usize;
    let mut threads = 1;
    while threads <= max_threads {
        let service = PatternService::builder(Arc::clone(&model))
            .threads(threads)
            .build()?;
        let start = Instant::now();
        let (topologies, report) = service.sample_topologies(&spec)?;
        let total = start.elapsed().as_secs_f64();
        if threads == 1 {
            serial_total = total;
        }
        match &reference {
            None => reference = Some(topologies),
            Some(reference) => assert_eq!(
                reference, &topologies,
                "determinism violated: thread count changed the batch"
            ),
        }
        println!(
            "{threads:<8} {:>10.3} s {:>10.1} ms {:>8.2}x{}",
            total,
            1e3 * total / batch as f64,
            serial_total / total,
            if report.shortfall > 0 {
                format!("  ({} short)", report.shortfall)
            } else {
                String::new()
            }
        );
        runs += 1;
        threads *= 2;
    }
    if runs >= 2 {
        println!("\nper-seed output verified bit-identical across {runs} thread counts");
    } else {
        println!(
            "\nonly one thread count ran (DP_MAX_THREADS={max_threads}); \
             determinism cross-check needs at least two"
        );
    }

    println!(
        "\nmicro-batch sweep (1 thread, same {batch}-topology batch):\n\n{:<12} {:>12} {:>12} {:>9}",
        "micro-batch", "total", "per-sample", "speedup"
    );
    let mut mb_serial_total = 0.0f64;
    for micro_batch in [1usize, 2, 4, 8, 16] {
        let service = PatternService::builder(Arc::clone(&model))
            .threads(1)
            .micro_batch(micro_batch)
            .build()?;
        let start = Instant::now();
        let (topologies, _) = service.sample_topologies(&spec)?;
        let total = start.elapsed().as_secs_f64();
        if micro_batch == 1 {
            mb_serial_total = total;
        }
        assert_eq!(
            reference.as_ref().expect("thread sweep ran"),
            &topologies,
            "determinism violated: micro-batch size changed the batch"
        );
        println!(
            "{micro_batch:<12} {:>10.3} s {:>10.1} ms {:>8.2}x",
            total,
            1e3 * total / batch as f64,
            mb_serial_total / total,
        );
    }
    println!("\nper-seed output verified bit-identical across all micro-batch sizes");
    Ok(())
}
