//! Integration tests for the [`PatternService`] generation engine: the
//! determinism contract (independent of load, worker count, micro-batch
//! size and admission order), edge-case request sizes, shortfall
//! accounting, cancellation semantics, handle streaming, model
//! persistence and the `PatternSource` adapter.

use diffpattern::drc::{check_pattern, DesignRules};
use diffpattern::legalize::SolverConfig;
use diffpattern::{
    ConfigError, DiffusionSource, Generated, PatternService, PatternSource, Pipeline,
    PipelineConfig, RecvPoll, RequestSpec, TrainedModel,
};
use rand::SeedableRng;
use std::sync::Arc;

/// One trained tiny model plus the pipeline-derived base spec.
fn trained(seed: u64, iters: usize) -> (Arc<TrainedModel>, RequestSpec, Pipeline) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(iters, &mut rng).unwrap();
    let model = Arc::new(pipeline.trained_model().unwrap());
    let spec = pipeline.request_spec(0);
    (model, spec, pipeline)
}

fn service(model: &Arc<TrainedModel>, threads: usize) -> PatternService {
    PatternService::builder(Arc::clone(model))
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn request_output_is_independent_of_load_workers_and_order() {
    // The tentpole contract: a fixed RequestSpec produces bit-identical
    // output when run alone, alongside concurrent requests, at worker
    // counts {1, 2, 4}, and regardless of submission order or priority.
    let (model, base, _) = trained(70, 4);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(31);

    // Reference: alone, one worker.
    let reference = service(&model, 1).generate(&spec).unwrap();
    assert_eq!(
        reference.items.len() + reference.report.shortfall,
        4,
        "accounting must be closed"
    );

    for workers in [1usize, 2, 4] {
        let svc = service(&model, workers);

        // Alone at this worker count.
        let alone = svc.generate(&spec).unwrap();
        assert_eq!(reference.items, alone.items, "{workers} workers (alone)");
        assert_eq!(reference.report, alone.report);

        // Alongside three concurrent requests with different seeds and
        // priorities, submitted *before* the probe (admission order and
        // queue pressure must not matter).
        let decoys: Vec<RequestSpec> = (0..3)
            .map(|i| {
                RequestSpec {
                    count: 3,
                    priority: i as i32 - 1,
                    ..base.clone()
                }
                .seed(100 + i)
            })
            .collect();
        let decoy_handles: Vec<_> = decoys.iter().map(|d| svc.submit(d).unwrap()).collect();
        let contended = svc.submit(&spec).unwrap().wait().unwrap();
        assert_eq!(
            reference.items, contended.items,
            "{workers} workers (contended) changed the request"
        );
        assert_eq!(reference.report, contended.report);

        // The concurrent requests are themselves deterministic: each must
        // equal its own uncontended single-worker run.
        for (decoy_spec, handle) in decoys.iter().zip(decoy_handles) {
            let contended = handle.wait().unwrap();
            let solo = service(&model, 1).generate(decoy_spec).unwrap();
            assert_eq!(
                solo.items, contended.items,
                "decoy seed {}",
                decoy_spec.seed
            );
        }
    }
}

#[test]
fn request_output_is_bit_identical_across_micro_batch_sizes_and_threads() {
    // Neither the number of lock-step denoising lanes nor the worker
    // count may change a single bit of the output — only the seed does.
    let (model, base, _) = trained(60, 4);
    let spec = RequestSpec {
        count: 6,
        ..base.clone()
    }
    .seed(31);
    let run = |micro_batch: usize, threads: usize, spec: &RequestSpec| {
        PatternService::builder(Arc::clone(&model))
            .micro_batch(micro_batch)
            .threads(threads)
            .build()
            .unwrap()
            .generate(spec)
            .unwrap()
    };
    let reference = run(1, 1, &spec);
    assert_eq!(
        reference.items.len() + reference.report.shortfall,
        6,
        "accounting must be closed"
    );
    for micro_batch in [1usize, 3, 8] {
        for threads in [1usize, 2, 4] {
            let other = run(micro_batch, threads, &spec);
            assert_eq!(
                reference.items, other.items,
                "micro_batch={micro_batch} threads={threads} changed the request"
            );
            assert_eq!(reference.report, other.report);
        }
    }
    let other_seed = run(8, 1, &spec.clone().seed(32));
    assert_ne!(reference.items, other_seed.items, "the seed is the knob");
}

#[test]
fn empty_and_undersized_requests_are_well_defined() {
    // `count = 0` and `micro_batch > count` must neither panic nor hang,
    // and an empty request reports zero work everywhere.
    let (model, base, _) = trained(61, 3);
    let spec = |count: usize| {
        RequestSpec {
            count,
            ..base.clone()
        }
        .seed(5)
    };
    let build = |micro_batch: usize, threads: usize| {
        PatternService::builder(Arc::clone(&model))
            .micro_batch(micro_batch)
            .threads(threads)
            .build()
            .unwrap()
    };
    for (micro_batch, threads) in [(1usize, 1usize), (8, 1), (8, 4), (64, 3)] {
        let svc = build(micro_batch, threads);
        let empty = svc.generate(&spec(0)).unwrap();
        assert!(empty.items.is_empty());
        assert_eq!(empty.report, diffpattern::PipelineReport::default());
        let (topologies, report) = svc.sample_topologies(&spec(0)).unwrap();
        assert!(topologies.is_empty());
        assert_eq!(report, diffpattern::PipelineReport::default());
        // A request smaller than one micro-batch (and than the pool).
        let small = svc.generate(&spec(2)).unwrap();
        assert_eq!(small.items.len() + small.report.shortfall, 2);
        assert!(small.items.iter().all(|g| g.provenance.index < 2));
    }
    // Undersized requests equal the one-lane-per-call path item for item.
    let reference = build(1, 1).generate(&spec(2)).unwrap();
    let oversized = build(64, 3).generate(&spec(2)).unwrap();
    assert_eq!(reference.items, oversized.items);
    assert_eq!(reference.report, oversized.report);
}

#[test]
fn single_worker_streaming_is_in_index_order() {
    // One worker claims a lone request's chunks in index order and sends
    // each chunk's messages in lane order, so the handle streams items in
    // index order as they complete.
    let (model, base, _) = trained(57, 4);
    let svc = PatternService::builder(model)
        .threads(1)
        .micro_batch(2)
        .build()
        .unwrap();
    let mut handle = svc
        .submit(
            &RequestSpec {
                count: 5,
                ..base.clone()
            }
            .seed(6),
        )
        .unwrap();
    let mut indices = Vec::new();
    while let Some(g) = handle.recv() {
        indices.push(g.provenance.index);
    }
    assert_eq!(indices.len() + handle.report().shortfall, 5);
    assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
}

#[test]
fn exhausted_attempts_surface_as_shortfall_not_silence() {
    // With rules the solver cannot satisfy, every slot must be reported,
    // not dropped.
    let (model, base, _) = trained(53, 3);
    let harsh = DesignRules::builder()
        .space_min(900)
        .width_min(900)
        .area_range(1, i128::MAX / 4)
        .build()
        .unwrap();
    let spec = RequestSpec {
        count: 3,
        rules: harsh,
        solver: SolverConfig {
            max_iterations: 20,
            max_restarts: 1,
            ..SolverConfig::for_window(2048, 2048)
        },
        max_attempts: 2,
        ..base.clone()
    }
    .seed(11);
    let batch = service(&model, 2).generate(&spec).unwrap();
    assert_eq!(batch.items.len() + batch.report.shortfall, 3);
    if batch.items.is_empty() {
        assert_eq!(batch.report.shortfall, 3);
        assert!(batch.report.solver_failures >= 3);
    }
}

#[test]
fn model_save_load_round_trip_generates_identically() {
    let (model, base, _) = trained(54, 4);
    let restored = Arc::new(TrainedModel::load(&model.save()).unwrap());
    let spec = RequestSpec {
        count: 3,
        ..base.clone()
    }
    .seed(8);
    let generate = |m: &Arc<TrainedModel>| service(m, 2).generate(&spec).unwrap().items;
    assert_eq!(generate(&model), generate(&restored));
}

#[test]
fn pattern_source_interface_drives_the_service() {
    let (model, base, _) = trained(55, 4);
    let svc = service(&model, 1);
    let spec = base.seed(2);
    let rules = spec.rules;
    let mut source: Box<dyn PatternSource + '_> =
        Box::new(DiffusionSource::new(&svc, spec, "DiffPattern-S"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let batch = source.generate(3, &mut rng).unwrap();
    assert_eq!(source.name(), "DiffPattern-S");
    assert_eq!(batch.topologies, Some(batch.patterns.len()));
    for p in &batch.patterns {
        assert!(check_pattern(p, &rules).is_clean());
    }
}

#[test]
fn dropping_a_handle_cancels_without_disturbing_neighbours() {
    let (model, base, _) = trained(72, 4);

    // Uncontended witness run first.
    let witness_spec = RequestSpec {
        count: 3,
        ..base.clone()
    }
    .seed(7);
    let expected = service(&model, 1).generate(&witness_spec).unwrap();

    let svc = service(&model, 2);
    // A large victim request to cancel mid-stream...
    let victim_spec = RequestSpec {
        count: 16,
        ..base.clone()
    }
    .seed(8);
    let mut victim = svc.submit(&victim_spec).unwrap();
    // ...and the witness competing with it for the same pool.
    let witness = svc.submit(&witness_spec).unwrap();

    // Pull one item off the victim, then drop it mid-stream.
    let first = victim.recv();
    let victim_report = victim.report();
    drop(victim);
    if let Some(g) = &first {
        assert!(g.provenance.index < 16);
        assert!(victim_report.legal_patterns >= 1);
    }

    // The witness must be byte-identical to its uncontended run.
    let contended = witness.wait().unwrap();
    assert_eq!(expected.items, contended.items);
    assert_eq!(expected.report, contended.report);

    // The pool survives cancellation: fresh requests still complete, and
    // repeated submit-and-drop cycles neither wedge nor leak workers.
    for _ in 0..3 {
        let h = svc.submit(&victim_spec).unwrap();
        drop(h);
    }
    let after = svc.generate(&witness_spec).unwrap();
    assert_eq!(expected.items, after.items);

    // Explicit cancel() ends the stream immediately.
    let mut cancelled = svc.submit(&victim_spec).unwrap();
    cancelled.cancel();
    assert!(cancelled.is_finished());
    assert!(cancelled.recv().is_none());
}

#[test]
fn handles_stream_every_item_with_closed_accounting() {
    let (model, base, _) = trained(73, 4);
    let svc = service(&model, 2);
    let spec = RequestSpec {
        count: 5,
        ..base.clone()
    }
    .seed(3);

    // recv() streams items (completion order); the iterator is equivalent.
    let mut handle = svc.submit(&spec).unwrap();
    let mut streamed: Vec<Generated> = Vec::new();
    while let Some(g) = handle.recv() {
        streamed.push(g);
    }
    assert!(handle.is_finished());
    assert!(handle.error().is_none());
    let report = handle.report();
    assert_eq!(streamed.len() + report.shortfall, 5);
    assert_eq!(report.legal_patterns, streamed.len());
    for g in &streamed {
        assert!(check_pattern(&g.pattern, &spec.rules).is_clean());
        assert!(g.provenance.attempts >= 1 && g.provenance.attempts <= spec.max_attempts);
    }

    // The iterator and wait() see the same items.
    let collected: Vec<Generated> = svc.submit(&spec).unwrap().collect();
    assert_eq!(collected.len(), streamed.len());
    let waited = svc.submit(&spec).unwrap().wait().unwrap();
    let mut sorted = streamed;
    sorted.sort_by_key(|g| g.provenance.index);
    assert_eq!(waited.items, sorted);

    // Zero-count requests are well-defined.
    let empty = svc
        .generate(&RequestSpec {
            count: 0,
            ..base.clone()
        })
        .unwrap();
    assert!(empty.items.is_empty());
    assert_eq!(empty.report, diffpattern::PipelineReport::default());
}

#[test]
fn requests_with_different_strides_share_one_service() {
    // Lanes may only share a lock-step micro-batch when they traverse the
    // same denoising plan; requests on different strides must still be
    // served correctly (in their own batches) and deterministically.
    let (model, base, _) = trained(74, 3);
    let svc = service(&model, 2);
    let full = RequestSpec {
        count: 3,
        sample_stride: 1,
        ..base.clone()
    }
    .seed(21);
    let respaced = RequestSpec {
        count: 3,
        sample_stride: 5,
        ..base.clone()
    }
    .seed(21);

    let h_full = svc.submit(&full).unwrap();
    let h_respaced = svc.submit(&respaced).unwrap();
    let got_full = h_full.wait().unwrap();
    let got_respaced = h_respaced.wait().unwrap();

    assert_eq!(got_full.items.len() + got_full.report.shortfall, 3);
    assert_eq!(got_respaced.items.len() + got_respaced.report.shortfall, 3);
    // Different plans genuinely sample differently...
    assert_ne!(got_full.items, got_respaced.items);
    // ...but each equals its solo run.
    assert_eq!(
        got_full.items,
        service(&model, 1).generate(&full).unwrap().items
    );
    assert_eq!(
        got_respaced.items,
        service(&model, 1).generate(&respaced).unwrap().items
    );
}

#[test]
fn service_clones_share_the_engine_and_join_cleanly() {
    let (model, base, _) = trained(75, 3);
    let spec = RequestSpec {
        count: 2,
        ..base.clone()
    }
    .seed(9);
    let expected = service(&model, 1).generate(&spec).unwrap();

    let svc = service(&model, 2);
    let clone = svc.clone();
    // Submit through the clone, drop the original: the pool stays alive
    // until the last clone goes.
    let handle = clone.submit(&spec).unwrap();
    drop(svc);
    let got = handle.wait().unwrap();
    assert_eq!(expected.items, got.items);
    drop(clone); // joins the workers; returning from the test proves it
}

#[test]
fn invalid_specs_are_rejected_at_submit() {
    let (model, base, _) = trained(76, 3);
    let svc = service(&model, 1);
    assert!(matches!(
        svc.submit(&RequestSpec {
            sample_stride: 0,
            ..base.clone()
        }),
        Err(ConfigError::ZeroStride)
    ));
    assert!(matches!(
        svc.submit(&RequestSpec {
            max_attempts: 0,
            ..base.clone()
        }),
        Err(ConfigError::ZeroAttempts)
    ));
    assert!(matches!(
        svc.submit(&RequestSpec {
            solver: diffpattern::legalize::SolverConfig::for_window(8, 2048),
            ..base.clone()
        }),
        Err(ConfigError::WindowTooSmall { .. })
    ));
    assert!(matches!(
        PatternService::builder(Arc::clone(&model))
            .micro_batch(0)
            .build(),
        Err(ConfigError::ZeroMicroBatch)
    ));
}

#[test]
fn dropping_the_service_terminates_outstanding_handles() {
    let (model, base, _) = trained(77, 3);
    let svc = service(&model, 1);
    let handle = svc
        .submit(&RequestSpec {
            count: 32,
            ..base.clone()
        })
        .unwrap();
    drop(svc);
    // With the pool gone, the stream must end (possibly after in-flight
    // lanes drained) instead of blocking forever.
    let drained: Vec<Generated> = handle.collect();
    assert!(drained.len() <= 32);
}

#[test]
fn admission_bound_rejects_with_typed_queue_full_and_recovers() {
    let (model, base, _) = trained(78, 3);
    // One worker claiming one lane at a time keeps a multi-lane request
    // in the admission queue for its whole lifetime.
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(1)
        .max_queued_requests(1)
        .build()
        .unwrap();
    assert_eq!(svc.max_queued_requests(), 1);

    let occupant = svc
        .submit(&RequestSpec {
            count: 32,
            ..base.clone()
        })
        .unwrap();

    // The queue is at its bound: the next submit is refused with the
    // typed backpressure error, carrying the observed depth.
    match svc.submit(&RequestSpec {
        count: 1,
        ..base.clone()
    }) {
        Err(ConfigError::QueueFull { queued, max_queued }) => {
            assert_eq!(queued, 1);
            assert_eq!(max_queued, 1);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Cancelling the occupant drains the queue; the same spec is then
    // admitted (poll briefly — the prune happens on the next sweep).
    drop(occupant);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let generation = loop {
        match svc.generate(&RequestSpec {
            count: 1,
            ..base.clone()
        }) {
            Ok(generation) => break generation,
            Err(diffpattern::PipelineError::Config(ConfigError::QueueFull { .. }))
                if std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error while recovering: {other}"),
        }
    };
    assert_eq!(generation.items.len() + generation.report.shortfall, 1);
}

#[test]
fn service_stats_track_queue_and_drain_to_zero() {
    let (model, base, _) = trained(79, 3);
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .micro_batch(1)
        .build()
        .unwrap();
    let idle = svc.stats();
    assert_eq!(idle, diffpattern::ServiceStats::default());

    let handle = svc
        .submit(&RequestSpec {
            count: 8,
            ..base.clone()
        })
        .unwrap();
    // While the request runs, the scheduler reports work somewhere
    // (queued or in flight); when the handle completes, everything
    // drains back to zero.
    let busy = svc.stats();
    assert!(
        busy.queued_requests + busy.queued_lanes + busy.lanes_in_flight > 0,
        "{busy:?}"
    );
    let generation = handle.wait().unwrap();
    assert_eq!(generation.items.len() + generation.report.shortfall, 8);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let drained = svc.stats();
        if drained == diffpattern::ServiceStats::default() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stats never drained: {drained:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn in_process_deadline_expires_to_accounted_shortfall() {
    let (model, base, _) = trained(80, 3);
    let svc = service(&model, 1);

    // Already-expired deadline: all lanes become shortfall, nothing is
    // generated, the stream closes immediately.
    let expired = svc
        .generate(
            &RequestSpec {
                count: 5,
                ..base.clone()
            }
            .deadline(std::time::Duration::ZERO),
        )
        .unwrap();
    assert_eq!(expired.items.len(), 0);
    assert_eq!(expired.report.shortfall, 5);

    // A service-wide default deadline applies when the spec sets none.
    let svc = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .default_deadline(std::time::Duration::ZERO)
        .build()
        .unwrap();
    let defaulted = svc
        .generate(&RequestSpec {
            count: 3,
            ..base.clone()
        })
        .unwrap();
    assert_eq!(defaulted.report.shortfall, 3);
}

#[test]
fn first_index_subrange_is_bit_identical_to_the_full_request_slice() {
    // The sub-range determinism contract behind resumable library
    // builds: item `i` of a `first_index: F` request is the same item as
    // item `F + i` of a full request with the same seed — same pattern
    // bits, same per-item seed, same solve provenance. Only the
    // request-relative `index` differs.
    let (model, base, _) = trained(81, 4);
    let svc = service(&model, 2);

    let full = svc
        .generate(
            &RequestSpec {
                count: 10,
                ..base.clone()
            }
            .seed(23),
        )
        .unwrap();
    let sub = svc
        .generate(
            &RequestSpec {
                count: 6,
                ..base.clone()
            }
            .seed(23)
            .first_index(4),
        )
        .unwrap();
    assert_eq!(
        sub.items.len() + sub.report.shortfall,
        6,
        "accounting must be closed"
    );

    for item in &sub.items {
        let reference = full
            .items
            .iter()
            .find(|g| g.provenance.index == item.provenance.index + 4)
            .expect("the full run must contain every sub-range item");
        assert_eq!(reference.pattern, item.pattern, "pattern bits must match");
        assert_eq!(reference.provenance.seed, item.provenance.seed);
        assert_eq!(reference.provenance.attempts, item.provenance.attempts);
        assert_eq!(reference.provenance.repaired, item.provenance.repaired);
        assert_eq!(reference.provenance.solve, item.provenance.solve);
    }

    // Overflowing the index space is a typed config error, not a panic.
    let err = svc
        .submit(
            &RequestSpec {
                count: 2,
                ..base.clone()
            }
            .first_index(usize::MAX),
        )
        .unwrap_err();
    assert!(matches!(err, ConfigError::IndexOverflow { .. }), "{err:?}");
}

#[test]
fn recv_timeout_polls_without_losing_items_or_accounting() {
    let (model, base, _) = trained(82, 4);
    let svc = service(&model, 2);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(29);

    // Reference: the blocking collector.
    let reference = svc.generate(&spec).unwrap();

    // Polling loop: short timeouts interleave `TimedOut` ticks (the
    // network server's liveness-check window) with item delivery, and
    // must surface exactly the same items, in some order, with the same
    // closing report.
    let mut handle = svc.submit(&spec).unwrap();
    let mut items: Vec<Generated> = Vec::new();
    let mut timeouts = 0usize;
    loop {
        match handle.recv_timeout(std::time::Duration::from_millis(5)) {
            RecvPoll::Item(g) => items.push(g),
            RecvPoll::TimedOut => timeouts += 1,
            RecvPoll::Finished => break,
        }
        assert!(timeouts < 1_000_000, "request never completed");
    }
    // Finished is sticky: further polls return it immediately.
    assert!(matches!(
        handle.recv_timeout(std::time::Duration::ZERO),
        RecvPoll::Finished
    ));

    items.sort_by_key(|g| g.provenance.index);
    let mut expected = reference.items.clone();
    expected.sort_by_key(|g| g.provenance.index);
    assert_eq!(items, expected, "polled items must match the blocking run");
    assert_eq!(items.len() + handle.report().shortfall, 4);

    // A zero timeout on a fresh request times out immediately rather
    // than blocking (the first denoising chunk takes far longer than 0ms).
    let mut fresh = svc.submit(&spec).unwrap();
    assert!(matches!(
        fresh.recv_timeout(std::time::Duration::ZERO),
        RecvPoll::TimedOut
    ));
    drop(fresh);
}

#[test]
fn repeated_requests_are_bit_identical_run_to_run() {
    // Reusing one service (and therefore its workers' warm sampling
    // scratch) across requests must not change a single bit of what gets
    // generated: at a fixed seed and worker count, run N equals run 1.
    let (model, base, _) = trained(51, 4);
    let spec = RequestSpec {
        count: 5,
        ..base.clone()
    }
    .seed(7);
    for threads in [1usize, 3] {
        let svc = service(&model, threads);
        let first = svc.generate(&spec).unwrap();
        for run in 0..2 {
            let again = svc.generate(&spec).unwrap();
            assert_eq!(
                first.items, again.items,
                "repeat {run} at {threads} workers diverged"
            );
            assert_eq!(first.report, again.report);
        }
    }
}

#[test]
fn more_workers_than_lanes_match_the_single_worker_run() {
    // A pool larger than the request leaves workers idle; the idle ones
    // must neither claim phantom lanes nor change the claimed ones.
    let (model, base, _) = trained(50, 4);
    let spec = RequestSpec {
        count: 6,
        ..base.clone()
    }
    .seed(99);
    let serial = service(&model, 1).generate(&spec).unwrap();
    let wide = service(&model, 7).generate(&spec).unwrap();
    assert_eq!(serial.items, wide.items, "7 workers changed the request");
    assert_eq!(serial.report, wide.report);
    assert_eq!(wide.items.len() + wide.report.shortfall, 6);
}

#[test]
fn generated_patterns_are_drc_clean_with_provenance() {
    let (model, base, _) = trained(51, 5);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(3);
    let batch = service(&model, 2).generate(&spec).unwrap();
    assert!(!batch.items.is_empty(), "service produced nothing");
    let mut last_index = None;
    for g in &batch.items {
        let report = check_pattern(&g.pattern, &spec.rules);
        assert!(report.is_clean(), "{:?}", report.violations());
        assert_eq!(g.pattern.width(), 2048);
        assert_eq!(g.pattern.height(), 2048);
        assert!(g.provenance.attempts >= 1 && g.provenance.attempts <= spec.max_attempts);
        // `wait` returns items in strictly increasing index order.
        assert!(Some(g.provenance.index) > last_index);
        last_index = Some(g.provenance.index);
    }
    // Every item draws its own RNG stream.
    let mut seeds: Vec<u64> = batch.items.iter().map(|g| g.provenance.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), batch.items.len(), "per-item seeds must differ");
    // Accounting is closed: every requested slot is a pattern or shortfall.
    assert_eq!(batch.items.len() + batch.report.shortfall, 4);
    assert_eq!(batch.report.legal_patterns, batch.items.len());
}

#[test]
fn multi_worker_streaming_delivers_every_index_once() {
    let (model, base, _) = trained(52, 4);
    let svc = service(&model, 3);
    let mut handle = svc
        .submit(
            &RequestSpec {
                count: 5,
                ..base.clone()
            }
            .seed(5),
        )
        .unwrap();
    let mut indices = Vec::new();
    while let Some(g) = handle.recv() {
        indices.push(g.provenance.index);
    }
    let report = handle.report();
    assert_eq!(indices.len() + report.shortfall, 5);
    assert_eq!(report.legal_patterns, indices.len());
    indices.sort_unstable();
    let streamed = indices.len();
    indices.dedup();
    assert_eq!(indices.len(), streamed, "an index was delivered twice");
    assert!(indices.iter().all(|&i| i < 5), "{indices:?}");
}

#[test]
fn topology_sampling_is_independent_of_workers_and_follows_the_seed() {
    // `sample_topologies` runs the same lanes as `generate`, minus
    // legalization, so it carries the same determinism contract.
    let (model, base, _) = trained(71, 4);
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(45);
    let sample = |micro_batch: usize, threads: usize, spec: &RequestSpec| {
        PatternService::builder(Arc::clone(&model))
            .micro_batch(micro_batch)
            .threads(threads)
            .build()
            .unwrap()
            .sample_topologies(spec)
            .unwrap()
    };
    let (reference, reference_report) = sample(1, 1, &spec);
    assert_eq!(reference.len() + reference_report.shortfall, 4);
    assert_eq!(reference_report.legal_patterns, 0, "no legalization");
    for (micro_batch, threads) in [(8usize, 1usize), (2, 3), (8, 4)] {
        let (other, other_report) = sample(micro_batch, threads, &spec);
        assert_eq!(
            reference, other,
            "micro_batch={micro_batch} threads={threads} changed the topologies"
        );
        assert_eq!(reference_report, other_report);
    }
    let (other_seed, _) = sample(1, 1, &spec.clone().seed(46));
    assert_ne!(reference, other_seed, "the seed is the knob");
}
