//! The layer replay of a traced run: a workload's lanes driven
//! single-threaded through the public calls each layer exposes, with a
//! span around every call.
//!
//! The replay takes the engine's per-lane path step by step — lane RNG
//! from `(request seed, item index)`, batched conditioned sampling,
//! unfold, bow-tie prefilter, donor pick and solve — so its output must
//! equal, byte for byte, what the service delivered for the same lanes.
//! The benchmark checks that, which also proves the replay measures the
//! program's own path.

use crate::common::pattern_bytes;
use crate::gen::splitmix64;
use crate::report::Report;
use crate::trace::{SpanId, Tracer};
use diffpattern::diffusion::{BatchScratch, DeepSquishTensor, InferenceDenoiser};
use diffpattern::geometry::{bowtie, BitGrid};
use diffpattern::legalize::{Init, Solver};
use diffpattern::nn::Workspace;
use diffpattern::squish::SquishPattern;
use diffpattern::{Conditioning, RequestSpec, TrainedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One lane to replay: item `index` of request `request`.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The request's id in its workload.
    pub request: usize,
    /// Item index within the request.
    pub index: usize,
    /// The request's spec.
    pub spec: Arc<RequestSpec>,
}

/// Every item of the first requests of `specs`, up to `budget` lanes
/// (whole requests only, at least one).
pub fn lanes_of(specs: &[(usize, Arc<RequestSpec>)], budget: usize) -> Vec<Lane> {
    let mut lanes = Vec::new();
    for (request, spec) in specs {
        if !lanes.is_empty() && lanes.len() + spec.count > budget {
            break;
        }
        lanes.extend((0..spec.count).map(|index| Lane {
            request: *request,
            index,
            spec: Arc::clone(spec),
        }));
    }
    lanes
}

/// The lane seed, derived as the engine derives it (a splitmix64
/// finaliser over the request seed and the absolute item index).
fn lane_seed(spec: &RequestSpec, index: usize) -> u64 {
    splitmix64(spec.seed, (spec.first_index + index) as u64)
}

/// Delegates every prediction to the model and logs each call's start,
/// end and batch width.
struct TimedDenoiser<'m> {
    model: &'m TrainedModel,
    calls: Mutex<Vec<(Instant, Instant, usize)>>,
}

impl TimedDenoiser<'_> {
    fn log(&self, start: Instant, items: usize) {
        let end = Instant::now();
        self.calls
            .lock()
            .expect("call log is never poisoned")
            .push((start, end, items));
    }

    fn drain(&self) -> Vec<(Instant, Instant, usize)> {
        std::mem::take(&mut *self.calls.lock().expect("call log is never poisoned"))
    }
}

impl InferenceDenoiser for TimedDenoiser<'_> {
    fn infer_p1(&self, xks: &[DeepSquishTensor], ks: &[usize]) -> Vec<Vec<f64>> {
        let t = Instant::now();
        let out = self.model.infer_p1(xks, ks);
        self.log(t, xks.len());
        out
    }

    fn infer_p1_into(
        &self,
        xk: &DeepSquishTensor,
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        let t = Instant::now();
        self.model.infer_p1_into(xk, k, ws, out);
        self.log(t, 1);
    }

    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        let t = Instant::now();
        self.model.infer_p1_batch_into(xks, k, ws, out);
        self.log(t, xks.len());
    }
}

struct LaneState {
    lane: Lane,
    rng: StdRng,
    attempts: usize,
    active: bool,
}

/// What a replay produced.
pub struct Replay {
    /// Replayed patterns by `(request, index)`.
    pub patterns: BTreeMap<(usize, usize), SquishPattern>,
    /// The spans.
    pub tracer: Tracer,
    /// Lanes replayed.
    pub lanes: usize,
    /// Summed batch width of the denoiser calls.
    pub forward_items: usize,
}

/// Replays `lanes` in chunks of up to `width` consecutive lanes that
/// share a sampling plan (stride and conditioning), as the engine's
/// micro-batches do.
pub fn replay(model: &TrainedModel, lanes: Vec<Lane>, width: usize, epoch: Instant) -> Replay {
    let sampler = model.sampler();
    let (channels, side) = (model.channels(), model.side());
    let timed = TimedDenoiser {
        model,
        calls: Mutex::new(Vec::new()),
    };
    let mut scratch = BatchScratch::new();
    let mut tracer = Tracer::new(epoch);
    let mut patterns = BTreeMap::new();
    let total = lanes.len();
    let mut forward_items = 0;
    let root = tracer.open("diffpattern.replay", None, 0);

    let mut chunks: Vec<Vec<Lane>> = Vec::new();
    for lane in lanes {
        let joins = chunks
            .last()
            .is_some_and(|c: &Vec<Lane>| c.len() < width && same_plan(&c[0].spec, &lane.spec));
        if joins {
            chunks.last_mut().expect("non-empty").push(lane);
        } else {
            chunks.push(vec![lane]);
        }
    }

    for chunk in chunks {
        let spec = Arc::clone(&chunk[0].spec);
        let retained = sampler.strided_steps(spec.sample_stride);
        let mut states: Vec<LaneState> = chunk
            .into_iter()
            .map(|lane| LaneState {
                rng: StdRng::seed_from_u64(lane_seed(&lane.spec, lane.index)),
                lane,
                attempts: 0,
                active: true,
            })
            .collect();
        loop {
            let request = states
                .iter()
                .find(|s| s.active)
                .map_or(0, |s| s.lane.request) as u64;
            let mut rngs: Vec<&mut StdRng> = states
                .iter_mut()
                .filter(|s| s.active)
                .map(|s| &mut s.rng)
                .collect();
            if rngs.is_empty() {
                break;
            }
            let t0 = Instant::now();
            let tensors = sampler.sample_conditioned_batch_with(
                &timed,
                channels,
                side,
                &retained,
                &spec.conditioning,
                &mut rngs,
                &mut scratch,
            );
            drop(rngs);
            let sample = tracer.record(
                "dp_diffusion.sample",
                t0,
                Instant::now(),
                Some(root),
                request,
            );
            for (start, end, items) in timed.drain() {
                forward_items += items;
                tracer.record("dp_nn.forward", start, end, Some(sample), request);
            }
            let mut tensors = tensors.into_iter();
            for state in states.iter_mut().filter(|s| s.active) {
                let tensor = tensors.next().expect("one sample per active lane");
                if let Some(pattern) = finish(state, &tensor, channels, &mut tracer, root) {
                    patterns.insert((state.lane.request, state.lane.index), pattern);
                    state.active = false;
                } else if state.attempts >= state.lane.spec.max_attempts {
                    state.active = false;
                }
            }
        }
    }
    tracer.close(root);
    Replay {
        patterns,
        tracer,
        lanes: total,
        forward_items,
    }
}

fn same_plan(a: &RequestSpec, b: &RequestSpec) -> bool {
    a.sample_stride == b.sample_stride && a.conditioning.plan_hash() == b.conditioning.plan_hash()
}

/// One lane's work after a sample: unfold, prefilter, donor pick and
/// solve, each under its own span. Returns the pattern when the lane
/// succeeded.
fn finish(
    state: &mut LaneState,
    tensor: &DeepSquishTensor,
    channels: usize,
    tracer: &mut Tracer,
    root: SpanId,
) -> Option<SquishPattern> {
    let request = state.lane.request as u64;
    let spec = Arc::clone(&state.lane.spec);
    state.attempts += 1;

    let t = Instant::now();
    let mut grid = tensor.unfold();
    tracer.record("dp_squish.unfold", t, Instant::now(), Some(root), request);

    let t = Instant::now();
    let survived = if bowtie::is_bowtie_free(&grid) {
        true
    } else if spec.repair_bowties {
        bowtie::repair_bowties(&mut grid);
        frozen_preserved(&spec.conditioning, &grid, channels)
    } else {
        false
    };
    tracer.record(
        "dp_geometry.prefilter",
        t,
        Instant::now(),
        Some(root),
        request,
    );
    if !survived {
        return None;
    }

    let t = Instant::now();
    let solver = Solver::new(spec.rules, spec.solver);
    let donor =
        (!spec.donors.is_empty()).then(|| &spec.donors[state.rng.gen_range(0..spec.donors.len())]);
    let solved = match donor {
        Some(d) => solver.solve(&grid, Init::Existing(d.dx(), d.dy()), &mut state.rng),
        None => solver.solve(&grid, Init::Random, &mut state.rng),
    };
    tracer.record("dp_legalize.solve", t, Instant::now(), Some(root), request);
    let solution = solved.ok()?;
    SquishPattern::new(grid, solution.dx, solution.dy).ok()
}

/// Whether bow-tie repair kept every frozen bit, as the engine checks.
fn frozen_preserved(conditioning: &Conditioning, grid: &BitGrid, channels: usize) -> bool {
    let Some(region) = conditioning.frozen() else {
        return true;
    };
    let Ok(tensor) = DeepSquishTensor::fold(grid, channels) else {
        return false;
    };
    region
        .mask()
        .iter()
        .zip(region.bits().iter().zip(tensor.bits()))
        .all(|(&frozen, (&want, &got))| !frozen || want == got)
}

/// Sets the replay's layer metrics and checks its output against what
/// the service delivered for the same lanes.
pub fn report_replay(
    replay: &Replay,
    delivered: &BTreeMap<(usize, usize), Vec<u8>>,
    report: &mut Report,
) {
    let times = replay.tracer.layer_times();
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    let (root, sample, forward) = (
        get("diffpattern.replay"),
        get("dp_diffusion.sample"),
        get("dp_nn.forward"),
    );
    let (unfold, prefilter, solve) = (
        get("dp_squish.unfold"),
        get("dp_geometry.prefilter"),
        get("dp_legalize.solve"),
    );
    let legal = replay.patterns.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let per = |ns: u64, n: u64| us(ns) / n.max(1) as f64;
    report.set(
        "dp_nn.forward_us_per_call",
        per(forward.total_ns, forward.count),
    );
    report.set(
        "dp_nn.items_per_call",
        replay.forward_items as f64 / forward.count.max(1) as f64,
    );
    report.set("dp_nn.forward_calls_per_item", forward.count as f64 / legal);
    report.set(
        "dp_diffusion.chain_self_us_per_item",
        us(sample.self_ns) / legal,
    );
    report.set(
        "dp_squish.unfold_us_per_sample",
        per(unfold.total_ns, unfold.count),
    );
    report.set(
        "dp_geometry.prefilter_us_per_sample",
        per(prefilter.total_ns, prefilter.count),
    );
    report.set(
        "dp_legalize.solve_us_per_call",
        per(solve.total_ns, solve.count),
    );
    let layers =
        forward.self_ns + sample.self_ns + unfold.self_ns + prefilter.self_ns + solve.self_ns;
    let coverage = 100.0 * layers as f64 / root.total_ns.max(1) as f64;
    report.set("diffpattern.replay_coverage_pct", coverage);
    report.check(
        "layer self-times add up to at least 90 % of the replay",
        coverage >= 90.0,
        format!("{coverage:.2} % of {:.1} ms", root.total_ns as f64 / 1e6),
    );

    let mut mismatched = 0;
    let mut missing = 0;
    for (key, bytes) in delivered {
        match replay.patterns.get(key) {
            Some(p) if &pattern_bytes(p) == bytes => {}
            Some(_) => mismatched += 1,
            None => missing += 1,
        }
    }
    let extra = replay
        .patterns
        .keys()
        .filter(|k| !delivered.contains_key(k))
        .count();
    report.check(
        "layer replay reproduces the delivered patterns byte for byte",
        mismatched == 0 && missing == 0 && extra == 0 && !delivered.is_empty(),
        format!(
            "{} lanes, {} patterns; {mismatched} differ, {missing} missing, {extra} extra",
            replay.lanes,
            delivered.len()
        ),
    );
}
