//! Workload inputs, generated from the workload seed alone.
//!
//! Every request a workload sends, and for `serve_ladder` every arrival
//! time, is a pure function of `--seed` (and, for the ladder, of the
//! step length). The program under test only ever sees the resulting
//! [`RequestSpec`]s.

use diffpattern::drc::DesignRules;
use diffpattern::squish::SquishPattern;
use diffpattern::{Conditioning, FrozenRegion, Motif, MotifGuidance, RequestSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Patterns per `library_build` request.
pub const LIBRARY_COUNT: usize = 64;
/// Patterns per `wire_fastchain` request.
pub const WIRE_COUNT: usize = 2;
/// Reverse-sampling stride of `wire_fastchain` (3 of 30 denoiser calls).
pub const WIRE_STRIDE: usize = 10;
/// Most Solving-E donors a `wire_fastchain` request carries: the head of
/// the extended dataset (the benchmark model's dataset has fewer).
pub const WIRE_DONORS: usize = 64;
/// The `serve_ladder` arrival rates, in requests per second.
pub const LADDER_RATES: [f64; 3] = [20.0, 40.0, 80.0];
/// Each rate's share of the run. The 40 req/s step carries the headline
/// latencies and gets half.
pub const LADDER_SHARES: [f64; 3] = [0.25, 0.5, 0.25];
/// Arrivals per block of the `serve_ladder` schedule: one of each
/// request shape.
pub const BLOCK: usize = 24;
/// Patterns per `serve_ladder` request, drawn uniformly.
pub const LADDER_COUNTS: [usize; 3] = [1, 2, 4];

/// The design-rule presets the workloads use. `larger_space` is left
/// out on purpose: with the benchmark model it legalizes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rules {
    /// [`DesignRules::standard`].
    Standard,
    /// [`DesignRules::smaller_area`].
    SmallerArea,
}

impl Rules {
    /// The rule set itself.
    pub fn design_rules(self) -> DesignRules {
        match self {
            Rules::Standard => DesignRules::standard(),
            Rules::SmallerArea => DesignRules::smaller_area(),
        }
    }

    /// The preset name, as a library ruleset label.
    pub fn name(self) -> &'static str {
        match self {
            Rules::Standard => "standard",
            Rules::SmallerArea => "smaller_area",
        }
    }
}

/// One generated request, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Position in the workload's request list.
    pub id: usize,
    /// Patterns asked for.
    pub count: usize,
    /// Request seed.
    pub seed: u64,
    /// Absolute index of the first item.
    pub first_index: usize,
    /// Reverse-sampling stride.
    pub stride: usize,
    /// Design rules.
    pub rules: Rules,
    /// Whether the request carries the frozen-quarter + isolated-cell
    /// avoidance conditioning.
    pub conditioned: bool,
    /// Whether the request carries the Solving-E donors.
    pub donors: bool,
}

/// What a [`Req`] needs from the trained model to become a spec.
#[derive(Debug, Clone)]
pub struct SpecParts {
    /// Solving-E donors (up to the first [`WIRE_DONORS`] dataset patterns).
    pub donors: Arc<[SquishPattern]>,
    /// The conditioning conditioned requests carry.
    pub conditioning: Arc<Conditioning>,
}

impl Req {
    /// The spec the program receives.
    pub fn spec(&self, parts: &SpecParts) -> RequestSpec {
        let mut spec = RequestSpec::new(self.count)
            .seed(self.seed)
            .first_index(self.first_index);
        spec.sample_stride = self.stride;
        spec.rules = self.rules.design_rules();
        if self.donors {
            spec.donors = Arc::clone(&parts.donors);
        }
        if self.conditioned {
            spec.conditioning = Arc::clone(&parts.conditioning);
        }
        spec
    }
}

/// The conditioning of the conditioned `serve_ladder` requests: the
/// first quarter of the `entries`-long topology tensor frozen to a fixed
/// pattern, plus isolated-cell avoidance, as in the conditioned row of
/// the Table II criterion bench.
pub fn ladder_conditioning(entries: usize) -> Conditioning {
    let frozen = FrozenRegion::new(
        (0..entries).map(|i| i < entries / 4).collect(),
        (0..entries).map(|i| i % 3 == 0).collect(),
    )
    .expect("mask and bits have the same length");
    let avoid =
        MotifGuidance::new(Motif::IsolatedCell, 4.0).expect("weight is finite and positive");
    Conditioning::none().with_frozen(frozen).with_avoid(avoid)
}

/// splitmix64: derives independent seeds from one workload seed.
pub fn splitmix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const LIBRARY_SALT: u64 = 0x11B;
const WIRE_SALT: u64 = 0x31E;
const LADDER_SALT: u64 = 0x1ADD;

/// Request `id` of `library_build`: one logical 64-pattern stream per
/// seed, cut into requests with consecutive `first_index`.
pub fn library_request(seed: u64, id: usize) -> Req {
    Req {
        id,
        count: LIBRARY_COUNT,
        seed: splitmix64(seed, LIBRARY_SALT),
        first_index: id * LIBRARY_COUNT,
        stride: 1,
        rules: Rules::Standard,
        conditioned: false,
        donors: false,
    }
}

/// Request `id` of `wire_fastchain`: strided sampling with Solving-E
/// donors, rules alternating between the two presets.
pub fn wire_request(seed: u64, id: usize) -> Req {
    Req {
        id,
        count: WIRE_COUNT,
        seed: splitmix64(splitmix64(seed, WIRE_SALT), id as u64),
        first_index: 0,
        stride: WIRE_STRIDE,
        rules: if id.is_multiple_of(2) {
            Rules::Standard
        } else {
            Rules::SmallerArea
        },
        conditioned: false,
        donors: true,
    }
}

/// One scheduled `serve_ladder` arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, in microseconds after the start of its step.
    pub due_us: u64,
    /// The request sent at that time.
    pub req: Req,
}

/// The `serve_ladder` schedule: for each rate of [`LADDER_RATES`], the
/// arrivals of its step, which lasts its [`LADDER_SHARES`] of `seconds`.
///
/// Arrivals come in blocks of [`BLOCK`]: a block spans `BLOCK / rate`
/// seconds and holds exactly `BLOCK` arrivals at independent uniform
/// times in it — a Poisson process conditioned on its expected count per
/// block — and every request shape (count × rules × conditioned, one in
/// four conditioned) exactly once, in a seeded order that puts one
/// conditioned request in every four consecutive arrivals. A seed then
/// decides which request comes when, but not how much load a block
/// carries, so the heavy shapes cannot bunch up in one seed and not in
/// another. Request ids run on across the steps.
pub fn ladder_schedule(seed: u64, seconds: f64) -> Vec<Vec<Arrival>> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed, LADDER_SALT));
    let mut id = 0;
    let shapes: Vec<(usize, Rules, bool)> = LADDER_COUNTS
        .iter()
        .flat_map(|&count| {
            [Rules::Standard, Rules::SmallerArea]
                .into_iter()
                .flat_map(move |rules| (0..4).map(move |q| (count, rules, q == 0)))
        })
        .collect();
    debug_assert_eq!(shapes.len(), BLOCK);
    let (conditioned, plain): (Vec<_>, Vec<_>) = shapes.into_iter().partition(|s| s.2);
    LADDER_RATES
        .iter()
        .zip(LADDER_SHARES)
        .map(|(&rate, share)| {
            let n = (rate * seconds * share).round() as usize;
            let mut step = Vec::with_capacity(n);
            for block_start in (0..n).step_by(BLOCK) {
                let len = BLOCK.min(n - block_start);
                // Every run of four arrivals holds one conditioned request
                // (the slowest shapes: with this model all their
                // attempts fail), at a random place in the four.
                let (mut heavy, mut light) = (conditioned.clone(), plain.clone());
                shuffle(&mut heavy, &mut rng);
                shuffle(&mut light, &mut rng);
                let mut block = Vec::with_capacity(BLOCK);
                for (h, three) in heavy.into_iter().zip(light.chunks(3)) {
                    let mut group = vec![h];
                    group.extend_from_slice(three);
                    shuffle(&mut group, &mut rng);
                    block.extend(group);
                }
                let mut due: Vec<f64> = (0..len)
                    .map(|_| (block_start as f64 + rng.gen::<f64>() * len as f64) / rate)
                    .collect();
                due.sort_by(f64::total_cmp);
                for (t, (count, rules, conditioned)) in due.into_iter().zip(block) {
                    let req = Req {
                        id,
                        count,
                        seed: rng.gen(),
                        first_index: 0,
                        stride: 1,
                        rules,
                        conditioned,
                        donors: false,
                    };
                    id += 1;
                    step.push(Arrival {
                        due_us: (t * 1e6) as u64,
                        req,
                    });
                }
            }
            step
        })
        .collect()
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_and_schedule() {
        assert_eq!(ladder_schedule(7, 2.0), ladder_schedule(7, 2.0));
        for id in 0..50 {
            assert_eq!(library_request(7, id), library_request(7, id));
            assert_eq!(wire_request(7, id), wire_request(7, id));
        }
    }

    #[test]
    fn different_seed_different_requests_and_schedule() {
        let (a, b) = (ladder_schedule(7, 2.0), ladder_schedule(8, 2.0));
        assert_ne!(a, b);
        let due =
            |s: &Vec<Vec<Arrival>>| -> Vec<u64> { s.iter().flatten().map(|a| a.due_us).collect() };
        assert_ne!(due(&a), due(&b), "arrival times must depend on the seed");
        assert_ne!(library_request(7, 0), library_request(8, 0));
        assert_ne!(wire_request(7, 3), wire_request(8, 3));
    }

    #[test]
    fn ladder_steps_carry_their_rate_and_the_exact_mix() {
        let seconds = 19.2;
        let steps = ladder_schedule(3, seconds);
        assert_eq!(steps.len(), LADDER_RATES.len());
        for ((step, rate), share) in steps.iter().zip(LADDER_RATES).zip(LADDER_SHARES) {
            // 96, 384 and 384 arrivals: whole blocks.
            let n = step.len();
            assert_eq!(n as f64, (rate * seconds * share).round());
            assert_eq!(n % BLOCK, 0);
            assert!(step.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            let end_us = (n as f64 / rate * 1e6) as u64;
            assert!(step.iter().all(|a| a.due_us < end_us));
            for block in step.chunks(BLOCK) {
                assert_eq!(
                    block.iter().filter(|a| a.req.conditioned).count(),
                    BLOCK / 4
                );
                let smaller = block
                    .iter()
                    .filter(|a| a.req.rules == Rules::SmallerArea)
                    .count();
                assert_eq!(smaller, BLOCK / 2);
                for count in LADDER_COUNTS {
                    assert_eq!(
                        block.iter().filter(|a| a.req.count == count).count(),
                        BLOCK / 3
                    );
                }
            }
        }
        let ids: Vec<usize> = steps.iter().flatten().map(|a| a.req.id).collect();
        assert_eq!(ids, (0..ids.len()).collect::<Vec<_>>());
    }

    #[test]
    fn library_requests_tile_one_stream() {
        let a = library_request(5, 3);
        let b = library_request(5, 4);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.first_index + a.count, b.first_index);
    }
}
