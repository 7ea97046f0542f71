//! The Table I harness: diversity and legality of every method on a shared
//! dataset.
//!
//! The paper generates 100 000 topologies per method on GPU clusters; the
//! harness scales the counts by configuration (the `table1_comparison`
//! example's `DP_GENERATE` knob sets the size) while keeping the comparison
//! structure identical. Every generation method — the four baselines and
//! both DiffPattern modes — runs through the same [`PatternSource`]
//! interface, so adding a method to the table means adding one source to
//! the list:
//!
//! | Row | Generator | Delta assignment |
//! |---|---|---|
//! | Real Patterns | — (training tiles) | native |
//! | CAE | perturbed-latent decode + threshold | borrowed (implicit) |
//! | VCAE | prior-sample decode + threshold | borrowed (implicit) |
//! | CAE+LegalGAN | CAE + morphological legalizer | borrowed (implicit) |
//! | VCAE+LegalGAN | VCAE + morphological legalizer | borrowed (implicit) |
//! | LayouTransformer | polygon-sequence Markov model | native (physical) |
//! | DiffPattern-S | discrete diffusion | white-box solver, 1 per topology |
//! | DiffPattern-L | discrete diffusion | white-box solver, many per topology |

use crate::metrics::{evaluate_patterns, MethodRow};
use crate::source::{
    DiffusionSource, DiffusionVariantsSource, PatternSource, PixelSource, SequenceSource,
};
use crate::{PatternService, PipelineError, RequestSpec};
use dp_baselines::{AeConfig, MorphLegalizer};
use dp_datagen::{Dataset, PatternLibrary};
use dp_geometry::BitGrid;
use dp_squish::SquishPattern;
use rand::{Rng, RngCore};
use std::rc::Rc;

/// Scale knobs for the Table I run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Config {
    /// Patterns generated per method (paper: 100 000).
    pub generate: usize,
    /// Training iterations for the CAE/VCAE baselines.
    pub ae_iterations: usize,
    /// Latent/feature scale of the CAE/VCAE baselines.
    pub ae: AeConfig,
    /// Legal variants per topology for DiffPattern-L (paper: 100).
    pub variants_per_topology: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            generate: 200,
            ae_iterations: 300,
            ae: AeConfig::default(),
            variants_per_topology: 10,
        }
    }
}

impl Table1Config {
    /// A very small configuration for tests.
    pub fn tiny() -> Self {
        Table1Config {
            generate: 8,
            ae_iterations: 30,
            ae: AeConfig {
                side: 32,
                features: 4,
                latent: 8,
            },
            variants_per_topology: 3,
        }
    }
}

/// Runs every row of Table I: the service supplies the trained diffusion
/// model and its worker pool, `spec` the rules/seed/stride every
/// DiffPattern row uses, `dataset` the shared training data every
/// baseline fits on.
///
/// # Errors
///
/// Propagates [`PipelineError`] from the generation sources.
///
/// # Panics
///
/// Panics when `config.ae.side` does not match the dataset matrix side
/// (a harness misconfiguration, not a data error).
pub fn run(
    service: &PatternService,
    spec: &RequestSpec,
    dataset: &Dataset,
    config: Table1Config,
    rng: &mut impl Rng,
) -> Result<Vec<MethodRow>, PipelineError> {
    let rules = spec.rules;
    let window = spec.solver.target_width;
    let matrix_side = service.model().matrix_side();
    assert_eq!(
        config.ae.side, matrix_side,
        "AE baseline side must match the dataset matrix side"
    );
    let donors: Vec<SquishPattern> = dataset.patterns.clone();
    // Shared pools: every pixel source holds an Rc into the same
    // allocations. The grids are the extended topology matrices (unfold
    // of the dataset tensors).
    let grid_pool: Rc<[BitGrid]> = dataset.tensors.iter().map(|t| t.unfold()).collect();
    let donor_pool: Rc<[SquishPattern]> = donors.clone().into();

    let mut rows = Vec::new();

    // Real patterns row (legality is not applicable; the paper prints '-').
    let real_lib: PatternLibrary = {
        let mut lib = PatternLibrary::new();
        for p in &donors {
            lib.add_pattern(p);
        }
        lib
    };
    rows.push(MethodRow {
        name: "Real Patterns".into(),
        topologies: None,
        patterns: real_lib.len(),
        diversity: real_lib.diversity(),
        legal: real_lib.len(),
        diversity_legal: real_lib.diversity(),
    });

    // Every generation method behind the one PatternSource interface.
    let cae = PixelSource::fit_cae(
        "CAE [7]",
        config.ae,
        Rc::clone(&grid_pool),
        Rc::clone(&donor_pool),
        window,
        config.ae_iterations,
        rng,
    );
    let cae_legal = cae.with_legalizer("CAE+LegalGAN [8]", MorphLegalizer::default());
    let vcae = PixelSource::fit_vcae(
        "VCAE [8]",
        config.ae,
        &grid_pool,
        Rc::clone(&donor_pool),
        window,
        config.ae_iterations,
        rng,
    );
    let vcae_legal = vcae.with_legalizer("VCAE+LegalGAN [8]", MorphLegalizer::default());
    let seq = SequenceSource::fit("LayouTransformer [9]", &donors, window);

    let mut sources: Vec<(Box<dyn PatternSource + '_>, usize)> = vec![
        (Box::new(cae), config.generate),
        (Box::new(cae_legal), config.generate),
        (Box::new(vcae), config.generate),
        (Box::new(vcae_legal), config.generate),
        (Box::new(seq), config.generate),
        (
            Box::new(DiffusionSource::new(service, spec.clone(), "DiffPattern-S")),
            config.generate,
        ),
        (
            Box::new(DiffusionVariantsSource::new(
                service,
                spec.clone(),
                config.variants_per_topology,
                "DiffPattern-L",
            )),
            config.generate,
        ),
    ];

    for (source, count) in &mut sources {
        let batch = source.generate(*count, rng as &mut dyn RngCore)?;
        rows.push(evaluate_patterns(
            &source.name(),
            batch.topologies,
            &batch.patterns,
            &rules,
        ));
    }

    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use rand::SeedableRng;

    #[test]
    fn tiny_table_runs_all_rows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        let _ = pipeline.train(4, &mut rng).unwrap();
        let model = std::sync::Arc::new(pipeline.trained_model().unwrap());
        let service = crate::PatternService::builder(model)
            .threads(1)
            .build()
            .unwrap();
        let spec = pipeline.request_spec(0).seed(1);
        let rows = run(
            &service,
            &spec,
            pipeline.dataset(),
            Table1Config::tiny(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(rows.len(), 8);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"Real Patterns"));
        assert!(names.contains(&"DiffPattern-S"));
        assert!(names.contains(&"DiffPattern-L"));

        // Structural claim of the paper: every DiffPattern output is legal.
        for row in rows.iter().filter(|r| r.name.starts_with("DiffPattern")) {
            assert_eq!(row.legal, row.patterns, "{row}");
        }
    }
}
