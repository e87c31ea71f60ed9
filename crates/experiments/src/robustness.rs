//! `repro robustness` — perturbation-robustness curves: how stable is
//! each model's served ranking as measurement noise grows?
//!
//! The driver serves one unrestricted full-ranking request per
//! (model, application) pair against the clean catalog, then re-serves
//! the identical batch against noise-perturbed copies of the catalog at
//! each rung of [`NOISE_LADDER`] — on the single-block catalog **and** on
//! every multi-block layout of
//! [`datatrans_dataset::database::PerfDatabase::layout_sweep`],
//! hard-failing if any layout ever disagrees bitwise. The reported curve
//! is the mean Spearman rank correlation between each model's clean and
//! noisy rankings, averaged over applications: a flat curve near 1.0 means the model's ranking
//! survives measurement noise; a steep drop means small perturbations
//! reshuffle its recommendations.
//!
//! Everything is deterministic: the perturbation streams are per-cell
//! functions of `(seed, benchmark, machine)` (see
//! [`datatrans_dataset::generator::NoiseConfig`]), so the same
//! configuration reproduces the same curves at any thread count, and the
//! `sigma = 0` rung is bitwise-identical to the clean catalog (perfect
//! agreement, `rho = 1`).

use std::collections::HashMap;
use std::fmt;

use datatrans_core::serve::{
    serve_batch, AppOfInterest, ModelKind, RankRequest, RankResponse, ServeError,
};
use datatrans_core::CoreError;
use datatrans_dataset::generator::{perturb_database, NoiseConfig};
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::view::DatabaseView;
use datatrans_stats::correlation::spearman;

use crate::textplot::grouped_bar_chart;
use crate::{ExperimentConfig, Result};

/// Relative measurement-noise levels σ swept by the robustness driver
/// (multiplicative lognormal, see `NoiseConfig`). The first rung is the
/// clean catalog itself.
pub const NOISE_LADDER: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

/// Domain separator for the perturbation streams, keeping them disjoint
/// from the serving path's confidence-annex streams at the same base
/// seed.
const PERTURB_SEED: u64 = 0x0DB0_5EED_0B57_0001;

/// The robustness driver's outcome: one rank-correlation curve per model.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// The noise levels swept, in curve order.
    pub sigmas: Vec<f64>,
    /// Method names, series order of [`RobustnessResult::rho`].
    pub methods: Vec<&'static str>,
    /// `rho[m][s]` = mean Spearman correlation between method `m`'s clean
    /// ranking and its ranking at noise level `sigmas[s]`, averaged over
    /// applications.
    pub rho: Vec<Vec<f64>>,
    /// Number of applications averaged per curve point.
    pub apps: usize,
    /// Block counts of the layouts verified bitwise against each other.
    pub layouts: Vec<usize>,
}

/// One unrestricted full-ranking request per (application, model) pair;
/// index `i` maps to application `i / 3` and model `i % 3`.
fn ranking_requests<D: DatabaseView + ?Sized>(
    db: &D,
    apps: &[usize],
    seed: u64,
) -> Vec<RankRequest> {
    let n_machines = db.n_machines();
    // The same predictive spread as the serve driver's synthetic mix.
    let predictive: Vec<usize> = (0..5).map(|i| i * n_machines / 5).collect();
    let mut requests = Vec::with_capacity(apps.len() * ModelKind::ALL.len());
    for &app in apps {
        for model in ModelKind::ALL {
            requests.push(RankRequest {
                app: AppOfInterest::Suite(app),
                model,
                predictive: predictive.clone(),
                restrict: MachineFilter::all(),
                top_k: None,
                seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(app as u64),
                confidence: None,
                approx: None,
            });
        }
    }
    requests
}

/// Unwraps a fault-isolated batch whose requests are valid by
/// construction.
fn ok_batch(
    slots: Vec<std::result::Result<RankResponse, ServeError>>,
) -> Result<Vec<RankResponse>> {
    slots
        .into_iter()
        .collect::<std::result::Result<Vec<_>, ServeError>>()
        .map_err(|e| CoreError::invalid_task(format!("robustness request failed: {e}")))
}

/// Hard-fails unless the rankings served on a multi-block layout agree
/// bitwise with the single-block ones.
fn check_layout_equivalence(single: &[RankResponse], blocked: &[RankResponse]) -> Result<()> {
    for (i, (a, b)) in single.iter().zip(blocked).enumerate() {
        let same = a.ranked.len() == b.ranked.len()
            && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
                x.machine == y.machine && x.predicted_score.to_bits() == y.predicted_score.to_bits()
            });
        if !same {
            return Err(CoreError::invalid_task(format!(
                "request {i}: rankings diverged across block layouts under noise"
            )));
        }
    }
    Ok(())
}

/// Spearman correlation between a clean ranking and its noisy
/// counterpart, aligned by machine index.
fn ranking_agreement(clean: &RankResponse, noisy: &RankResponse) -> Result<f64> {
    let noisy_scores: HashMap<usize, f64> = noisy
        .ranked
        .iter()
        .map(|r| (r.machine, r.predicted_score))
        .collect();
    let mut a = Vec::with_capacity(clean.ranked.len());
    let mut b = Vec::with_capacity(clean.ranked.len());
    for r in &clean.ranked {
        let score = noisy_scores.get(&r.machine).copied().ok_or_else(|| {
            CoreError::invalid_task(format!(
                "machine {} missing from the noisy ranking",
                r.machine
            ))
        })?;
        a.push(r.predicted_score);
        b.push(score);
    }
    Ok(spearman(&a, &b)?)
}

/// Runs the robustness sweep: serve the clean reference batch, then the
/// same batch against each perturbed catalog on every block layout, and
/// aggregate per-model rank-correlation curves.
///
/// # Errors
///
/// Propagates dataset, perturbation, and serving failures, and fails
/// hard if any block layout disagrees at any noise level.
pub fn run(config: &ExperimentConfig) -> Result<RobustnessResult> {
    let clean = config.build_database()?;
    let apps: Vec<usize> = config
        .app_indices(&clean)
        .unwrap_or_else(|| (0..clean.n_benchmarks()).collect());
    let requests = ranking_requests(&clean, &apps, config.seed);
    let serve_config = config.serve_config();
    let reference = ok_batch(serve_batch(&clean, &requests, &serve_config))?;

    let n_models = ModelKind::ALL.len();
    let mut rho = vec![vec![0.0; NOISE_LADDER.len()]; n_models];
    let mut layouts = Vec::new();
    for (si, &sigma) in NOISE_LADDER.iter().enumerate() {
        let noise = NoiseConfig {
            seed: config.seed ^ PERTURB_SEED,
            sigma,
            repeats: 1,
        };
        let perturbed = perturb_database(&clean, &noise)?;
        let on_dense = ok_batch(serve_batch(&perturbed, &requests, &serve_config))?;
        // The one-block layout is `perturbed` itself, served just above.
        let sweep = perturbed.layout_sweep()?;
        for layout in sweep.iter().filter(|layout| layout.blocks().len() > 1) {
            let on_layout = ok_batch(serve_batch(layout, &requests, &serve_config))?;
            check_layout_equivalence(&on_dense, &on_layout)?;
        }
        layouts = sweep.iter().map(|layout| layout.blocks().len()).collect();

        let mut sums = vec![0.0; n_models];
        for (i, (clean_resp, noisy_resp)) in reference.iter().zip(&on_dense).enumerate() {
            sums[i % n_models] += ranking_agreement(clean_resp, noisy_resp)?;
        }
        for (mi, sum) in sums.iter().enumerate() {
            rho[mi][si] = sum / apps.len() as f64;
        }
    }

    Ok(RobustnessResult {
        sigmas: NOISE_LADDER.to_vec(),
        methods: ModelKind::ALL.iter().map(|m| m.name()).collect(),
        rho,
        apps: apps.len(),
        layouts,
    })
}

impl fmt::Display for RobustnessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, Vec<f64>)> = self
            .sigmas
            .iter()
            .enumerate()
            .map(|(si, sigma)| {
                (
                    format!("sigma={sigma:.3}"),
                    self.rho.iter().map(|per_model| per_model[si]).collect(),
                )
            })
            .collect();
        write!(
            f,
            "{}",
            grouped_bar_chart(
                "Perturbation robustness: rank correlation vs noise level",
                &self.methods,
                &rows,
                1.0,
                40,
            )
        )?;
        writeln!(
            f,
            "mean Spearman rho between clean and noisy served rankings, \
             {} apps, {:?}-block layouts verified bitwise at every level",
            self.apps, self.layouts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_parallel::Parallelism;

    fn quick_robustness_config() -> ExperimentConfig {
        ExperimentConfig {
            max_apps: Some(2),
            mlp_epochs: 20,
            ga_population: 8,
            ga_generations: 3,
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn zero_noise_agrees_perfectly_and_curves_are_complete() {
        let result = run(&quick_robustness_config()).unwrap();
        assert_eq!(result.sigmas, NOISE_LADDER.to_vec());
        assert_eq!(result.methods, vec!["NN^T", "MLP^T", "GA-kNN"]);
        assert_eq!(result.rho.len(), 3);
        for (mi, per_model) in result.rho.iter().enumerate() {
            assert_eq!(per_model.len(), NOISE_LADDER.len());
            // sigma = 0 perturbs nothing: the served rankings are bitwise
            // identical to the reference, so agreement is exact.
            assert!(
                (per_model[0] - 1.0).abs() < 1e-12,
                "method {mi}: sigma=0 rho {}",
                per_model[0]
            );
            for &r in per_model {
                assert!(r.is_finite() && (-1.0..=1.0).contains(&r), "method {mi}");
            }
        }
        let text = result.to_string();
        assert!(text.contains("Perturbation robustness"));
        assert!(text.contains("sigma=0.050"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = quick_robustness_config();
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a.rho, b.rho);
        assert_eq!(a.sigmas, b.sigmas);
    }
}
