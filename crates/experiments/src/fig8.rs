//! Figure 8: goodness of fit R² of MLPᵀ versus the number of predictive
//! machines — k-medoids selection against the average of random draws.

use std::fmt;

use datatrans_core::eval::fit::{goodness_of_fit_curve, FitCurveConfig, FitCurvePoint};

use crate::textplot::dual_series;
use crate::{ExperimentConfig, Result};

/// Nominal number of random selections averaged (the paper uses 50).
pub const NOMINAL_RANDOM_TRIALS: usize = 50;

/// Figure 8 output: the two R² curves over k = 1..=10.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Curve points in ascending k.
    pub points: Vec<FitCurvePoint>,
}

/// Runs the goodness-of-fit sweep.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<Fig8Result> {
    let db = &config.build_database()?;
    let fit_config = FitCurveConfig {
        seed: config.seed,
        ks: (1..=10).collect(),
        random_trials: config.scaled_trials(NOMINAL_RANDOM_TRIALS),
        apps: config.app_indices(db),
        parallelism: config.parallelism,
        ..FitCurveConfig::default()
    };
    let points = goodness_of_fit_curve(db, &fit_config)?;
    Ok(Fig8Result { points })
}

impl Fig8Result {
    /// Point lookup by k.
    pub fn at_k(&self, k: usize) -> Option<&FitCurvePoint> {
        self.points.iter().find(|p| p.k == k)
    }

    /// Smallest k at which k-medoids reaches the random curve's best R².
    pub fn kmedoids_break_even(&self) -> Option<usize> {
        let best_random = self
            .points
            .iter()
            .map(|p| p.random_r2)
            .fold(f64::NEG_INFINITY, f64::max);
        self.points
            .iter()
            .find(|p| p.kmedoids_r2 >= best_random)
            .map(|p| p.k)
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ks: Vec<usize> = self.points.iter().map(|p| p.k).collect();
        let med: Vec<f64> = self.points.iter().map(|p| p.kmedoids_r2).collect();
        let rnd: Vec<f64> = self.points.iter().map(|p| p.random_r2).collect();
        write!(
            f,
            "{}",
            dual_series(
                "Figure 8: goodness of fit R² vs number of predictive machines",
                &ks,
                ("k-medoids", &med),
                ("random", &rnd),
                48,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes() {
        let mut config = ExperimentConfig::quick();
        config.max_apps = Some(2);
        config.trial_scale = 0.04; // 2 random trials
        let result = run(&config).unwrap();
        assert_eq!(result.points.len(), 10);
        assert!(result.at_k(1).is_some());
        assert!(result.at_k(11).is_none());
        assert!(result.to_string().contains("Figure 8"));
    }
}
