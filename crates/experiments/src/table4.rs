//! Table 4: limited predictive sets — subsets of size 10/5/3 drawn from
//! the 2008 machines, targets released in 2009.
//!
//! GA-kNN does not consume predictive machines, so (as in the paper) only
//! the two transposition methods are swept; GA-kNN's reference numbers
//! come from Table 3's 2008 column.

use std::fmt;

use datatrans_core::eval::subset::{subset_evaluation, SubsetConfig};
use datatrans_core::eval::CvReport;
use datatrans_core::ranking::MetricAggregate;

use crate::{ExperimentConfig, Result};

/// Nominal number of random draws averaged per subset size.
pub const NOMINAL_TRIALS: usize = 10;

/// Table 4 output: per-method, per-size aggregates.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// Method names (NNᵀ, MLPᵀ).
    pub methods: Vec<String>,
    /// Subset sizes in column order (10, 5, 3).
    pub sizes: Vec<usize>,
    /// `aggregates[method][size]`.
    pub aggregates: Vec<Vec<MetricAggregate>>,
    /// The underlying per-cell report.
    pub report: CvReport,
}

/// Runs the limited-predictive-set evaluation.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<Table4Result> {
    let db = &config.build_database()?;
    let methods = config.transposition_methods();
    let sizes = vec![10usize, 5, 3];
    let subset_config = SubsetConfig {
        seed: config.seed,
        sizes: sizes.clone(),
        trials: config.scaled_trials(NOMINAL_TRIALS),
        apps: config.app_indices(db),
        parallelism: config.parallelism,
        ..SubsetConfig::default()
    };
    let report = subset_evaluation(db, &methods, &subset_config)?;
    let method_names = report.methods();
    let mut aggregates = Vec::with_capacity(method_names.len());
    for m in &method_names {
        let row: Vec<MetricAggregate> = sizes
            .iter()
            .map(|s| report.aggregate_method_fold(m, &format!("size-{s}")))
            .collect::<Result<_>>()?;
        aggregates.push(row);
    }
    Ok(Table4Result {
        methods: method_names,
        sizes,
        aggregates,
        report,
    })
}

impl Table4Result {
    /// Aggregate for (method, size).
    pub fn aggregate(&self, method: &str, size: usize) -> Option<&MetricAggregate> {
        let mi = self.methods.iter().position(|m| m == method)?;
        let si = self.sizes.iter().position(|&s| s == size)?;
        Some(&self.aggregates[mi][si])
    }
}

impl fmt::Display for Table4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: predicting 2009 machines from a small subset of the 2008 machines"
        )?;
        for (mi, method) in self.methods.iter().enumerate() {
            writeln!(f, "({}) {method}", (b'a' + mi as u8) as char)?;
            write!(f, "{:<18}", "Subset size")?;
            for s in &self.sizes {
                write!(f, "{s:>14}")?;
            }
            writeln!(f)?;
            let agg = &self.aggregates[mi];
            write!(f, "{:<18}", "Rank correlation")?;
            for a in agg {
                write!(f, "{:>14}", format!("{:.2}", a.mean_rank_correlation))?;
            }
            writeln!(f)?;
            write!(f, "{:<18}", "Top-1 error")?;
            for a in agg {
                write!(f, "{:>14}", format!("{:.2}", a.mean_top1_error_pct))?;
            }
            writeln!(f)?;
            write!(f, "{:<18}", "Mean error")?;
            for a in agg {
                write!(f, "{:>14}", format!("{:.2}", a.mean_error_pct))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes() {
        let mut config = ExperimentConfig::quick();
        config.max_apps = Some(2);
        let result = run(&config).unwrap();
        assert_eq!(result.methods.len(), 2); // NN^T and MLP^T only
        assert_eq!(result.sizes, vec![10, 5, 3]);
        assert!(result.aggregate("MLP^T", 5).is_some());
        assert!(result.aggregate("GA-kNN", 5).is_none());
        assert!(result.to_string().contains("Subset size"));
    }
}
