//! Table 2: performance comparison under processor-family
//! cross-validation — "average numbers are presented; the numbers between
//! brackets give the worst case".

use std::fmt;

use datatrans_core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
use datatrans_core::eval::CvReport;
use datatrans_core::ranking::MetricAggregate;

use crate::{ExperimentConfig, Result};

/// Table 2 output: one aggregate column per method.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Method names in column order (NNᵀ, MLPᵀ, GA-kNN).
    pub methods: Vec<String>,
    /// Aggregates aligned with `methods`.
    pub aggregates: Vec<MetricAggregate>,
    /// The underlying per-cell report (shared with Figures 6 and 7).
    pub report: CvReport,
}

/// Runs the full processor-family cross-validation and aggregates it in
/// Table 2's format.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<Table2Result> {
    let db = &config.build_database()?;
    let methods = config.methods();
    let cv_config = FamilyCvConfig {
        seed: config.seed,
        apps: config.app_indices(db),
        families: None,
        parallelism: config.parallelism,
    };
    let report = family_cross_validation(db, &methods, &cv_config)?;
    let method_names: Vec<String> = report.methods();
    let aggregates: Vec<MetricAggregate> = method_names
        .iter()
        .map(|m| report.aggregate_method(m))
        .collect::<Result<_>>()?;
    Ok(Table2Result {
        methods: method_names,
        aggregates,
        report,
    })
}

impl Table2Result {
    /// Aggregate for a method by name.
    pub fn aggregate(&self, method: &str) -> Option<&MetricAggregate> {
        self.methods
            .iter()
            .position(|m| m == method)
            .map(|i| &self.aggregates[i])
    }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: processor-family cross-validation — average (worst case)"
        )?;
        write!(f, "{:<18}", "")?;
        for m in &self.methods {
            write!(f, "{m:>22}")?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "Rank correlation")?;
        for a in &self.aggregates {
            write!(
                f,
                "{:>22}",
                format!(
                    "{:.2} ({:.2})",
                    a.mean_rank_correlation, a.worst_rank_correlation
                )
            )?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "Top-1 error")?;
        for a in &self.aggregates {
            write!(
                f,
                "{:>22}",
                format!(
                    "{:.2} ({:.1})",
                    a.mean_top1_error_pct, a.worst_top1_error_pct
                )
            )?;
        }
        writeln!(f)?;
        write!(f, "{:<18}", "Mean error")?;
        for a in &self.aggregates {
            write!(
                f,
                "{:>22}",
                format!("{:.2} ({:.2})", a.mean_error_pct, a.worst_mean_error_pct)
            )?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_three_methods() {
        let result = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(result.methods.len(), 3);
        assert!(result.aggregate("MLP^T").is_some());
        assert!(result.aggregate("nope").is_none());
        let text = result.to_string();
        assert!(text.contains("Rank correlation"));
        assert!(text.contains("MLP^T"));
        assert!(text.contains("GA-kNN"));
    }
}
