//! Table 3: predicting the 2009 machines from 2008 / 2007 / pre-2007
//! predictive sets — "(a) MLPᵀ, (b) NNᵀ", with GA-kNN evaluated alongside
//! for reference.

use std::fmt;

use datatrans_core::eval::temporal::{temporal_evaluation, TemporalConfig};
use datatrans_core::eval::CvReport;
use datatrans_core::ranking::MetricAggregate;

use crate::{ExperimentConfig, Result};

/// Table 3 output: per-method, per-era aggregates.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Method names.
    pub methods: Vec<String>,
    /// Era labels in column order (`"2008"`, `"2007"`, `"older"`).
    pub eras: Vec<String>,
    /// `aggregates[method][era]`, aligned with `methods` × `eras`.
    pub aggregates: Vec<Vec<MetricAggregate>>,
    /// The underlying per-cell report.
    pub report: CvReport,
}

/// Runs the temporal evaluation for all three methods.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<Table3Result> {
    let db = &config.build_database()?;
    let methods = config.methods();
    let temporal_config = TemporalConfig {
        seed: config.seed,
        apps: config.app_indices(db),
        parallelism: config.parallelism,
        ..TemporalConfig::default()
    };
    let report = temporal_evaluation(db, &methods, &temporal_config)?;
    let method_names = report.methods();
    let eras = report.folds();
    let mut aggregates = Vec::with_capacity(method_names.len());
    for m in &method_names {
        let row: Vec<MetricAggregate> = eras
            .iter()
            .map(|era| report.aggregate_method_fold(m, era))
            .collect::<Result<_>>()?;
        aggregates.push(row);
    }
    Ok(Table3Result {
        methods: method_names,
        eras,
        aggregates,
        report,
    })
}

impl Table3Result {
    /// Aggregate for (method, era), by names.
    pub fn aggregate(&self, method: &str, era: &str) -> Option<&MetricAggregate> {
        let mi = self.methods.iter().position(|m| m == method)?;
        let ei = self.eras.iter().position(|e| e == era)?;
        Some(&self.aggregates[mi][ei])
    }
}

impl fmt::Display for Table3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: predicting 2009 machines from older machines — average (worst case)"
        )?;
        for (mi, method) in self.methods.iter().enumerate() {
            writeln!(f, "({}) {method}", (b'a' + mi as u8) as char)?;
            write!(f, "{:<18}", "")?;
            for era in &self.eras {
                write!(f, "{era:>22}")?;
            }
            writeln!(f)?;
            let agg = &self.aggregates[mi];
            write!(f, "{:<18}", "Rank correlation")?;
            for a in agg {
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
            for a in agg {
                write!(
                    f,
                    "{:>22}",
                    format!(
                        "{:.2} ({:.0})",
                        a.mean_top1_error_pct, a.worst_top1_error_pct
                    )
                )?;
            }
            writeln!(f)?;
            write!(f, "{:<18}", "Mean error")?;
            for a in agg {
                write!(
                    f,
                    "{:>22}",
                    format!("{:.2} ({:.2})", a.mean_error_pct, a.worst_mean_error_pct)
                )?;
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
        let result = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(result.methods.len(), 3);
        assert_eq!(result.eras, vec!["2008", "2007", "older"]);
        assert!(result.aggregate("MLP^T", "2008").is_some());
        assert!(result.aggregate("MLP^T", "1999").is_none());
        let text = result.to_string();
        assert!(text.contains("(a) NN^T") || text.contains("(a) MLP^T") || text.contains("(a) "));
        assert!(text.contains("2008"));
    }
}
