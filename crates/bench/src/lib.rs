//! Shared fixtures for the Criterion benchmark harness.
//!
//! `micro` benches the numerical kernels and the serving layers;
//! `ablation` times the model hyper-parameter variants. The paper's
//! tables and figures are timed by `repro`, which prints each target's
//! wall time.

pub mod harness;

use datatrans_core::task::PredictionTask;
use datatrans_dataset::database::PerfDatabase;
use datatrans_dataset::generator::{generate, generate_scaled, DatasetConfig, ScaleConfig};
use datatrans_dataset::machine::ProcessorFamily;

/// The standard benchmark database (default seed).
pub fn bench_database() -> PerfDatabase {
    generate(&DatasetConfig::default()).expect("default dataset generates")
}

/// The scale-test database for the `db_query`/`db_shard_scan` groups:
/// 1000 machines × 29 benchmarks, default scale seed.
pub fn bench_scaled_database() -> PerfDatabase {
    generate_scaled(&ScaleConfig::default()).expect("default scale dataset generates")
}

/// A catalog re-blocked into 8 balanced column blocks.
pub fn bench_blocked_database(db: &PerfDatabase) -> PerfDatabase {
    db.reblock(8).expect("8 blocks over at least 8 machines")
}

/// A representative single prediction task: Xeon family as targets,
/// everything else predictive, `gcc` as the application of interest.
pub fn bench_task(db: &PerfDatabase) -> PredictionTask {
    let targets = db.machines_in_family(ProcessorFamily::Xeon);
    let predictive: Vec<usize> = (0..db.n_machines())
        .filter(|m| !targets.contains(m))
        .collect();
    let app = db.benchmark_index("gcc").expect("gcc in suite");
    PredictionTask::leave_one_out(db, app, &predictive, &targets, 42).expect("valid bench task")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_valid() {
        let db = bench_database();
        let task = bench_task(&db);
        assert_eq!(task.n_targets(), 39);
        assert_eq!(task.n_benchmarks(), 28);
    }

    #[test]
    fn scaled_fixtures_are_valid() {
        let dense = bench_scaled_database();
        assert_eq!(dense.n_machines(), 1000);
        assert_eq!(dense.n_benchmarks(), 29);
        let blocked = bench_blocked_database(&dense);
        assert_eq!(blocked.blocks().len(), 8);
    }
}
