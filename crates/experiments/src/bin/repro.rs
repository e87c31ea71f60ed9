//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--seed N] [--shards N] [--ingest] [table2|table3|table4|fig6|fig7|fig8|ablation|serve|robustness|approx|diag|all]
//! ```

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use datatrans_experiments::{
    ablation, approx, fig6, fig7, fig8, robustness, serve, table2, table3, table4, ExperimentConfig,
};

fn usage() -> &'static str {
    "usage: repro [--quick] [--seed N] [--shards N] [--ingest] [table2|table3|table4|fig6|fig7|fig8|ablation|serve|robustness|approx|diag|all]\n\
     \n\
     --quick     reduced budgets (fewer apps/trials/epochs) for a fast pass\n\
     --seed N    dataset + experiment seed (default: paper-run seed)\n\
     --shards N  store the catalog as N column blocks that the planner\n\
                 can prune (results are bitwise-identical to one block)\n\
     --ingest    serve only: interleave a streaming machine ingest (cold\n\
                 batch, warm all-hit batch, push machines, post-ingest\n\
                 batch) and report cache hit/miss/invalidation counts\n\
     \n\
     serve       drive the batched ranking-query engine under a synthetic\n\
                 request mix (combine with --shards N to see block pruning)\n\
     robustness  sweep measurement noise over the catalog and report each\n\
                 model's rank-correlation-vs-noise curve (every block\n\
                 layout verified bitwise-identical)\n\
     approx      sweep the PCA-bucketed approximate serving frontier:\n\
                 recall@top-k, Spearman rho vs exact, and speedup per\n\
                 (n_components, probe_buckets) operating point\n"
}

fn main() -> ExitCode {
    let mut config = ExperimentConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config = ExperimentConfig::quick(),
            "--seed" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(seed) => {
                    config.seed = seed;
                    config.dataset.seed = seed;
                }
                None => {
                    eprintln!("--seed requires an integer argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.db_shards = Some(n),
                _ => {
                    eprintln!("--shards requires a positive integer argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--ingest" => config.serve_ingest = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => targets.push(other.to_owned()),
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() {
        targets.push("all".to_owned());
    }

    for target in &targets {
        let started = Instant::now();
        let result = match target.as_str() {
            "table2" => table2::run(&config).map(|r| println!("{r}")),
            "table3" => table3::run(&config).map(|r| println!("{r}")),
            "table4" => table4::run(&config).map(|r| println!("{r}")),
            "fig6" => fig6::run(&config).map(|r| println!("{r}")),
            "fig7" => fig7::run(&config).map(|r| println!("{r}")),
            "fig8" => fig8::run(&config).map(|r| println!("{r}")),
            "ablation" => ablation::run(&config).map(|r| println!("{r}")),
            "serve" => serve::run(&config).map(|r| println!("{r}")),
            "robustness" => robustness::run(&config).map(|r| println!("{r}")),
            "approx" => approx::run(&config).map(|r| println!("{r}")),
            "diag" => diagnose(&config),
            "all" => run_all(&config),
            other => {
                eprintln!("unknown experiment {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        match result {
            Ok(()) => eprintln!("[{target} done in {:.1}s]", started.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("{target} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints per-cell metrics for the outlier benchmarks on the most
/// interesting folds, for model-tuning forensics.
fn diagnose(config: &ExperimentConfig) -> Result<(), datatrans_core::CoreError> {
    use datatrans_core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
    use datatrans_dataset::machine::ProcessorFamily;

    let db = &config.build_database()?;
    let apps: Vec<usize> = [
        "libquantum",
        "cactusADM",
        "leslie3d",
        "namd",
        "hmmer",
        "perlbench",
        "mcf",
    ]
    .iter()
    .map(|n| db.benchmark_index(n))
    .collect::<Result<_, _>>()?;
    let report = family_cross_validation(
        db,
        &config.methods(),
        &FamilyCvConfig {
            seed: config.seed,
            families: Some(vec![
                ProcessorFamily::Xeon,
                ProcessorFamily::CoreI7,
                ProcessorFamily::Core2,
                ProcessorFamily::OpteronK10,
            ]),
            apps: Some(apps),
            parallelism: config.parallelism,
        },
    )?;
    println!(
        "{:<18} {:<12} {:<8} {:>10} {:>10} {:>10}",
        "fold", "app", "method", "rank", "top1%", "mean%"
    );
    let mut cells = report.cells.clone();
    cells.sort_by_key(|a| (a.fold.clone(), a.app.clone()));
    for c in &cells {
        println!(
            "{:<18} {:<12} {:<8} {:>10.2} {:>10.1} {:>10.1}",
            c.fold,
            c.app,
            c.method,
            c.metrics.rank_correlation,
            c.metrics.top1_error_pct,
            c.metrics.mean_error_pct
        );
    }
    Ok(())
}

fn run_all(config: &ExperimentConfig) -> Result<(), datatrans_core::CoreError> {
    // Table 2, Figure 6 and Figure 7 share one cross-validation run.
    let t2 = table2::run(config)?;
    println!("{t2}");
    println!("{}", fig6::from_report(&t2.report)?);
    println!("{}", fig7::from_report(&t2.report)?);
    println!("{}", table3::run(config)?);
    println!("{}", table4::run(config)?);
    println!("{}", fig8::run(config)?);
    Ok(())
}
