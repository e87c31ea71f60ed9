//! Block-layout equivalence: every column-block layout of the score store
//! is bitwise-identical to the single block the generators build — for
//! every `DatabaseView` accessor, for task construction, for query plans,
//! and for full model prediction runs — at every layout
//! `PerfDatabase::layout_sweep` produces (one block, a count that does not
//! divide the machine count, eight blocks, width-1 blocks) and any thread
//! count.
//!
//! This suite is the contract that makes re-blocking safe anywhere:
//! blocking only moves stored bytes, it never recomputes them.

use datatrans::core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
use datatrans::core::model::{FitCriterion, GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans::core::task::PredictionTask;
use datatrans::dataset::database::PerfDatabase;
use datatrans::dataset::generator::{generate, generate_scaled, DatasetConfig, ScaleConfig};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::dataset::query::{scan_machines, MachineFilter};
use datatrans::dataset::view::DatabaseView;
use datatrans::ml::ga::GaConfig;
use datatrans::ml::mlp::MlpConfig;
use datatrans::parallel::Parallelism;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

/// Every accessor of the `DatabaseView` surface, compared bitwise.
fn assert_view_equivalent(single: &PerfDatabase, layout: &PerfDatabase, label: &str) {
    let d: &dyn DatabaseView = single;
    let s: &dyn DatabaseView = layout;
    assert_eq!(d.n_benchmarks(), s.n_benchmarks(), "{label}");
    assert_eq!(d.n_machines(), s.n_machines(), "{label}");
    assert_eq!(d.benchmarks(), s.benchmarks(), "{label}");
    assert_eq!(d.machines(), s.machines(), "{label}");
    assert_eq!(d.catalog_version(), s.catalog_version(), "{label}");

    // score + machine_column, every cell.
    for m in 0..d.n_machines() {
        let single_col = d.machine_column(m).to_vec();
        let layout_col = s.machine_column(m).to_vec();
        for b in 0..d.n_benchmarks() {
            assert_eq!(
                d.score(b, m).to_bits(),
                s.score(b, m).to_bits(),
                "{label}: score({b}, {m})"
            );
            assert_eq!(
                single_col[b].to_bits(),
                layout_col[b].to_bits(),
                "{label}: column {m} row {b}"
            );
        }
    }

    // The blocks tile the machines contiguously, in order, and each block
    // stores exactly the single block's columns.
    let mut covered = 0;
    for block in layout.blocks() {
        let range = block.machine_range();
        assert_eq!(range.start, covered, "{label}: block contiguity");
        for b in 0..d.n_benchmarks() {
            for (offset, value) in block.scores().row(b).iter().enumerate() {
                assert_eq!(
                    value.to_bits(),
                    d.score(b, range.start + offset).to_bits(),
                    "{label}: row {b} machine {}",
                    range.start + offset
                );
            }
        }
        covered = range.end;
    }
    assert_eq!(covered, d.n_machines(), "{label}: coverage");

    // Metadata-derived queries.
    for family in ProcessorFamily::ALL {
        assert_eq!(
            d.machines_in_family(family),
            s.machines_in_family(family),
            "{label}: family {family}"
        );
    }
    for year in 2002..=2010 {
        assert_eq!(
            d.machines_in_year(year),
            s.machines_in_year(year),
            "{label}"
        );
        assert_eq!(
            d.machines_before_year(year),
            s.machines_before_year(year),
            "{label}"
        );
    }
    let name = &d.benchmarks()[d.n_benchmarks() - 1].name;
    assert_eq!(
        d.benchmark_index(name).unwrap(),
        s.benchmark_index(name).unwrap(),
        "{label}"
    );
    assert!(s.benchmark_index("no-such-benchmark").is_err(), "{label}");
}

/// Random gathers (the task-construction read path), compared bitwise.
fn assert_gather_equivalent(
    single: &PerfDatabase,
    layout: &PerfDatabase,
    rng: &mut StdRng,
    label: &str,
) {
    for _ in 0..4 {
        let n_rows = rng.gen_range(1..single.n_benchmarks() + 1);
        let n_cols = rng.gen_range(1..single.n_machines() + 1);
        let rows: Vec<usize> = (0..n_rows)
            .map(|_| rng.gen_range(0..single.n_benchmarks()))
            .collect();
        // Scattered, repeated and descending indices defeat any run
        // coalescing.
        let cols: Vec<usize> = (0..n_cols)
            .map(|_| rng.gen_range(0..single.n_machines()))
            .collect();
        let single_sub = single.gather(&rows, &cols);
        let layout_sub = layout.gather(&rows, &cols);
        assert_eq!(single_sub.shape(), layout_sub.shape(), "{label}");
        for i in 0..single_sub.rows() {
            for j in 0..single_sub.cols() {
                assert_eq!(
                    single_sub[(i, j)].to_bits(),
                    layout_sub[(i, j)].to_bits(),
                    "{label}: gather ({i}, {j})"
                );
            }
        }
    }
}

#[test]
fn accessors_identical_across_seeded_shapes_and_shard_layouts() {
    // Seeded random shapes, including machine counts far from the paper's
    // 117 and benchmark suites both truncated and extended past SPEC's 29.
    let mut rng = StdRng::seed_from_u64(0x05AA_DE00);
    let mut shapes = vec![(7usize, 5usize), (117, 29), (64, 3)];
    for _ in 0..5 {
        shapes.push((rng.gen_range(2..200), rng.gen_range(1..40)));
    }
    for (n_machines, n_benchmarks) in shapes {
        let single = generate_scaled(&ScaleConfig {
            seed: 0x0E00 ^ (n_machines as u64) << 8 ^ n_benchmarks as u64,
            noise_sigma: 0.015,
            n_machines,
            n_benchmarks,
        })
        .expect("scale generation");
        assert_eq!(single.blocks().len(), 1);
        for layout in single.layout_sweep().expect("layouts") {
            let label = format!(
                "{n_benchmarks}×{n_machines} @ {} blocks",
                layout.blocks().len()
            );
            assert_view_equivalent(&single, &layout, &label);
            assert_gather_equivalent(&single, &layout, &mut rng, &label);
            assert_eq!(layout.reblock(1).expect("one block"), single, "{label}");
        }
    }
}

#[test]
fn empty_index_gathers_identical_on_both_backings() {
    // `gather(&[], _)` / `gather(_, &[])` must return a well-formed 0×n /
    // n×0 matrix — no panic — on every block layout.
    let single = generate(&DatasetConfig::default()).expect("dataset");
    let rows: Vec<usize> = (0..single.n_benchmarks()).collect();
    let cols: Vec<usize> = vec![0, 58, 116];
    for layout in single.layout_sweep().expect("layouts") {
        let label = format!("{} blocks", layout.blocks().len());
        let no_rows = layout.gather(&[], &cols);
        assert_eq!(no_rows.shape(), (0, 3), "{label}");
        let no_cols = layout.gather(&rows, &[]);
        assert_eq!(no_cols.shape(), (single.n_benchmarks(), 0), "{label}");
        let nothing = layout.gather(&[], &[]);
        assert_eq!(nothing.shape(), (0, 0), "{label}");
    }
}

#[test]
fn query_plans_identical_on_every_view() {
    // The planner's machine list is layout-independent: the single block's
    // scan and every layout's zone-map-pruned plan must agree exactly.
    let single = generate(&DatasetConfig::default()).expect("dataset");
    let threshold = single.score(2, 60);
    let filters = [
        MachineFilter::all(),
        MachineFilter::family(ProcessorFamily::Xeon),
        MachineFilter::years(2005, 2008),
        MachineFilter::family(ProcessorFamily::Power6).with_years(2006, 2009),
        MachineFilter::all().with_min_score(2, threshold),
        MachineFilter::all().with_subset(vec![116, 3, 40, 3]),
        MachineFilter::years(1990, 1995), // empty result
    ];
    for layout in single.layout_sweep().expect("layouts") {
        let n_blocks = layout.blocks().len();
        for filter in &filters {
            let reference = scan_machines(&single, filter);
            let plan = layout.plan_machines(filter);
            assert_eq!(plan.machines, reference, "{n_blocks} blocks: {filter:?}");
            assert_eq!(
                plan.shards_scanned + plan.shards_pruned,
                n_blocks,
                "{filter:?}"
            );
        }
    }
}

fn quick_gaknn(parallelism: Parallelism) -> GaKnn {
    GaKnn {
        config: GaKnnConfig {
            ga: GaConfig {
                population: 10,
                generations: 4,
                parallelism,
                ..GaConfig::default_seeded(0)
            },
            ..GaKnnConfig::default()
        },
    }
}

#[test]
fn full_prediction_runs_identical_on_dense_and_sharded() {
    // A complete GA-kNN + NNᵀ + MLPᵀ prediction pipeline — task gather,
    // training, prediction — from every block layout, at 1/2/4 worker
    // threads.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let targets = dense.machines_in_family(ProcessorFamily::Phenom);
    let predictive: Vec<usize> = (0..dense.n_machines())
        .filter(|m| !targets.contains(m))
        .collect();

    let dense_task =
        PredictionTask::leave_one_out(&dense, 4, &predictive, &targets, 7).expect("task");
    for layout in dense.layout_sweep().expect("layouts") {
        let n_blocks = layout.blocks().len();
        let layout_task =
            PredictionTask::leave_one_out(&layout, 4, &predictive, &targets, 7).expect("task");
        assert_eq!(dense_task.train_predictive, layout_task.train_predictive);
        assert_eq!(dense_task.train_target, layout_task.train_target);
        assert_eq!(dense_task.app_predictive, layout_task.app_predictive);

        for threads in [1usize, 2, 4] {
            let parallelism = Parallelism::Threads(threads);
            let methods: Vec<Box<dyn Predictor + Send + Sync>> = vec![
                Box::new(NnT {
                    criterion: FitCriterion::RSquared,
                    log_domain: false,
                }),
                Box::new(MlpT {
                    config: MlpConfig {
                        epochs: 20,
                        ..MlpConfig::weka_default(0)
                    },
                    parallelism,
                    ..MlpT::default()
                }),
                Box::new(quick_gaknn(parallelism)),
            ];
            for method in &methods {
                let from_dense = method.predict(&dense_task).expect("dense predict");
                let from_layout = method.predict(&layout_task).expect("layout predict");
                let dense_bits: Vec<u64> = from_dense.iter().map(|v| v.to_bits()).collect();
                let layout_bits: Vec<u64> = from_layout.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    dense_bits,
                    layout_bits,
                    "{} at {n_blocks} blocks, {threads} threads",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn family_cv_harness_identical_across_backings_and_thread_counts() {
    // The wired read path end to end: the harness fans folds out across
    // the worker pool; reports must be cell-for-cell identical on every
    // block layout at 1/2/4 threads.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let methods = || -> Vec<Box<dyn Predictor + Send + Sync>> { vec![Box::new(NnT::default())] };
    let config = |parallelism| FamilyCvConfig {
        families: Some(vec![
            ProcessorFamily::Xeon,
            ProcessorFamily::Itanium,
            ProcessorFamily::Power6,
        ]),
        apps: Some(vec![0, 9]),
        parallelism,
        ..FamilyCvConfig::default()
    };
    let reference = family_cross_validation(&dense, &methods(), &config(Parallelism::Sequential))
        .expect("dense sequential");
    for layout in dense.layout_sweep().expect("layouts") {
        for threads in [1usize, 2, 4] {
            let parallelism = Parallelism::Threads(threads);
            let report =
                family_cross_validation(&layout, &methods(), &config(parallelism)).expect("report");
            assert_eq!(
                reference.cells,
                report.cells,
                "{} blocks @ {threads}",
                layout.blocks().len()
            );
        }
    }
}

#[test]
fn scale_catalog_predictions_identical_on_sharded_backing() {
    // A 600-machine scale catalog on every block layout: the
    // temporal-style split (2009 targets, older predictive) must produce
    // bitwise-identical NNᵀ predictions from each.
    let dense = generate_scaled(&ScaleConfig {
        n_machines: 600,
        ..ScaleConfig::default()
    })
    .expect("scale dataset");
    let targets = dense.machines_in_year(2009);
    let predictive = dense.machines_before_year(2009);
    assert!(!targets.is_empty() && !predictive.is_empty());
    let nnt = NnT::default();
    let dense_task =
        PredictionTask::leave_one_out(&dense, 0, &predictive, &targets, 3).expect("task");
    let a = nnt.predict(&dense_task).expect("dense");
    for layout in dense.layout_sweep().expect("layouts") {
        let layout_task =
            PredictionTask::leave_one_out(&layout, 0, &predictive, &targets, 3).expect("task");
        let b = nnt.predict(&layout_task).expect("blocked");
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{} blocks",
            layout.blocks().len()
        );
    }
}
