//! The noise-aware serving contract end to end:
//!
//! * `sigma = 0` perturbation is a bitwise no-op — on the catalog bytes
//!   and on every served ranking;
//! * the perturbation-robustness sweep (`repro robustness`) is
//!   bitwise-deterministic across thread counts, with its block-layout
//!   equivalence check enforced inside the driver;
//! * confidence annexes (bootstrap rank CIs + tie groups) are identical
//!   under `Parallelism::Auto` (honouring `DATATRANS_THREADS`) and
//!   explicit thread counts, on every block layout;
//! * a malformed request in a batch yields a typed per-slot error of the
//!   right [`ServeError`] variant while every other slot serves correctly,
//!   on every block layout at any thread count.

use datatrans::core::serve::{
    serve_batch, serve_one, AppOfInterest, ConfidenceConfig, ModelKind, RankRequest, RankResponse,
    ServeConfig, ServeError,
};
use datatrans::dataset::generator::{generate, perturb_database, DatasetConfig, NoiseConfig};
use datatrans::dataset::query::MachineFilter;
use datatrans::experiments::{robustness, ExperimentConfig};
use datatrans::parallel::Parallelism;

fn quick_config(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    }
}

fn base_request() -> RankRequest {
    RankRequest {
        app: AppOfInterest::Suite(2),
        model: ModelKind::NnT,
        predictive: vec![0, 40, 80],
        restrict: MachineFilter::all(),
        top_k: Some(8),
        seed: 5,
        confidence: None,
        approx: None,
    }
}

/// Bitwise equality of two responses, confidence annex included.
fn responses_bitwise_eq(a: &RankResponse, b: &RankResponse) -> bool {
    let base = a.method == b.method
        && a.candidates == b.candidates
        && a.ranked.len() == b.ranked.len()
        && a.ranked.iter().zip(&b.ranked).all(|(x, y)| {
            x.machine == y.machine && x.predicted_score.to_bits() == y.predicted_score.to_bits()
        });
    let annex = match (&a.confidence, &b.confidence) {
        (None, None) => true,
        (Some(ca), Some(cb)) => {
            ca.level.to_bits() == cb.level.to_bits()
                && ca.tie_groups == cb.tie_groups
                && ca.ranked.len() == cb.ranked.len()
                && ca.ranked.iter().zip(&cb.ranked).all(|(u, v)| {
                    u.machine == v.machine
                        && u.tie_group == v.tie_group
                        && u.rank.to_bits() == v.rank.to_bits()
                        && u.rank_lower.to_bits() == v.rank_lower.to_bits()
                        && u.rank_upper.to_bits() == v.rank_upper.to_bits()
                        && u.score_lower.to_bits() == v.score_lower.to_bits()
                        && u.score_upper.to_bits() == v.score_upper.to_bits()
                })
        }
        _ => false,
    };
    base && annex
}

#[test]
fn zero_noise_perturbation_is_a_bitwise_noop_end_to_end() {
    let clean = generate(&DatasetConfig::default()).expect("dataset");
    let perturbed = perturb_database(
        &clean,
        &NoiseConfig {
            seed: 99,
            sigma: 0.0,
            repeats: 1,
        },
    )
    .expect("perturb");
    assert_eq!(clean.blocks(), perturbed.blocks());
    assert_eq!(clean.machines(), perturbed.machines());

    // And the served ranking is bitwise-identical too.
    let config = quick_config(Parallelism::Sequential);
    let on_clean = serve_one(&clean, &base_request(), &config).expect("clean serve");
    let on_perturbed = serve_one(&perturbed, &base_request(), &config).expect("perturbed serve");
    assert!(responses_bitwise_eq(&on_clean, &on_perturbed));
}

#[test]
fn nonzero_noise_moves_scores_but_stays_deterministic() {
    let clean = generate(&DatasetConfig::default()).expect("dataset");
    let noise = NoiseConfig {
        seed: 99,
        sigma: 0.02,
        repeats: 1,
    };
    let a = perturb_database(&clean, &noise).expect("perturb a");
    let b = perturb_database(&clean, &noise).expect("perturb b");
    assert_eq!(a.blocks(), b.blocks(), "same stream, same bytes");
    assert_ne!(a.blocks(), clean.blocks(), "sigma > 0 actually perturbs");
}

#[test]
fn robustness_sweep_is_bitwise_identical_across_thread_counts() {
    let quick = ExperimentConfig {
        max_apps: Some(2),
        mlp_epochs: 20,
        ga_population: 8,
        ga_generations: 3,
        ..ExperimentConfig::quick()
    };
    let sequential = robustness::run(&ExperimentConfig {
        parallelism: Parallelism::Sequential,
        ..quick.clone()
    })
    .expect("sequential sweep");
    for threads in [1usize, 4] {
        let pooled = robustness::run(&ExperimentConfig {
            parallelism: Parallelism::Threads(threads),
            ..quick.clone()
        })
        .expect("pooled sweep");
        for (a, b) in sequential.rho.iter().zip(&pooled.rho) {
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "{threads} threads");
        }
    }
    // sigma = 0 is the clean catalog: every model agrees with itself.
    for per_model in &sequential.rho {
        assert!((per_model[0] - 1.0).abs() < 1e-12);
    }
}

#[test]
fn confidence_annex_identical_under_auto_and_explicit_parallelism() {
    // Parallelism::Auto honours DATATRANS_THREADS, so running this binary
    // at the pinned thread counts exercises the env-driven path against
    // explicit pool sizes and the sequential baseline.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let request = RankRequest {
        confidence: Some(ConfidenceConfig {
            repeats: 4,
            resamples: 60,
            ..ConfidenceConfig::default()
        }),
        ..base_request()
    };
    let reference = serve_one(&dense, &request, &quick_config(Parallelism::Sequential))
        .expect("sequential reference");
    let annex = reference.confidence.as_ref().expect("annex present");
    assert_eq!(annex.ranked.len(), reference.ranked.len());

    // Plan accounting legitimately differs across block layouts;
    // everything else must match bitwise.
    let strip = |r: &RankResponse| RankResponse {
        shards_scanned: 0,
        shards_pruned: 0,
        ..r.clone()
    };
    for layout in dense.layout_sweep().expect("layouts") {
        let view = &layout;
        for parallelism in [
            Parallelism::Auto,
            Parallelism::Threads(1),
            Parallelism::Threads(4),
        ] {
            let served =
                serve_one(view, &request, &quick_config(parallelism)).expect("parallel serve");
            assert!(
                responses_bitwise_eq(&strip(&reference), &strip(&served)),
                "{} blocks, {parallelism:?}",
                layout.blocks().len()
            );
        }
    }
}

#[test]
fn malformed_slots_fail_typed_while_the_rest_of_the_batch_serves() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let bound = dense.n_benchmarks();
    let machines = dense.n_machines();

    let valid = base_request();
    let batch = vec![
        valid.clone(),
        RankRequest {
            app: AppOfInterest::Suite(999),
            ..valid.clone()
        },
        RankRequest {
            predictive: vec![],
            ..valid.clone()
        },
        RankRequest {
            predictive: vec![0, 500],
            ..valid.clone()
        },
        RankRequest {
            restrict: MachineFilter::all().with_min_score(999, 1.0),
            ..valid.clone()
        },
        RankRequest {
            // Candidates exclude predictive machines: restricting to
            // exactly the predictive set leaves nothing to rank.
            restrict: MachineFilter::all().with_subset(vec![0, 40, 80]),
            ..valid.clone()
        },
        RankRequest {
            confidence: Some(ConfidenceConfig {
                level: 1.5,
                ..ConfidenceConfig::default()
            }),
            ..valid.clone()
        },
    ];

    for layout in dense.layout_sweep().expect("layouts") {
        let view = &layout;
        for threads in [1usize, 4] {
            let config = quick_config(Parallelism::Threads(threads));
            let what = format!("{} blocks @ {threads} threads", layout.blocks().len());
            let slots = serve_batch(view, &batch, &config);
            assert_eq!(slots.len(), batch.len(), "{what}");

            // The valid slot serves exactly as it would alone.
            let alone = serve_one(view, &valid, &config).expect("valid alone");
            let in_batch = slots[0].as_ref().expect("valid slot serves");
            assert!(responses_bitwise_eq(&alone, in_batch), "{what}");

            // Every malformed slot fails with its own typed variant.
            assert_eq!(
                slots[1],
                Err(ServeError::UnknownBenchmark { index: 999, bound }),
                "{what}"
            );
            assert_eq!(slots[2], Err(ServeError::EmptyPredictiveSet), "{what}");
            assert_eq!(
                slots[3],
                Err(ServeError::PredictiveOutOfRange {
                    index: 500,
                    bound: machines
                }),
                "{what}"
            );
            assert!(
                matches!(
                    slots[4],
                    Err(ServeError::InvalidRestriction { index: 999, .. })
                ),
                "{what}: got {:?}",
                slots[4]
            );
            assert_eq!(slots[5], Err(ServeError::EmptyCandidates), "{what}");
            assert!(
                matches!(
                    slots[6],
                    Err(ServeError::InvalidConfidence { name: "level", .. })
                ),
                "{what}: got {:?}",
                slots[6]
            );
        }
    }
}
