//! Cross-crate property tests: invariants of the full pipeline.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans::core::model::{MlpT, NnT, Predictor};
use datatrans::core::ranking::{EvalMetrics, Ranking};
use datatrans::core::task::PredictionTask;
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::perf_model::{cpi_stack, execution_time_s, spec_ratio};
use datatrans::dataset::workload_synth::{synthesize, WorkloadProfile};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::seq::SliceRandom;
use datatrans_rng::{Rng, SeedableRng};

const CASES: usize = 16;

const PROFILES: [WorkloadProfile; 5] = [
    WorkloadProfile::ServerInteger,
    WorkloadProfile::Scientific,
    WorkloadProfile::Streaming,
    WorkloadProfile::PointerChasing,
    WorkloadProfile::Embedded,
];

fn any_profile(rng: &mut StdRng) -> WorkloadProfile {
    *PROFILES.choose(rng).expect("non-empty")
}

#[test]
fn synthesized_workloads_have_valid_perf_on_all_machines() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    let db = generate(&DatasetConfig::default()).unwrap();
    for _ in 0..CASES {
        let profile = any_profile(&mut rng);
        let seed = rng.gen_range(0..500u64);
        let app = synthesize(profile, seed);
        for machine in db.machines() {
            let t = execution_time_s(&machine.micro, &app);
            let r = spec_ratio(&machine.micro, &app);
            assert!(t.is_finite() && t > 0.0);
            assert!(r.is_finite() && r > 0.0);
            let stack = cpi_stack(&machine.micro, &app);
            assert!(stack.total() > 0.0);
        }
    }
}

#[test]
fn ranking_is_a_permutation() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    let db = generate(&DatasetConfig::default()).unwrap();
    for _ in 0..CASES {
        let profile = any_profile(&mut rng);
        let seed = rng.gen_range(0..100u64);
        let app = synthesize(profile, seed);
        let predictive = vec![2, 40, 80];
        let targets: Vec<usize> = (90..117).collect();
        let task = PredictionTask::external_app(&db, &app, &predictive, &targets, seed).unwrap();
        let predicted = NnT::default().predict(&task).unwrap();
        let ranking = Ranking::from_scores(&predicted).unwrap();
        let mut order = ranking.order().to_vec();
        order.sort_unstable();
        let expected: Vec<usize> = (0..targets.len()).collect();
        assert_eq!(order, expected);
        // Scores along the ranking are non-increasing.
        for w in ranking.order().windows(2) {
            assert!(predicted[w[0]] >= predicted[w[1]]);
        }
    }
}

#[test]
fn dataset_seed_changes_scores_not_structure() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    for _ in 0..CASES {
        let seed = rng.gen_range(0..200u64);
        let a = generate(&DatasetConfig {
            seed,
            noise_sigma: 0.015,
        })
        .unwrap();
        assert_eq!(a.n_benchmarks(), 29);
        assert_eq!(a.n_machines(), 117);
        for b in 0..29 {
            for m in 0..117 {
                let s = a.score(b, m);
                assert!(s.is_finite() && s > 0.0 && s < 2000.0);
            }
        }
    }
}

#[test]
fn oracle_prediction_scores_perfectly() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    let db = generate(&DatasetConfig::default()).unwrap();
    for _ in 0..CASES {
        // Feeding the actual scores as "predictions" must yield perfect
        // metrics — the measurement pipeline itself adds no error.
        let app = rng.gen_range(0..29usize);
        let targets: Vec<usize> = (30..60).collect();
        let actual = PredictionTask::actual_scores(&db, app, &targets);
        let m = EvalMetrics::compute(&actual, &actual).unwrap();
        assert!((m.rank_correlation - 1.0).abs() < 1e-9);
        assert_eq!(m.top1_error_pct, 0.0);
        assert_eq!(m.mean_error_pct, 0.0);
    }
}

#[test]
fn mlpt_predictions_bounded_by_plausibility() {
    // Predictions stay within a plausible multiple of the observed score
    // range — the clamp against divergence works end-to-end.
    let db = generate(&DatasetConfig::default()).unwrap();
    let targets: Vec<usize> = db.machines_in_year(2009);
    let predictive = vec![0, 1, 2]; // deliberately tiny and homogeneous
    for app in [0usize, 10, 15] {
        let task = PredictionTask::leave_one_out(&db, app, &predictive, &targets, 5).unwrap();
        let predicted = MlpT::default().predict(&task).unwrap();
        let max_score = (0..db.n_machines())
            .map(|m| db.score(app, m))
            .fold(0.0, f64::max);
        for p in &predicted {
            assert!(p.is_finite() && *p > 0.0);
            assert!(
                *p < max_score * 1000.0,
                "prediction {p} implausibly large for app {app}"
            );
        }
    }
}
