//! Property-based tests for the statistics substrate.
//!
//! Randomized inputs come from the workspace's deterministic
//! `datatrans-rng` generator (seeded per test), so failures are always
//! reproducible.

use datatrans_parallel::Parallelism;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};
use datatrans_stats::correlation::{kendall, pearson, r_squared, spearman};
use datatrans_stats::error_metrics::{top1_error_pct, topn_error_pct};
use datatrans_stats::rank::{
    argsort_descending, bootstrap_rank_confidence, bootstrap_rank_confidence_ref, rank_ascending,
    rank_descending, RankConfidence,
};
use datatrans_stats::summary::{geometric_mean, harmonic_mean, mean};

const CASES: usize = 128;

fn finite_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1000.0..1000.0)).collect()
}

fn positive_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.001..1000.0)).collect()
}

#[test]
fn rank_sum_invariant() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 12);
        let n = xs.len() as f64;
        let sum: f64 = rank_ascending(&xs).unwrap().iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }
}

#[test]
fn ascending_descending_ranks_mirror() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 9);
        let asc = rank_ascending(&xs).unwrap();
        let desc = rank_descending(&xs).unwrap();
        let n = xs.len() as f64;
        for (a, d) in asc.iter().zip(&desc) {
            assert!((a + d - (n + 1.0)).abs() < 1e-9);
        }
    }
}

#[test]
fn argsort_descending_is_sorted() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 10);
        let order = argsort_descending(&xs).unwrap();
        for w in order.windows(2) {
            assert!(xs[w[0]] >= xs[w[1]]);
        }
    }
}

#[test]
fn correlations_bounded() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 8);
        let ys = finite_vec(&mut rng, 8);
        if let Ok(r) = pearson(&xs, &ys) {
            assert!((-1.0..=1.0).contains(&r));
        }
        if let Ok(rho) = spearman(&xs, &ys) {
            assert!((-1.0..=1.0).contains(&rho));
        }
        if let Ok(tau) = kendall(&xs, &ys) {
            assert!((-1.0..=1.0).contains(&tau));
        }
    }
}

#[test]
fn spearman_invariant_under_monotone_map() {
    let mut rng = StdRng::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 8);
        // exp is strictly monotone; Spearman must not change.
        let ys: Vec<f64> = xs.iter().map(|x| (x / 500.0).exp()).collect();
        if let (Ok(a), Ok(b)) = (spearman(&xs, &xs), spearman(&xs, &ys)) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn spearman_symmetric() {
    let mut rng = StdRng::seed_from_u64(0xB6);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 7);
        let ys = finite_vec(&mut rng, 7);
        if let (Ok(a), Ok(b)) = (spearman(&xs, &ys), spearman(&ys, &xs)) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn self_correlation_is_one() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 6);
        if let Ok(r) = pearson(&xs, &xs) {
            assert!((r - 1.0).abs() < 1e-9);
        }
        if let Ok(rho) = spearman(&xs, &xs) {
            assert!((rho - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn r_squared_of_actual_is_one() {
    let mut rng = StdRng::seed_from_u64(0xB8);
    for _ in 0..CASES {
        let xs = finite_vec(&mut rng, 6);
        if let Ok(r2) = r_squared(&xs, &xs) {
            assert!((r2 - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn mean_inequalities() {
    let mut rng = StdRng::seed_from_u64(0xB9);
    for _ in 0..CASES {
        let xs = positive_vec(&mut rng, 10);
        let h = harmonic_mean(&xs).unwrap();
        let g = geometric_mean(&xs).unwrap();
        let a = mean(&xs).unwrap();
        assert!(h <= g + 1e-9);
        assert!(g <= a + 1e-9);
    }
}

#[test]
fn top1_error_zero_for_oracle() {
    let mut rng = StdRng::seed_from_u64(0xBA);
    for _ in 0..CASES {
        // Oracle prediction (the actual scores) has zero top-1 error.
        let actual = positive_vec(&mut rng, 9);
        assert_eq!(top1_error_pct(&actual, &actual).unwrap(), 0.0);
    }
}

#[test]
fn top1_error_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0xBB);
    for _ in 0..CASES {
        let pred = positive_vec(&mut rng, 9);
        let actual = positive_vec(&mut rng, 9);
        assert!(top1_error_pct(&pred, &actual).unwrap() >= 0.0);
    }
}

#[test]
fn topn_error_monotone_in_n() {
    let mut rng = StdRng::seed_from_u64(0xBC);
    for _ in 0..CASES {
        let pred = positive_vec(&mut rng, 7);
        let actual = positive_vec(&mut rng, 7);
        let mut last = f64::INFINITY;
        for n in 1..=7 {
            let e = topn_error_pct(&pred, &actual, n).unwrap();
            assert!(e <= last + 1e-9);
            last = e;
        }
        assert_eq!(topn_error_pct(&pred, &actual, 7).unwrap(), 0.0);
    }
}

/// Asserts two rank-confidence results are bitwise-identical: every float
/// compared by its bits, tie groups and errors exactly.
fn assert_same_rank_confidence(
    fast: &datatrans_stats::Result<RankConfidence>,
    reference: &datatrans_stats::Result<RankConfidence>,
    case: &str,
) {
    let (fast, reference) = match (fast, reference) {
        (Ok(fast), Ok(reference)) => (fast, reference),
        (fast, reference) => {
            assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{case}");
            return;
        }
    };
    let bits = |rc: &RankConfidence| -> Vec<[u64; 6]> {
        rc.items
            .iter()
            .map(|it| {
                [
                    it.score.to_bits(),
                    it.score_lower.to_bits(),
                    it.score_upper.to_bits(),
                    it.rank.to_bits(),
                    it.rank_lower.to_bits(),
                    it.rank_upper.to_bits(),
                ]
            })
            .collect()
    };
    assert_eq!(bits(fast), bits(reference), "{case}: intervals");
    assert_eq!(fast.ties, reference.ties, "{case}: tie groups");
    assert_eq!(
        (fast.level.to_bits(), fast.resamples),
        (reference.level.to_bits(), reference.resamples),
        "{case}"
    );
}

/// A seeded panel of `n` items × `m` measurements of one of several
/// shapes: well-separated levels under small noise, equal point levels
/// under heavy noise (every replicate a near-random permutation),
/// quantized measurements (exact ties inside replicates), duplicated
/// constant items (ties in every replicate), and one measurement per item
/// near `f64::MAX`: the point means stay finite, but a replicate that
/// draws it twice overflows and is skipped.
fn rank_panel(rng: &mut StdRng, shape: usize, n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| match shape {
            0 => {
                let level = 100.0 + i as f64;
                (0..m)
                    .map(|_| level * (1.0 + 0.015 * rng.gen_range(-1.0..1.0)))
                    .collect()
            }
            1 => (0..m)
                .map(|_| 50.0 * (1.0 + 0.5 * rng.gen_range(-1.0..1.0)))
                .collect(),
            2 => (0..m).map(|_| rng.gen_range(0..4usize) as f64).collect(),
            3 => vec![(i % 3) as f64; m],
            _ => {
                let huge = rng.gen_range(0..m);
                (0..m)
                    .map(|r| {
                        if r == huge {
                            0.75 * f64::MAX
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect()
            }
        })
        .collect()
}

#[test]
fn rank_confidence_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    let sizes = [1, 2, 3, 7, 20, 64, 300];
    let levels = [0.5, 0.9, 0.95, 0.99];
    // Every (shape, size) pair twice, so the large equal-level panels
    // that exhaust the insertion-sort budget are always exercised.
    for case in 0..2 * 5 * sizes.len() {
        let shape = case % 5;
        let n = sizes[(case / 5) % sizes.len()];
        let m = rng.gen_range(1..9usize);
        let resamples = [1, 2, 5, 31, 33, 64, 100][rng.gen_range(0..7usize)];
        let level = if rng.gen_bool(0.25) {
            rng.gen_range(0.01..0.999)
        } else {
            levels[rng.gen_range(0..levels.len())]
        };
        let seed = rng.gen_range(0..u64::MAX);
        let samples = rank_panel(&mut rng, shape, n, m);
        let label = format!("case {case}: shape {shape}, {n}x{m}, R={resamples}, level={level}");
        let reference = bootstrap_rank_confidence_ref(
            &samples,
            resamples,
            level,
            seed,
            Parallelism::Sequential,
        );
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let fast = bootstrap_rank_confidence(&samples, resamples, level, seed, parallelism);
            assert_same_rank_confidence(&fast, &reference, &format!("{label}, {parallelism:?}"));
        }
    }
}
