//! Seeded request generators for the workloads.
//!
//! Every request is a pure function of `(catalog, seed, index)`, so a run
//! can regenerate any request it sent and the same seed always yields the
//! same inputs.

use datatrans_core::serve::{
    serve_batch, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest, ServeConfig,
};
use datatrans_dataset::perf_model::spec_ratio;
use datatrans_dataset::query::MachineFilter;
use datatrans_dataset::view::DatabaseView;
use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, RngCore, SeedableRng};
use datatrans_stats::correlation::spearman;

use crate::stats::mean;

/// Requests whose full rankings `rank_corr_mean` covers.
pub const RANK_CORR_SAMPLE: usize = 256;

/// Seed of every set-up's warm-up requests: set-up does the same work
/// whatever the run's seed.
pub const WARM_SEED: u64 = 0x5E7_0000;

/// Machines a requester owns (the predictive set) in every request.
pub const PREDICTIVE: usize = 5;

/// Ranking length of every request.
pub const TOP_K: usize = 10;

/// The approximate-serving parameters of approx-bearing requests.
pub const APPROX: ApproxConfig = ApproxConfig {
    n_components: 2,
    n_buckets: 16,
    probe_buckets: 4,
};

/// Which optional annexes a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extras {
    /// Plain exact request.
    None,
    /// Carries [`APPROX`].
    Approx,
    /// Carries the default [`ConfidenceConfig`].
    Confidence,
}

fn stream(seed: u64, domain: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ domain
            ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Request `index` of a seeded stream: half suite apps, half external
/// apps; restriction shape `index % 4` is family, years, min-score, all,
/// each admitting at least one machine outside the random predictive set;
/// a request seed unique to `(seed, index)`, so no two requests of a
/// stream share a cache fingerprint.
pub fn request<D: DatabaseView + ?Sized>(
    db: &D,
    seed: u64,
    domain: u64,
    index: usize,
    model: ModelKind,
    extras: Extras,
) -> RankRequest {
    let mut rng = stream(seed, domain, index);
    let n_machines = db.n_machines();
    let mut predictive: Vec<usize> = Vec::with_capacity(PREDICTIVE);
    while predictive.len() < PREDICTIVE {
        let m = rng.gen_range(0..n_machines);
        if !predictive.contains(&m) {
            predictive.push(m);
        }
    }
    // Each restriction is anchored on a machine outside the predictive
    // set, so no request of any workload is left without candidates.
    let anchor = loop {
        let m = rng.gen_range(0..n_machines);
        if !predictive.contains(&m) {
            break m;
        }
    };
    let machine = &db.machines()[anchor];
    let restrict = match index % 4 {
        0 => MachineFilter::family(machine.family),
        1 => {
            let lo = machine.year - rng.gen_range(0..2u16);
            MachineFilter::years(lo, lo + 1)
        }
        2 => {
            let b = rng.gen_range(0..db.n_benchmarks());
            MachineFilter::all().with_min_score(b, db.score(b, anchor))
        }
        _ => MachineFilter::all(),
    };
    let app = if index % 2 == 0 {
        AppOfInterest::Suite(rng.gen_range(0..db.n_benchmarks()))
    } else {
        let profile = WorkloadProfile::ALL[rng.gen_range(0..WorkloadProfile::ALL.len())];
        AppOfInterest::External(synthesize(profile, rng.next_u64()))
    };
    RankRequest {
        app,
        model,
        predictive,
        restrict,
        top_k: Some(TOP_K),
        seed: rng.next_u64(),
        confidence: (extras == Extras::Confidence).then(ConfidenceConfig::default),
        approx: (extras == Extras::Approx).then_some(APPROX),
    }
}

/// The measured score of `app` on machine `m`: the catalog's entry for a
/// suite benchmark, the noise-free performance model for an external app.
fn measured_score<D: DatabaseView + ?Sized>(db: &D, app: &AppOfInterest, m: usize) -> f64 {
    match app {
        AppOfInterest::Suite(b) => db.score(*b, m),
        AppOfInterest::External(app) => spec_ratio(&db.machines()[m].micro, app),
    }
}

/// Mean Spearman correlation between predicted and measured scores over
/// the full rankings (no `top_k` cut) of `requests`, served in-process;
/// returns the mean and the number of rankings it covers (requests that
/// fail or whose correlation is undefined are skipped).
pub fn rank_corr_mean<D: DatabaseView + ?Sized>(
    db: &D,
    requests: &[RankRequest],
    config: &ServeConfig,
) -> (f64, usize) {
    let full: Vec<RankRequest> = requests
        .iter()
        .map(|r| RankRequest {
            top_k: None,
            ..r.clone()
        })
        .collect();
    let rhos: Vec<f64> = full
        .iter()
        .zip(serve_batch(db, &full, config))
        .filter_map(|(request, served)| {
            let response = served.ok()?;
            let predicted: Vec<f64> = response.ranked.iter().map(|r| r.predicted_score).collect();
            let measured: Vec<f64> = response
                .ranked
                .iter()
                .map(|r| measured_score(db, &request.app, r.machine))
                .collect();
            spearman(&predicted, &measured)
                .ok()
                .filter(|rho| rho.is_finite())
        })
        .collect();
    (mean(&rhos).unwrap_or(f64::NAN), rhos.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_dataset::generator::{generate, generate_scaled, DatasetConfig, ScaleConfig};

    #[test]
    fn requests_are_seeded_and_distinct() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let a = request(&db, 1, 0, 5, ModelKind::NnT, Extras::None);
        assert_eq!(a, request(&db, 1, 0, 5, ModelKind::NnT, Extras::None));
        assert_ne!(a, request(&db, 2, 0, 5, ModelKind::NnT, Extras::None));
        assert_ne!(
            a.seed,
            request(&db, 1, 0, 6, ModelKind::NnT, Extras::None).seed
        );
        assert_eq!(a.predictive.len(), PREDICTIVE);
        let approx = request(&db, 1, 0, 5, ModelKind::MlpT, Extras::Approx);
        assert_eq!((approx.approx, approx.confidence), (Some(APPROX), None));
    }

    #[test]
    fn every_request_leaves_candidates() {
        let paper = generate(&DatasetConfig::default()).unwrap();
        let scaled = generate_scaled(&ScaleConfig::default()).unwrap();
        for db in [&paper, &scaled] {
            for seed in 0..4 {
                for i in 0..400 {
                    let r = request(db, seed, 9, i, ModelKind::NnT, Extras::None);
                    let plan = db.plan_machines(&r.restrict);
                    assert!(
                        plan.machines.iter().any(|m| !r.predictive.contains(m)),
                        "seed {seed} request {i}: {:?}",
                        r.restrict
                    );
                }
            }
        }
    }
}
