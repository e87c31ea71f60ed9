//! Purchasing advisor (paper §4): a phone company must pick the processor
//! for its next product, but its codec stack is proprietary and nothing in
//! the public benchmark suite looks like it.
//!
//! This version rides the ranking-query engine: each (workload, method)
//! pair becomes one [`RankRequest`] restricted to 2008+ machines, the
//! whole advisory session is served as **one batch over the worker pool**
//! against an 8-block catalog — so the planner's block pruning and the
//! batched execution path are both on display — and every recommendation
//! is graded against the oracle.
//!
//! ```text
//! cargo run --release --example purchasing_advisor
//! ```

use datatrans::core::select::select_k_medoids;
use datatrans::core::serve::{serve_batch, AppOfInterest, ModelKind, RankRequest, ServeConfig};
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::perf_model::spec_ratio;
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::view::DatabaseView;
use datatrans::dataset::workload_synth::{synthesize, WorkloadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = generate(&DatasetConfig::default())?;
    // Serve from 8 column blocks: candidate restrictions plan against
    // per-block zone maps instead of scanning the whole catalog.
    let blocked = db.reblock(8)?;

    // Candidate purchases: everything released 2008 or later.
    let restrict = MachineFilter::years(2008, u16::MAX);
    // In-house lab: five diverse older machines (k-medoids over the rest).
    let pool: Vec<usize> = (0..db.n_machines())
        .filter(|&m| db.machines()[m].year < 2008)
        .collect();
    let predictive = select_k_medoids(&db, &pool, 5, 9)?;

    let candidates = DatabaseView::plan_machines(&db, &restrict).machines;
    println!(
        "candidates: {} machines (2008+); lab machines: {}",
        candidates.len(),
        predictive.len()
    );

    // One request per (workload, method): the whole advisory session is a
    // single batch through the serving engine.
    let workloads: Vec<WorkloadProfile> = WorkloadProfile::ALL.to_vec();
    let mut requests = Vec::new();
    for &profile in &workloads {
        for model in ModelKind::ALL {
            requests.push(RankRequest {
                app: AppOfInterest::External(synthesize(profile, 77)),
                model,
                predictive: predictive.clone(),
                restrict: restrict.clone(),
                top_k: Some(5),
                seed: 77,
                confidence: None,
                approx: None,
            });
        }
    }
    // The batch is fault-isolated per slot; this mix is valid by
    // construction, so any per-slot error is a hard failure here.
    let responses = serve_batch(&blocked, &requests, &ServeConfig::default())
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    println!(
        "\n{:<16} {:<10} {:<34} {:>12} {:>10}",
        "workload", "method", "recommended machine", "deficiency", "shards s/p"
    );
    // Oracle grading, once per workload (three model rows share an app):
    // actual performance of every candidate, with the performance model
    // standing in for real hardware.
    let oracle: Vec<Vec<f64>> = workloads
        .iter()
        .map(|&profile| {
            let app = synthesize(profile, 77);
            candidates
                .iter()
                .map(|&m| spec_ratio(&db.machines()[m].micro, &app))
                .collect()
        })
        .collect();
    for (i, response) in responses.iter().enumerate() {
        let workload = i / ModelKind::ALL.len();
        let best = response.ranked.first().expect("top-k ≥ 1");
        let machine = &db.machines()[best.machine];
        let actual = &oracle[workload];
        let best_actual = actual.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let chosen = candidates
            .iter()
            .position(|&m| m == best.machine)
            .expect("recommendation is a candidate");
        let deficiency = ((best_actual - actual[chosen]) / actual[chosen] * 100.0).max(0.0);
        println!(
            "{:<16} {:<10} {:<34} {:>11.1}% {:>10}",
            workloads[workload].to_string(),
            response.method,
            format!("{} {} ({})", machine.family, machine.name, machine.year),
            deficiency,
            format!("{}/{}", response.shards_scanned, response.shards_pruned)
        );
        if (i + 1) % ModelKind::ALL.len() == 0 {
            println!();
        }
    }
    println!("deficiency = actual performance lost vs the true best candidate (0% = optimal)");
    println!("shards s/p = column blocks scanned / pruned by the query planner");

    // A vendor-constrained follow-up: the company will only buy Xeons.
    // Family columns are contiguous in the catalog, so the planner's
    // per-block zone maps skip every block without a Xeon.
    use datatrans::dataset::machine::ProcessorFamily;
    let xeon_only = RankRequest {
        app: AppOfInterest::External(synthesize(WorkloadProfile::ServerInteger, 77)),
        model: ModelKind::NnT,
        predictive,
        restrict: MachineFilter::family(ProcessorFamily::Xeon).with_years(2008, u16::MAX),
        top_k: Some(3),
        seed: 77,
        confidence: None,
        approx: None,
    };
    let response = serve_batch(&blocked, &[xeon_only], &ServeConfig::default())
        .pop()
        .expect("one slot")?;
    let response = &response;
    println!(
        "\nXeon-only shortlist (server-integer, NN^T): {} candidates, \
         {} of 8 blocks pruned by family zone maps",
        response.candidates, response.shards_pruned
    );
    for (rank, r) in response.ranked.iter().enumerate() {
        let m = &db.machines()[r.machine];
        println!(
            "  #{} {} {} ({}) — predicted score {:.1}",
            rank + 1,
            m.family,
            m.name,
            m.year,
            r.predicted_score
        );
    }
    Ok(())
}
