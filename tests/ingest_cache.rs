//! The streaming-ingest and result-cache contract:
//!
//! * a catalog grown through `push_machines` — on every block layout, in
//!   any batch split — is **bitwise-identical** to the same catalog built
//!   at once, through every `DatabaseView` accessor and every model's
//!   served rankings, at any thread count;
//! * request fingerprints are injective over the synthetic request corpus
//!   and pinned against drift by golden values;
//! * cache hits are bitwise-identical to cold evaluation across thread
//!   counts, block layouts, and batch orderings (including mixed hit/miss
//!   batches), and a catalog-version move invalidates every entry.

use datatrans::core::cache::ResultCache;
use datatrans::core::fingerprint::RequestFingerprint;
use datatrans::core::serve::{
    serve_batch, serve_batch_cached, AppOfInterest, ConfidenceConfig, ModelKind, RankRequest,
    RankResponse, ServeConfig, ServeError,
};
use datatrans::dataset::database::{MachineIngest, PerfDatabase};
use datatrans::dataset::generator::{
    generate, generate_scaled, synthesize_ingest, DatasetConfig, ScaleConfig,
};
use datatrans::dataset::machine::ProcessorFamily;
use datatrans::dataset::query::MachineFilter;
use datatrans::dataset::view::DatabaseView;
use datatrans::dataset::DatasetError;
use datatrans::experiments::serve::synth_requests;
use datatrans::parallel::Parallelism;

fn quick_config(parallelism: Parallelism) -> ServeConfig {
    ServeConfig {
        parallelism,
        ..ServeConfig::quick()
    }
}

/// Unwraps a fault-isolated batch in which every slot must have served.
fn ok_all(slots: Vec<Result<RankResponse, ServeError>>, what: &str) -> Vec<RankResponse> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|e| panic!("{what}: slot {i} failed: {e}")))
        .collect()
}

/// Bitwise comparison of two response slices: every field, scores by bit
/// pattern, including the optional rank-confidence annex.
fn assert_responses_bitwise_eq(a: &[RankResponse], b: &[RankResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.method, y.method, "{what}: response {i} method");
        assert_eq!(x.candidates, y.candidates, "{what}: response {i}");
        assert_eq!(x.ranked.len(), y.ranked.len(), "{what}: response {i}");
        for (j, (r, s)) in x.ranked.iter().zip(&y.ranked).enumerate() {
            assert_eq!(r.machine, s.machine, "{what}: response {i} rank {j}");
            assert_eq!(
                r.predicted_score.to_bits(),
                s.predicted_score.to_bits(),
                "{what}: response {i} rank {j} score"
            );
        }
        match (&x.confidence, &y.confidence) {
            (None, None) => {}
            (Some(cx), Some(cy)) => {
                assert_eq!(
                    cx.level.to_bits(),
                    cy.level.to_bits(),
                    "{what}: response {i} confidence level"
                );
                assert_eq!(
                    cx.tie_groups, cy.tie_groups,
                    "{what}: response {i} tie groups"
                );
                assert_eq!(cx.ranked.len(), cy.ranked.len(), "{what}: response {i}");
                for (j, (u, v)) in cx.ranked.iter().zip(&cy.ranked).enumerate() {
                    assert_eq!(u.machine, v.machine, "{what}: ci {i}.{j} machine");
                    assert_eq!(u.tie_group, v.tie_group, "{what}: ci {i}.{j} group");
                    for (name, p, q) in [
                        ("rank", u.rank, v.rank),
                        ("rank_lower", u.rank_lower, v.rank_lower),
                        ("rank_upper", u.rank_upper, v.rank_upper),
                        ("score_lower", u.score_lower, v.score_lower),
                        ("score_upper", u.score_upper, v.score_upper),
                    ] {
                        assert_eq!(p.to_bits(), q.to_bits(), "{what}: ci {i}.{j} {name}");
                    }
                }
            }
            _ => panic!("{what}: response {i} confidence presence differs"),
        }
    }
}

/// Strips plan accounting for cross-layout comparison (rankings must be
/// identical; block counts legitimately differ).
fn rankings_only(responses: &[RankResponse]) -> Vec<RankResponse> {
    responses
        .iter()
        .map(|r| RankResponse {
            shards_scanned: 0,
            shards_pruned: 0,
            ..r.clone()
        })
        .collect()
}

/// The last `n` columns of `db` as an ingest batch (metadata + exact
/// stored score bits).
fn tail_as_ingest(db: &PerfDatabase, n: usize) -> Vec<MachineIngest> {
    (db.n_machines() - n..db.n_machines())
        .map(|m| MachineIngest {
            machine: db.machines()[m].clone(),
            scores: (0..db.n_benchmarks()).map(|b| db.score(b, m)).collect(),
        })
        .collect()
}

/// The first `keep` columns of `db` as a standalone single-block database.
fn prefix_database(db: &PerfDatabase, keep: usize) -> PerfDatabase {
    let mut scores = Vec::with_capacity(db.n_benchmarks() * keep);
    for b in 0..db.n_benchmarks() {
        scores.extend((0..keep).map(|m| db.score(b, m)));
    }
    PerfDatabase::new(
        db.benchmarks().to_vec(),
        db.machines()[..keep].to_vec(),
        scores,
    )
    .expect("prefix slice is a valid database")
}

/// Every `DatabaseView` accessor of `grown` against `reference`, bitwise.
fn assert_views_bitwise_eq(grown: &dyn DatabaseView, reference: &dyn DatabaseView, what: &str) {
    assert_eq!(grown.n_benchmarks(), reference.n_benchmarks(), "{what}");
    assert_eq!(grown.n_machines(), reference.n_machines(), "{what}");
    assert_eq!(grown.machines(), reference.machines(), "{what}: metadata");
    assert_eq!(grown.benchmarks().len(), reference.benchmarks().len());
    for b in 0..reference.n_benchmarks() {
        for m in 0..reference.n_machines() {
            assert_eq!(
                grown.score(b, m).to_bits(),
                reference.score(b, m).to_bits(),
                "{what}: score ({b}, {m})"
            );
        }
    }
    for m in 0..reference.n_machines() {
        assert_eq!(
            grown.machine_column(m).to_vec(),
            reference.machine_column(m).to_vec(),
            "{what}: column {m}"
        );
    }
    let rows: Vec<usize> = (0..reference.n_benchmarks()).collect();
    let cols: Vec<usize> = (0..reference.n_machines()).step_by(7).collect();
    let a = grown.gather(&rows, &cols);
    let b = reference.gather(&rows, &cols);
    assert_eq!(a.shape(), b.shape(), "{what}: gather shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "{what}: gather");
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

#[test]
fn fingerprints_are_distinct_over_the_request_corpus() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let (requests, _) = synth_requests(&db, 48, 5, 42);
    let mut seen = std::collections::HashSet::new();
    for (i, request) in requests.iter().enumerate() {
        assert!(
            seen.insert(RequestFingerprint::of(request).as_u64()),
            "request {i} collides with an earlier fingerprint"
        );
    }
    assert_eq!(seen.len(), 48);
}

#[test]
fn fingerprints_match_pinned_golden_values() {
    // Pinned digests: if the mixing scheme drifts, externally persisted
    // cache keys would silently orphan — this test makes drift loud.
    let suite = RankRequest {
        app: AppOfInterest::Suite(3),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::family(ProcessorFamily::Xeon),
        top_k: Some(5),
        seed: 7,
        confidence: None,
        approx: None,
    };
    let unrestricted = RankRequest {
        app: AppOfInterest::Suite(0),
        model: ModelKind::GaKnn,
        predictive: vec![],
        restrict: MachineFilter::all(),
        top_k: None,
        seed: 0,
        confidence: None,
        approx: None,
    };
    let subset = RankRequest {
        app: AppOfInterest::Suite(11),
        model: ModelKind::MlpT,
        predictive: vec![1, 2, 3],
        restrict: MachineFilter::years(2007, 2009).with_subset(vec![5, 10, 15]),
        top_k: Some(2),
        seed: 0xDEAD_BEEF,
        confidence: None,
        approx: None,
    };
    assert_eq!(
        RequestFingerprint::of(&suite).as_u64(),
        0xED9C_4B62_9836_8DFF,
        "suite request digest drifted"
    );
    assert_eq!(
        RequestFingerprint::of(&unrestricted).as_u64(),
        0x1EA9_58A3_9997_1F62,
        "unrestricted request digest drifted"
    );
    assert_eq!(
        RequestFingerprint::of(&subset).as_u64(),
        0x573A_6B2E_5CBC_2531,
        "subset request digest drifted"
    );
}

// ---------------------------------------------------------------------
// Ingest equivalence
// ---------------------------------------------------------------------

#[test]
fn dense_incremental_growth_is_bitwise_equal_to_built_at_once() {
    let full = generate_scaled(&ScaleConfig {
        n_machines: 120,
        ..ScaleConfig::default()
    })
    .expect("scaled dataset");
    let mut grown = prefix_database(&full, 90);
    let tail = tail_as_ingest(&full, 30);
    grown.push_machines(&tail[..12]).expect("first batch");
    grown.push_machines(&tail[12..]).expect("second batch");
    assert_eq!(grown.catalog_version(), 2);
    assert_views_bitwise_eq(&grown, &full, "dense incremental");
}

#[test]
fn blocked_incremental_growth_matches_single_block_for_every_model() {
    let full = generate_scaled(&ScaleConfig {
        n_machines: 120,
        ..ScaleConfig::default()
    })
    .expect("scaled dataset");
    let tail = tail_as_ingest(&full, 30);
    let requests: Vec<RankRequest> = ModelKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &model)| RankRequest {
            app: AppOfInterest::Suite(i),
            model,
            predictive: vec![0, 40, 80],
            restrict: MachineFilter::all(),
            top_k: Some(6),
            seed: 21 + i as u64,
            confidence: None,
            approx: None,
        })
        .collect();
    // Every model's served rankings, honouring DATATRANS_THREADS via
    // Parallelism::Auto, must match the single-block built-at-once catalog.
    let config = quick_config(Parallelism::Auto);
    let on_full = ok_all(
        serve_batch(&full, &requests, &config),
        "built-at-once serve",
    );
    let threshold = full.score(2, 60);

    for mut grown in prefix_database(&full, 90).layout_sweep().expect("layouts") {
        let n_blocks = grown.blocks().len();
        let what = format!("{n_blocks}-block incremental");
        grown.push_machines(&tail[..10]).expect("first batch");
        grown.push_machines(&tail[10..]).expect("second batch");
        assert_eq!(grown.blocks().len(), n_blocks, "{what}: the tail absorbs");
        assert_eq!(grown.catalog_version(), 2);
        assert_views_bitwise_eq(&grown, &full, &what);

        // Planner equivalence on the grown layout: pruned plans must list
        // exactly the machines a full scan finds.
        for filter in [
            MachineFilter::all(),
            MachineFilter::family(ProcessorFamily::Xeon),
            MachineFilter::years(2005, 2008),
            MachineFilter::all().with_min_score(2, threshold),
            MachineFilter::all().with_subset((0..120).step_by(9).collect()),
        ] {
            let plan = grown.plan_machines(&filter);
            let full_plan = full.plan_machines(&filter);
            assert_eq!(plan.machines, full_plan.machines, "{what}: {filter:?}");
        }

        let on_grown = ok_all(serve_batch(&grown, &requests, &config), &what);
        assert_responses_bitwise_eq(&rankings_only(&on_full), &rankings_only(&on_grown), &what);
    }
}

#[test]
fn synthesized_ingest_is_split_invariant_on_both_backings() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let batch = synthesize_ingest(3, db.benchmarks(), 12, 0.015).expect("batch");
    let mut reference = db.clone();
    reference.push_machines(&batch).expect("push");

    for layout in db.layout_sweep().expect("layouts") {
        let what = format!("{} blocks", layout.blocks().len());
        let mut at_once = layout.clone();
        at_once.push_machines(&batch).expect("push");
        let mut chunked = layout;
        for chunk in batch.chunks(5) {
            chunked.push_machines(chunk).expect("push chunk");
        }
        assert_eq!(at_once.catalog_version(), 1);
        assert_eq!(chunked.catalog_version(), 3);
        assert_views_bitwise_eq(&chunked, &at_once, &format!("{what}: chunked vs at once"));
        assert_views_bitwise_eq(&at_once, &reference, &format!("{what}: vs one block"));
    }
}

#[test]
fn empty_and_invalid_pushes_behave_on_both_backings() {
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let short = MachineIngest {
        machine: db.machines()[0].clone(),
        scores: vec![1.0; 28],
    };
    let negative = MachineIngest {
        machine: db.machines()[0].clone(),
        scores: vec![-1.0; 29],
    };
    for mut layout in db.layout_sweep().expect("layouts") {
        let before = layout.clone();
        layout.push_machines(&[]).expect("empty push");
        assert_eq!(layout.catalog_version(), 0, "empty push must not bump");
        assert_eq!(
            layout.push_machines(std::slice::from_ref(&short)),
            Err(DatasetError::BenchmarkCountMismatch {
                expected: 29,
                got: 28
            })
        );
        assert!(matches!(
            layout.push_machines(std::slice::from_ref(&negative)),
            Err(DatasetError::InvalidConfig { name: "scores", .. })
        ));
        assert_eq!(
            layout, before,
            "failed pushes must leave the catalog unchanged"
        );
    }
}

// ---------------------------------------------------------------------
// Cache-hit identity
// ---------------------------------------------------------------------

/// A small mixed request set (all three models, several restriction
/// shapes) kept cheap enough to serve repeatedly.
fn cache_request_mix(db: &dyn DatabaseView) -> Vec<RankRequest> {
    let threshold = db.score(4, 58);
    vec![
        RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 11,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(7),
            model: ModelKind::MlpT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::years(2007, 2009),
            top_k: Some(3),
            seed: 12,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(3),
            model: ModelKind::GaKnn,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::all().with_min_score(4, threshold),
            top_k: Some(4),
            seed: 13,
            confidence: None,
            approx: None,
        },
        RankRequest {
            app: AppOfInterest::Suite(15),
            model: ModelKind::NnT,
            predictive: vec![0, 25, 50],
            restrict: MachineFilter::all(),
            top_k: Some(10),
            seed: 14,
            confidence: None,
            approx: None,
        },
    ]
}

#[test]
fn cache_hits_are_bitwise_identical_across_threads_backings_and_orderings() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let requests = cache_request_mix(&dense);
    let reference = ok_all(
        serve_batch(&dense, &requests, &quick_config(Parallelism::Sequential)),
        "cold reference",
    );

    for layout in dense.layout_sweep().expect("layouts") {
        let view = &layout;
        for threads in [1usize, 4] {
            let config = quick_config(Parallelism::Threads(threads));
            let what = format!("{} blocks @ {threads} threads", layout.blocks().len());
            let mut cache = ResultCache::new(16);
            let cold = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((cold.hits, cold.misses), (0, 4), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(cold.responses, &what)),
                &format!("{what}: cold"),
            );
            let warm = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((warm.hits, warm.misses), (4, 0), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(warm.responses, &what)),
                &format!("{what}: warm"),
            );

            // Permuted batch through the warm cache: responses permute
            // with the requests, still bitwise-identical.
            let order = [2usize, 0, 3, 1];
            let permuted: Vec<RankRequest> = order.iter().map(|&i| requests[i].clone()).collect();
            let served = serve_batch_cached(view, &permuted, &config, &mut cache);
            assert_eq!((served.hits, served.misses), (4, 0), "{what}");
            let expected: Vec<RankResponse> = order.iter().map(|&i| reference[i].clone()).collect();
            assert_responses_bitwise_eq(
                &rankings_only(&expected),
                &rankings_only(&ok_all(served.responses, &what)),
                &format!("{what}: permuted warm"),
            );

            // Mixed hit/miss batch: a half-warmed cache serves two
            // requests from storage and evaluates two cold, in one batch.
            let mut half = ResultCache::new(16);
            let firsts: Vec<RankRequest> = requests[..2].to_vec();
            serve_batch_cached(view, &firsts, &config, &mut half);
            let mixed = serve_batch_cached(view, &requests, &config, &mut half);
            assert_eq!((mixed.hits, mixed.misses), (2, 2), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(mixed.responses, &what)),
                &format!("{what}: mixed hit/miss"),
            );
        }
    }
}

#[test]
fn version_move_invalidates_and_reserves_against_the_grown_catalog() {
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let requests = cache_request_mix(&dense);
    let config = quick_config(Parallelism::Sequential);
    let batch = synthesize_ingest(17, dense.benchmarks(), 6, 0.015).expect("ingest");
    for mut layout in dense.layout_sweep().expect("layouts") {
        let what = format!("{} blocks", layout.blocks().len());
        let mut cache = ResultCache::new(16);
        let cold = serve_batch_cached(&layout, &requests, &config, &mut cache);
        let cold_responses = ok_all(cold.responses, "cold");

        layout.push_machines(&batch).expect("push");

        let post = serve_batch_cached(&layout, &requests, &config, &mut cache);
        assert_eq!(
            post.invalidations, 4,
            "{what}: every resident entry dropped"
        );
        assert_eq!(
            (post.hits, post.misses),
            (0, 4),
            "{what}: nothing stale served"
        );
        let post_responses = ok_all(post.responses, "post");
        // The unrestricted request now sees the grown candidate set.
        assert_eq!(
            post_responses[3].candidates,
            cold_responses[3].candidates + batch.len()
        );
        // And the grown responses match a cold evaluation against the grown
        // catalog exactly.
        let fresh = ok_all(serve_batch(&layout, &requests, &config), "fresh");
        assert_responses_bitwise_eq(&fresh, &post_responses, &what);
    }
}

// ---------------------------------------------------------------------
// Confidence annex: fingerprint injectivity and cache identity
// ---------------------------------------------------------------------

#[test]
fn confidence_fingerprints_never_collide_with_plain_requests() {
    // The optional confidence block is domain-tagged: a confidence-bearing
    // request must be distinct from every plain request in the corpus and
    // from every variation of its own confidence fields.
    let db = generate(&DatasetConfig::default()).expect("dataset");
    let (plain, _) = synth_requests(&db, 24, 5, 42);
    let mut corpus = plain.clone();
    for request in &plain {
        for confidence in [
            ConfidenceConfig::default(),
            ConfidenceConfig {
                level: 0.9,
                ..ConfidenceConfig::default()
            },
            ConfidenceConfig {
                sigma: 0.03,
                ..ConfidenceConfig::default()
            },
            ConfidenceConfig {
                resamples: 64,
                ..ConfidenceConfig::default()
            },
        ] {
            corpus.push(RankRequest {
                confidence: Some(confidence),
                ..request.clone()
            });
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (i, request) in corpus.iter().enumerate() {
        assert!(
            seen.insert(RequestFingerprint::of(request).as_u64()),
            "request {i} collides with an earlier fingerprint"
        );
    }
    assert_eq!(seen.len(), 24 * 5);
}

#[test]
fn confidence_cache_hits_are_bitwise_identical_to_cold_evaluation() {
    // Warm-vs-cold identity for confidence-bearing requests: the annex
    // (rank CIs, tie groups) is stored verbatim and replayed bitwise, on
    // every block layout, at either pinned thread count.
    let dense = generate(&DatasetConfig::default()).expect("dataset");
    let mut requests = cache_request_mix(&dense);
    for request in &mut requests {
        request.confidence = Some(ConfidenceConfig {
            repeats: 4,
            resamples: 60,
            ..ConfidenceConfig::default()
        });
    }
    let reference = ok_all(
        serve_batch(&dense, &requests, &quick_config(Parallelism::Sequential)),
        "confidence reference",
    );
    assert!(
        reference.iter().all(|r| r.confidence.is_some()),
        "every response carries the annex"
    );

    for layout in dense.layout_sweep().expect("layouts") {
        let view = &layout;
        for threads in [1usize, 4] {
            let config = quick_config(Parallelism::Threads(threads));
            let what = format!(
                "confidence {} blocks @ {threads} threads",
                layout.blocks().len()
            );
            let mut cache = ResultCache::new(16);
            let cold = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((cold.hits, cold.misses), (0, 4), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(cold.responses, &what)),
                &format!("{what}: cold"),
            );
            let warm = serve_batch_cached(view, &requests, &config, &mut cache);
            assert_eq!((warm.hits, warm.misses), (4, 0), "{what}");
            assert_responses_bitwise_eq(
                &rankings_only(&reference),
                &rankings_only(&ok_all(warm.responses, &what)),
                &format!("{what}: warm"),
            );
        }
    }
}
