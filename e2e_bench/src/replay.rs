//! The traced replay of one ranking request: the serving pipeline
//! (plan → approx → gather → predict → rank → confidence) rebuilt from
//! each layer's public functions, with a span around every call.
//!
//! The replay is checked bitwise against `serve_one` for every request it
//! evaluates, so the per-layer numbers measure the work serving does.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::time::Instant;

use datatrans_core::cache::ResultCache;
use datatrans_core::fingerprint::RequestFingerprint;
use datatrans_core::model::{GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans_core::ranking::Ranking;
use datatrans_core::serve::{
    serve_batch, serve_one, AppOfInterest, ApproxConfig, ApproxReport, ConfidenceConfig,
    MachineRankCi, ModelKind, RankConfidenceReport, RankRequest, RankResponse, RankedMachine,
    ServeConfig, ServeError,
};
use datatrans_core::task::PredictionTask;
use datatrans_core::CoreError;
use datatrans_dataset::bucket::BucketIndex;
use datatrans_dataset::generator::NoiseConfig;
use datatrans_dataset::view::DatabaseView;
use datatrans_linalg::Matrix;
use datatrans_ml::ga::GaConfig;
use datatrans_ml::mlp::MlpConfig;
use datatrans_parallel::Parallelism;
use datatrans_stats::rank::bootstrap_rank_confidence;

use crate::trace::Tracer;

/// Seed domain of the confidence annex's synthetic measurements (the
/// serving engine's constant; the bitwise check against `serve_one`
/// fails if the two ever disagree).
const CONFIDENCE_NOISE_SEED: u64 = 0xC01F_1DE5_CE5E_ED01;

/// Seed domain of the confidence annex's bootstrap replicates.
const CONFIDENCE_BOOTSTRAP_SEED: u64 = 0xC01F_1DE5_CE5E_ED02;

/// The three predictors at a serving configuration's budgets, built the
/// way the serving engine builds them.
struct Models {
    nnt: NnT,
    mlpt: MlpT,
    gaknn: GaKnn,
}

impl Models {
    /// Builds the predictors for `config`.
    fn new(config: &ServeConfig) -> Self {
        Models {
            nnt: NnT::default(),
            mlpt: MlpT {
                config: MlpConfig {
                    epochs: config.mlp_epochs,
                    ..MlpConfig::weka_default(0)
                },
                ..MlpT::default()
            },
            gaknn: GaKnn {
                config: GaKnnConfig {
                    ga: GaConfig {
                        population: config.ga_population,
                        generations: config.ga_generations,
                        parallelism: Parallelism::Sequential,
                        ..GaConfig::default_seeded(0)
                    },
                    ..GaKnnConfig::default()
                },
            },
        }
    }

    /// The predictor for `kind` and the name of its layer's span.
    fn get(&self, kind: ModelKind) -> (&dyn Predictor, &'static str) {
        match kind {
            ModelKind::NnT => (&self.nnt, "core.model.nnt"),
            ModelKind::MlpT => (&self.mlpt, "core.model.mlpt"),
            ModelKind::GaKnn => (&self.gaknn, "core.model.gaknn"),
        }
    }
}

/// Bucket indexes built for one catalog version, keyed like the serving
/// engine's per-batch map by `(n_components, n_buckets)`.
#[derive(Default)]
struct BucketIndexes {
    version: Option<u64>,
    built: HashMap<(usize, usize), BucketIndex>,
}

impl BucketIndexes {
    fn get<D: DatabaseView + ?Sized>(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        request_id: u64,
        view: &D,
        approx: &ApproxConfig,
    ) -> Result<&BucketIndex, ServeError> {
        if self.version != Some(view.catalog_version()) {
            self.built.clear();
            self.version = Some(view.catalog_version());
        }
        match self.built.entry((approx.n_components, approx.n_buckets)) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let index = tracer
                    .leaf("dataset.bucket.build", Some(parent), request_id, || {
                        BucketIndex::build(view, approx.n_components, approx.n_buckets)
                    })
                    .map_err(|e| ServeError::Evaluation(CoreError::Dataset(e)))?;
                Ok(entry.insert(index))
            }
        }
    }
}

fn build_task<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    targets: &[usize],
) -> Result<PredictionTask, ServeError> {
    let task = match &request.app {
        AppOfInterest::Suite(app) => {
            PredictionTask::leave_one_out(view, *app, &request.predictive, targets, request.seed)
        }
        AppOfInterest::External(app) => {
            PredictionTask::external_app(view, app, &request.predictive, targets, request.seed)
        }
    };
    task.map_err(ServeError::Evaluation)
}

/// The approximate path's bucket pruning: coarse-rank the candidate
/// buckets by centroid score with the request's own model and keep the
/// members of the best `probe_buckets`.
fn approx_filter<D: DatabaseView + ?Sized>(
    view: &D,
    request: &RankRequest,
    approx: &ApproxConfig,
    index: &BucketIndex,
    model: &dyn Predictor,
    targets: Vec<usize>,
) -> Result<(Vec<usize>, ApproxReport), ServeError> {
    let mut bucket_ids: Vec<usize> = targets.iter().map(|&m| index.bucket_of(m)).collect();
    bucket_ids.sort_unstable();
    bucket_ids.dedup();
    let buckets_total = bucket_ids.len();
    if buckets_total <= approx.probe_buckets {
        let report = ApproxReport {
            buckets_total,
            buckets_probed: buckets_total,
            short_circuited: 0,
        };
        return Ok((targets, report));
    }
    // The coarse task shares every field with the exact task except its
    // targets, which become the reconstructed bucket centroids.
    let mut coarse = build_task(view, request, &targets[..1])?;
    let train_benchmarks: Vec<usize> = match &request.app {
        AppOfInterest::Suite(app) => (0..view.n_benchmarks()).filter(|b| b != app).collect(),
        AppOfInterest::External(_) => (0..view.n_benchmarks()).collect(),
    };
    coarse.train_target = Matrix::from_fn(train_benchmarks.len(), bucket_ids.len(), |i, j| {
        index.centroid_column(bucket_ids[j])[train_benchmarks[i]]
    });
    coarse.validate().map_err(ServeError::Evaluation)?;
    let scores = model.predict(&coarse).map_err(ServeError::Evaluation)?;
    let mut order: Vec<usize> = (0..buckets_total).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .total_cmp(&scores[a])
            .then_with(|| bucket_ids[a].cmp(&bucket_ids[b]))
    });
    let mut keep: Vec<usize> = order[..approx.probe_buckets]
        .iter()
        .map(|&pos| bucket_ids[pos])
        .collect();
    keep.sort_unstable();
    let before = targets.len();
    let survivors: Vec<usize> = targets
        .into_iter()
        .filter(|&m| keep.binary_search(&index.bucket_of(m)).is_ok())
        .collect();
    let report = ApproxReport {
        buckets_total,
        buckets_probed: approx.probe_buckets,
        short_circuited: before - survivors.len(),
    };
    Ok((survivors, report))
}

fn confidence_report(
    request: &RankRequest,
    confidence: &ConfidenceConfig,
    targets: &[usize],
    predicted: &[f64],
    order: &[usize],
    k: usize,
) -> Result<RankConfidenceReport, ServeError> {
    let noise = NoiseConfig {
        seed: request.seed ^ CONFIDENCE_NOISE_SEED,
        sigma: confidence.sigma,
        repeats: confidence.repeats,
    };
    let samples: Vec<Vec<f64>> = targets
        .iter()
        .zip(predicted)
        .map(|(&machine, &score)| noise.measure(score, 0, machine))
        .collect();
    let rc = bootstrap_rank_confidence(
        &samples,
        confidence.resamples,
        confidence.level,
        request.seed ^ CONFIDENCE_BOOTSTRAP_SEED,
        Parallelism::Sequential,
    )
    .map_err(|e| ServeError::Evaluation(CoreError::Stats(e)))?;
    let ranked = order[..k]
        .iter()
        .map(|&pos| {
            let item = &rc.items[pos];
            MachineRankCi {
                machine: targets[pos],
                rank: item.rank,
                rank_lower: item.rank_lower,
                rank_upper: item.rank_upper,
                score_lower: item.score_lower,
                score_upper: item.score_upper,
                tie_group: rc.ties.group_of[pos],
            }
        })
        .collect();
    let tie_groups = rc
        .ties
        .groups
        .iter()
        .map(|group| group.iter().map(|&pos| targets[pos]).collect())
        .collect();
    Ok(RankConfidenceReport {
        level: confidence.level,
        ranked,
        tie_groups,
    })
}

/// Evaluates one request layer by layer under span `parent`.
fn evaluate_layers<D: DatabaseView + ?Sized>(
    tracer: &mut Tracer,
    parent: usize,
    request_id: u64,
    view: &D,
    request: &RankRequest,
    models: &Models,
    indexes: &mut BucketIndexes,
) -> Result<RankResponse, ServeError> {
    let p = Some(parent);
    let (plan, targets) = tracer.leaf("dataset.query.plan", p, request_id, || {
        let plan = view.plan_machines(&request.restrict);
        let targets: Vec<usize> = plan
            .machines
            .iter()
            .copied()
            .filter(|m| !request.predictive.contains(m))
            .collect();
        if targets.is_empty() {
            Err(ServeError::EmptyCandidates)
        } else {
            Ok((plan, targets))
        }
    })?;
    let (model, model_span) = models.get(request.model);
    let (targets, approx) = match &request.approx {
        None => (targets, None),
        Some(approx) => {
            let index = indexes.get(tracer, parent, request_id, view, approx)?;
            let (survivors, report) = tracer.leaf("core.serve.approx", p, request_id, || {
                approx_filter(view, request, approx, index, model, targets)
            })?;
            (survivors, Some(report))
        }
    };
    let task = tracer.leaf("core.task.gather", p, request_id, || {
        build_task(view, request, &targets)
    })?;
    let predicted = tracer.leaf(model_span, p, request_id, || {
        model.predict(&task).map_err(ServeError::Evaluation)
    })?;
    let k = request.top_k.unwrap_or(targets.len()).min(targets.len());
    let (ranking, ranked) = tracer.leaf("core.ranking.rank", p, request_id, || {
        let ranking = Ranking::from_scores(&predicted).map_err(ServeError::Evaluation)?;
        let ranked: Vec<RankedMachine> = ranking.order()[..k]
            .iter()
            .map(|&pos| RankedMachine {
                machine: targets[pos],
                predicted_score: predicted[pos],
            })
            .collect();
        Ok::<_, ServeError>((ranking, ranked))
    })?;
    let confidence = match &request.confidence {
        None => None,
        Some(cfg) => Some(tracer.leaf("stats.rank.confidence", p, request_id, || {
            confidence_report(request, cfg, &targets, &predicted, ranking.order(), k)
        })?),
    };
    Ok(RankResponse {
        method: model.name(),
        ranked,
        candidates: targets.len(),
        shards_scanned: plan.shards_scanned,
        shards_pruned: plan.shards_pruned,
        confidence,
        approx,
    })
}

/// Replays requests layer by layer and checks each result bitwise
/// against `serve_one` on the same catalog.
pub struct Replayer {
    /// The spans recorded so far.
    pub tracer: Tracer,
    config: ServeConfig,
    models: Models,
    indexes: BucketIndexes,
    /// Evaluations not yet checked against `serve_one`, with their traced
    /// time (s).
    pending: Vec<(RankRequest, Result<RankResponse, ServeError>, f64)>,
    /// Exact requests evaluated, with their untraced `serve_one` time (s).
    pub evaluated: Vec<(RankRequest, f64)>,
    /// Summed traced evaluation time of the requests in `evaluated` (s).
    traced_s: f64,
    /// Replays whose result differed from `serve_one`.
    pub mismatches: usize,
}

impl Replayer {
    /// A replayer at `config`'s model budgets, continuing `tracer`.
    pub fn new(config: &ServeConfig, tracer: Tracer) -> Self {
        Replayer {
            tracer,
            config: config.clone(),
            models: Models::new(config),
            indexes: BucketIndexes::default(),
            pending: Vec::new(),
            evaluated: Vec::new(),
            traced_s: 0.0,
            mismatches: 0,
        }
    }

    /// Starts a new serving batch: bucket indexes are built once per batch,
    /// as `serve_batch` builds them.
    pub fn new_batch(&mut self) {
        self.indexes = BucketIndexes::default();
    }

    /// Evaluates `request` under a `core.serve.evaluate` span (child of
    /// `parent`). The result is checked against `serve_one` by the next
    /// [`Replayer::settle`], which callers run outside their spans.
    pub fn evaluate<D: DatabaseView + ?Sized>(
        &mut self,
        db: &D,
        parent: usize,
        id: u64,
        request: &RankRequest,
    ) -> Result<RankResponse, ServeError> {
        let span = self.tracer.open("core.serve.evaluate", Some(parent), id);
        let result = evaluate_layers(
            &mut self.tracer,
            span,
            id,
            db,
            request,
            &self.models,
            &mut self.indexes,
        );
        self.tracer.close(span, result.is_err());
        let traced_s = self.tracer.spans()[span].duration_ns() as f64 / 1e9;
        self.pending
            .push((request.clone(), result.clone(), traced_s));
        result
    }

    /// Serves `request` as `serve_batch_cached` does — fingerprint and
    /// cache lookup under a `core.cache.lookup` span, then on a miss a
    /// traced evaluation whose response is inserted — as children of span
    /// `parent`.
    pub fn serve_cached<D: DatabaseView + ?Sized>(
        &mut self,
        db: &D,
        cache: &mut ResultCache,
        parent: usize,
        id: u64,
        request: &RankRequest,
    ) -> Result<RankResponse, ServeError> {
        let looked_up: Result<_, Infallible> =
            self.tracer.leaf("core.cache.lookup", Some(parent), id, || {
                let fingerprint = RequestFingerprint::of(request);
                Ok((fingerprint, cache.lookup(fingerprint, request)))
            });
        let Ok((fingerprint, hit)) = looked_up;
        if let Some(response) = hit {
            return Ok(response);
        }
        let result = self.evaluate(db, parent, id, request);
        if let Ok(response) = &result {
            cache.insert(fingerprint, request, response);
        }
        result
    }

    /// Serves every request evaluated since the last call through
    /// `serve_one` (untraced, timed) on `db` and compares the results
    /// bitwise.
    pub fn settle<D: DatabaseView + ?Sized>(&mut self, db: &D) {
        for (request, result, traced_s) in std::mem::take(&mut self.pending) {
            let start = Instant::now();
            let reference = serve_one(db, &request, &self.config);
            let untraced_s = start.elapsed().as_secs_f64();
            if reference != result {
                self.mismatches += 1;
            }
            // `serve_one` builds an approx request's bucket index on every
            // call, the replay once per batch: only exact requests compare.
            if request.approx.is_none() {
                self.evaluated.push((request, untraced_s));
                self.traced_s += traced_s;
            }
        }
    }

    /// Tracing overhead: traced over untraced evaluation time of the same
    /// exact requests, minus one, in percent. The untraced call runs second
    /// and finds the request's data in cache, so this errs high.
    pub fn overhead_pct(&self) -> f64 {
        let untraced: f64 = self.evaluated.iter().map(|(_, s)| s).sum();
        if untraced > 0.0 {
            (self.traced_s / untraced - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// The pool fan-out gain: summed per-request `serve_one` time over
    /// the wall time of `serve_batch` on the same requests, in batches of
    /// `batch` (at most `limit` requests).
    pub fn fanout_gain<D: DatabaseView + ?Sized>(&self, db: &D, batch: usize, limit: usize) -> f64 {
        let evaluated = &self.evaluated[..self.evaluated.len().min(limit)];
        let mut batch_s = 0.0;
        for chunk in evaluated.chunks(batch.max(1)) {
            let requests: Vec<RankRequest> = chunk.iter().map(|(r, _)| r.clone()).collect();
            let start = Instant::now();
            std::hint::black_box(serve_batch(db, &requests, &self.config));
            batch_s += start.elapsed().as_secs_f64();
        }
        let sequential_s: f64 = evaluated.iter().map(|(_, s)| s).sum();
        if batch_s > 0.0 {
            sequential_s / batch_s
        } else {
            0.0
        }
    }
}
