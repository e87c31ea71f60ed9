//! `inproc_mixed_ingest`: a closed loop of `serve_batch_cached` rounds on
//! the 1k-machine catalog with ingest beside the reads.
//!
//! Round `b` serves request blocks `b` and `b + 1` (16 requests each), so
//! half of every round repeats the previous round. Before every 4th round
//! 8 machines are pushed, which moves the catalog version and invalidates
//! the cache. One request in 4 carries an `ApproxConfig`, one in 8 a
//! `ConfidenceConfig`, one in 4 asks for MLPᵀ instead of NNᵀ.
//!
//! Rounds run in epochs of 32 that repeat the same requests and pushes:
//! each epoch starts (untimed) from the initial catalog and an empty
//! cache, so every epoch does the same work and a longer run measures more
//! epochs rather than a larger catalog. Epochs are the windows the metrics
//! pick the quietest of, so the pick filters out other tenants' load, not
//! cheaper requests.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use datatrans_core::cache::ResultCache;
use datatrans_core::fingerprint::RequestFingerprint;
use datatrans_core::serve::{
    serve_batch, serve_batch_cached, ModelKind, RankRequest, RankResponse, ServeConfig, ServeError,
};
use datatrans_dataset::database::{MachineIngest, PerfDatabase};
use datatrans_dataset::generator::{generate_scaled, synthesize_ingest, ScaleConfig};

use datatrans_serve_net::protocol::{render_result as render, write_request};

use crate::replay::Replayer;
use crate::report::Report;
use crate::requests::{rank_corr_mean, request, Extras, RANK_CORR_SAMPLE, TOP_K, WARM_SEED};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{more_setups, phase_summary, Args};

/// Requests per request block; a round serves two blocks.
const BLOCK: usize = 16;
/// Machines pushed before every [`PUSH_EVERY`]th round.
const PUSH_MACHINES: usize = 8;
const PUSH_EVERY: usize = 4;
/// Capacity of the result cache.
const CACHE_CAPACITY: usize = 256;
/// Timed rounds per epoch (about a second on a 2-vCPU host).
const EPOCH_ROUNDS: usize = 32;
/// Approx requests whose recall against exact serving is measured.
const RECALL_SAMPLE: usize = 64;
/// Rounds the traced run replays layer by layer.
const TRACE_ROUNDS: usize = 48;
/// Failed responses printed in full.
const MAX_REPORTED: usize = 5;
/// Measurement-noise sigma of pushed machines.
const INGEST_SIGMA: f64 = 0.015;
const DOMAIN: u64 = 0x55;

fn block_request(db: &PerfDatabase, seed: u64, j: usize) -> RankRequest {
    let (model, extras) = match j % 8 {
        3 | 4 => (ModelKind::NnT, Extras::Approx),
        2 => (ModelKind::NnT, Extras::Confidence),
        1 | 6 => (ModelKind::MlpT, Extras::None),
        _ => (ModelKind::NnT, Extras::None),
    };
    request(db, seed, DOMAIN, j, model, extras)
}

fn round_requests(db: &PerfDatabase, seed: u64, block: usize) -> Vec<RankRequest> {
    (block * BLOCK..(block + 2) * BLOCK)
        .map(|j| block_request(db, seed, j))
        .collect()
}

fn ingest_batch(db: &PerfDatabase, seed: u64, block: usize) -> Result<Vec<MachineIngest>, String> {
    synthesize_ingest(
        seed ^ (block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        db.benchmarks(),
        PUSH_MACHINES,
        INGEST_SIGMA,
    )
    .map_err(|e| format!("ingest synthesis failed: {e}"))
}

type Served = Vec<Result<RankResponse, ServeError>>;

/// One served round.
struct Round {
    /// Whether the round starts an epoch: initial catalog, empty cache.
    fresh: bool,
    ingest: Option<Vec<MachineIngest>>,
    requests: Vec<RankRequest>,
    responses: Served,
    hits: u64,
    misses: u64,
    invalidations: u64,
    wall_s: f64,
}

fn serve_round(
    db: &mut PerfDatabase,
    cache: &mut ResultCache,
    config: &ServeConfig,
    fresh: bool,
    ingest: Option<Vec<MachineIngest>>,
    requests: Vec<RankRequest>,
) -> Result<Round, String> {
    let start = Instant::now();
    if let Some(batch) = &ingest {
        db.push_machines(batch)
            .map_err(|e| format!("push failed: {e}"))?;
    }
    let out = serve_batch_cached(&*db, &requests, config, cache);
    Ok(Round {
        fresh,
        ingest,
        requests,
        responses: out.responses,
        hits: out.hits,
        misses: out.misses,
        invalidations: out.invalidations,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

fn recall_at_k(exact: &RankResponse, approx: &RankResponse) -> f64 {
    let hits = approx
        .ranked
        .iter()
        .filter(|a| exact.ranked.iter().any(|e| e.machine == a.machine))
        .count();
    ratio(hits as f64, exact.ranked.len().min(TOP_K) as f64)
}

/// Re-serves every logged round uncached, untimed, on a fresh copy of the
/// catalog with the same pushes, and compares each response bitwise.
/// Returns the failed-response count of each round and the recall@k of
/// the first [`RECALL_SAMPLE`] distinct approx requests against exact
/// serving.
fn verify(
    prototype: &PerfDatabase,
    rounds: &[Round],
    config: &ServeConfig,
) -> (Vec<usize>, Vec<f64>) {
    let mut db = prototype.clone();
    let mut known: HashMap<u64, Result<RankResponse, ServeError>> = HashMap::new();
    let mut recalls = Vec::new();
    let mut recalled: HashSet<u64> = HashSet::new();
    let mut failed = Vec::with_capacity(rounds.len());
    for round in rounds {
        if round.fresh {
            db = prototype.clone();
            known.clear();
        }
        if let Some(batch) = &round.ingest {
            if db.push_machines(batch).is_err() {
                failed.push(round.requests.len());
                continue;
            }
            known.clear();
        }
        let keys: Vec<u64> = round
            .requests
            .iter()
            .map(|r| RequestFingerprint::of(r).as_u64())
            .collect();
        let fresh: Vec<usize> = (0..keys.len())
            .filter(|&i| !known.contains_key(&keys[i]))
            .collect();
        let fresh_requests: Vec<RankRequest> =
            fresh.iter().map(|&i| round.requests[i].clone()).collect();
        for (&i, result) in fresh.iter().zip(serve_batch(&db, &fresh_requests, config)) {
            known.insert(keys[i], result);
        }
        // Exact twins of not-yet-measured approx requests, at this version.
        let mut sample: Vec<(usize, RankRequest)> = Vec::new();
        for (i, r) in round.requests.iter().enumerate() {
            if r.approx.is_some()
                && recalls.len() + sample.len() < RECALL_SAMPLE
                && recalled.insert(keys[i])
            {
                sample.push((
                    i,
                    RankRequest {
                        approx: None,
                        ..r.clone()
                    },
                ));
            }
        }
        let twins: Vec<RankRequest> = sample.iter().map(|(_, r)| r.clone()).collect();
        for ((i, _), exact) in sample.iter().zip(serve_batch(&db, &twins, config)) {
            if let (Ok(exact), Ok(approx)) = (exact, &round.responses[*i]) {
                recalls.push(recall_at_k(&exact, approx));
            }
        }
        let mut bad = 0;
        for ((got, key), request) in round.responses.iter().zip(&keys).zip(&round.requests) {
            let want = known.get(key);
            if got.is_ok() && want == Some(got) {
                continue;
            }
            bad += 1;
            if failed.iter().sum::<usize>() + bad <= MAX_REPORTED {
                println!(
                    "failed response in round {}: request {} got {} expected {}",
                    failed.len(),
                    write_request(request),
                    render(got),
                    want.map_or_else(|| "nothing".to_owned(), render)
                );
            }
        }
        failed.push(bad);
    }
    (failed, recalls)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the catalog cannot be built or a push fails.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let config = ServeConfig::default();
    let catalog = || {
        generate_scaled(&ScaleConfig::default())
            .map_err(|e| format!("catalog generation failed: {e}"))
    };
    let prototype = catalog()?;
    let warm_requests = round_requests(&prototype, WARM_SEED, 0);

    // Set-up: catalog, cache, one warm-up round; several times.
    let mut tracer = Tracer::default();
    let mut setups = Vec::new();
    let mut state = None;
    while more_setups(&setups) {
        drop(state.take());
        let start = Instant::now();
        let mut db = tracer.leaf("dataset.generator.generate", None, 0, catalog)?;
        let mut cache = ResultCache::new(CACHE_CAPACITY);
        let warm = serve_round(
            &mut db,
            &mut cache,
            &config,
            true,
            None,
            warm_requests.clone(),
        )?;
        setups.push(start.elapsed().as_secs_f64());
        state = Some((db, cache, warm));
    }
    let (mut db, mut cache, warm) = state.ok_or("no set-up ran")?;

    // Timed closed loop, in whole epochs. Inputs (requests, ingest
    // batches) are generated and epochs reset before a round's clock
    // starts.
    let epoch: Vec<(Option<Vec<MachineIngest>>, Vec<RankRequest>)> = (0..EPOCH_ROUNDS)
        .map(|block| {
            let ingest = ((block + 1) % PUSH_EVERY == 0)
                .then(|| ingest_batch(&prototype, args.seed, block))
                .transpose()?;
            Ok((ingest, round_requests(&prototype, args.seed, block)))
        })
        .collect::<Result<_, String>>()?;
    let duration = Duration::from_secs_f64(args.seconds);
    let mut rounds = vec![warm];
    let start = Instant::now();
    loop {
        let block = (rounds.len() - 1) % EPOCH_ROUNDS;
        if block == 0 {
            if rounds.len() > 1 && start.elapsed() >= duration {
                break;
            }
            db = prototype.clone();
            cache = ResultCache::new(CACHE_CAPACITY);
        }
        let (ingest, requests) = epoch[block].clone();
        rounds.push(serve_round(
            &mut db,
            &mut cache,
            &config,
            block == 0,
            ingest,
            requests,
        )?);
    }
    let timed = &rounds[1..];

    // Correctness, untimed: the warm-up and first epoch against uncached
    // serving, every later epoch bitwise against the first.
    let (mut failed_per_round, recalls) = verify(&prototype, &rounds[..=EPOCH_ROUNDS], &config);
    for (i, round) in rounds.iter().enumerate().skip(EPOCH_ROUNDS + 1) {
        let twin = 1 + (i - 1) % EPOCH_ROUNDS;
        let differ = round
            .responses
            .iter()
            .zip(&rounds[twin].responses)
            .filter(|(got, want)| got != want)
            .count();
        failed_per_round.push(differ.max(failed_per_round[twin]));
    }
    let attempted: usize = timed.iter().map(|r| r.requests.len()).sum();
    let failed: usize = failed_per_round[1..].iter().sum();
    phase_summary(
        "warm_up",
        warm_requests.len(),
        warm_requests.len() - failed_per_round[0],
        failed_per_round[0],
        None,
        None,
    );
    phase_summary(
        "closed_loop",
        attempted,
        attempted - failed,
        failed,
        None,
        None,
    );
    report.check(
        "every response ok and bitwise-identical to uncached serve_batch at its catalog version",
        failed_per_round.iter().all(|&f| f == 0),
    );
    report.attempted += attempted as u64;
    report.failed += failed as u64;

    // End-to-end metrics over the fastest repetition of each round: every
    // epoch repeats the same rounds from the same state, so a round's
    // fastest run is its cost with the least interference from other
    // tenants of the host.
    let epochs = timed.len() / EPOCH_ROUNDS;
    let fastest_s: Vec<f64> = (0..EPOCH_ROUNDS)
        .map(|k| {
            timed
                .iter()
                .skip(k)
                .step_by(EPOCH_ROUNDS)
                .map(|r| r.wall_s)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let walls = sorted(&fastest_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let p50_ms = percentile(&walls, 50.0).unwrap_or(f64::NAN);
    let p90_ms = percentile(&walls, 90.0).unwrap_or(f64::NAN);
    let qps = ratio((EPOCH_ROUNDS * 2 * BLOCK) as f64, fastest_s.iter().sum());
    let busy_s: f64 = timed.iter().map(|r| r.wall_s).sum();
    let all_qps = ratio((timed.len() * 2 * BLOCK) as f64, busy_s);
    // Ranking quality of the stream's first requests, on the initial
    // catalog.
    let corr_requests: Vec<RankRequest> = (0..RANK_CORR_SAMPLE)
        .map(|j| block_request(&prototype, args.seed, j))
        .collect();
    let (rank_corr_mean, corr_count) = rank_corr_mean(&prototype, &corr_requests, &config);
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    let hits: u64 = timed.iter().map(|r| r.hits).sum();
    let misses: u64 = timed.iter().map(|r| r.misses).sum();
    let invalidations: u64 = timed.iter().map(|r| r.invalidations).sum();
    let approx: Vec<_> = timed
        .iter()
        .flat_map(|r| &r.responses)
        .filter_map(|r| r.as_ref().ok())
        .filter_map(|r| r.approx.map(|a| (a, r.candidates)))
        .collect();
    let pruned = approx.iter().map(|(a, _)| a.short_circuited).sum::<usize>() as f64;
    let considered = approx
        .iter()
        .map(|(a, c)| a.short_circuited + c)
        .sum::<usize>() as f64;
    let recall = mean(&recalls).unwrap_or(f64::NAN);
    let name = &args.workload;
    println!(
        "{name}: {} rounds of {} requests, {} machines pushed; round p50_ms {p50_ms} ms, p90 {p90_ms} ms over each round's fastest of {epochs} epochs",
        timed.len(),
        2 * BLOCK,
        timed.iter().filter(|r| r.ingest.is_some()).count() * PUSH_MACHINES,
    );
    println!(
        "{name}: throughput_qps {qps} 1/s (fastest of {epochs} epochs per round; all rounds: {all_qps} 1/s)"
    );
    println!(
        "{name}: approx_recall_at_k {recall} over {} approx requests (k = {TOP_K})",
        recalls.len()
    );
    println!("{name}: rank_corr_mean {rank_corr_mean} rho over {corr_count} full rankings");
    println!(
        "{name}: setup_s {setup_s} s (median of {} set-ups)",
        setups.len()
    );
    println!(
        "{name}: cache hits {hits} misses {misses} invalidations {invalidations} repeat share {}",
        ratio(hits as f64, (hits + misses) as f64)
    );
    report.set("setup_s", setup_s);
    report.set("p50_ms", p50_ms);
    report.set("throughput_per_s", qps);
    report.set("rank_corr_mean", rank_corr_mean);
    if !args.trace {
        return Ok(());
    }

    // Traced replay of the first rounds: push, cache sync and lookups,
    // evaluation of the misses layer by layer.
    report.set("serve_net.server.wait_us", 0.0);
    report.set("serve_net.server.batch_len_mean", 0.0);
    report.set(
        "core.cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("core.cache.invalidations", invalidations as f64);
    report.set("core.serve.approx_pruned_ratio", ratio(pruned, considered));
    report.set("core.serve.approx_recall_at_k", recall);
    let mut replayer = Replayer::new(&config, tracer);
    let mut replay_db = prototype.clone();
    let mut replay_cache = ResultCache::new(CACHE_CAPACITY);
    let mut mismatches = 0;
    let mut id = 0u64;
    for round in rounds.iter().take(TRACE_ROUNDS + 1) {
        if round.fresh {
            replay_db = prototype.clone();
            replay_cache = ResultCache::new(CACHE_CAPACITY);
        }
        if let Some(batch) = &round.ingest {
            replayer
                .tracer
                .leaf("dataset.database.push", None, id, || {
                    replay_db.push_machines(batch)
                })
                .map_err(|e| format!("push failed: {e}"))?;
        }
        replayer.new_batch();
        replay_cache.sync_version(replay_db.catalog_version());
        for (request, logged) in round.requests.iter().zip(&round.responses) {
            id += 1;
            let root = replayer.tracer.open("core.serve.request", None, id);
            let result = replayer.serve_cached(&replay_db, &mut replay_cache, root, id, request);
            replayer.tracer.close(root, result.is_err());
            replayer.settle(&replay_db);
            mismatches += usize::from(&result != logged);
        }
    }
    report.check("traced replay matches the served rounds", mismatches == 0);
    report.check(
        "traced replay matches serve_one bitwise",
        replayer.mismatches == 0,
    );
    report.set(
        "parallel.fanout_gain",
        replayer.fanout_gain(&replay_db, 2 * BLOCK, 256),
    );
    report.set("trace.overhead_pct", replayer.overhead_pct());
    report.set_span_layers(replayer.tracer.spans());
    Ok(())
}
