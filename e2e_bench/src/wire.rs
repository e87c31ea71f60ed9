//! `wire_hot_hits`: a [`NetServer`] with its default configuration on
//! the paper's catalog, serving 64 distinct requests over all three models
//! that set-up warms, so every timed request hits the cache. A Poisson
//! open-loop phase is followed by a pipelined closed-loop saturation
//! phase.

use std::convert::Infallible;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datatrans_core::cache::ResultCache;
use datatrans_core::serve::{serve_batch, ModelKind, RankRequest, ServeConfig};
use datatrans_dataset::database::PerfDatabase;
use datatrans_dataset::generator::{generate, DatasetConfig};
use datatrans_dataset::view::DatabaseView;
use datatrans_serve_net::protocol::{parse_line, render_result, write_request, Command};
use datatrans_serve_net::server::{NetServer, NetServerConfig};

use crate::load::{open_loop, poisson_offsets, saturate, uniform_indices, PhaseResult};
use crate::replay::Replayer;
use crate::report::Report;
use crate::requests::{rank_corr_mean, request, Extras, RANK_CORR_SAMPLE};
use crate::stats::{
    mean, median, percentile, quiet_values, quiet_windows, ratio, sorted, QUIET_SHARE, WINDOWS,
};
use crate::trace::Tracer;
use crate::{more_setups, phase_summary, Args};

/// Distinct requests of the hot set.
const HOT_SET: usize = 64;
/// Arrival rate of the open-loop phase.
const OPEN_RATE: f64 = 1000.0;
/// Share of the run spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.6;
/// Requests per batch when measuring the pool fan-out in a traced run.
const FANOUT_BATCH: usize = 32;
/// Most requests the fan-out measurement batches in a traced run.
const FANOUT_LIMIT: usize = 256;
/// Most open-loop requests replayed in a traced run.
const OPEN_REPLAYS: usize = 1000;

/// Seed domains of the request stream and of each phase's hot-set picks.
const DOMAIN_OPEN: u64 = 0x22;
const DOMAIN_SATURATE: u64 = 0x33;
const DOMAIN_HOT: u64 = 0x44;

fn catalog() -> Result<PerfDatabase, String> {
    generate(&DatasetConfig::default()).map_err(|e| format!("catalog generation failed: {e}"))
}

/// Request `i` of the hot stream; the hot set is its first [`HOT_SET`].
/// Models cycle 5 NNᵀ, 2 MLPᵀ, 1 GA-kNN in every 8.
fn hot_request(db: &PerfDatabase, seed: u64, i: usize) -> RankRequest {
    let model = match i % 8 {
        0..=4 => ModelKind::NnT,
        5 | 6 => ModelKind::MlpT,
        _ => ModelKind::GaKnn,
    };
    request(db, seed, DOMAIN_HOT, i, model, Extras::None)
}

fn wire_line(request: &RankRequest) -> String {
    let mut line = write_request(request);
    line.push('\n');
    line
}

/// Per-phase accounting against the expected response lines: `(ok,
/// failed)`. An `err` line counts as failed even when expected, since no
/// request of this workload should fail.
fn check_phase(phase: &PhaseResult, expected: &[&str]) -> (usize, usize) {
    let ok = phase
        .responses()
        .zip(expected)
        .filter(|(got, want)| got == *want && !got.starts_with("err"))
        .count();
    (ok, phase.sent.max(expected.len()) - ok)
}

fn spawn(db: &Arc<PerfDatabase>) -> io::Result<NetServer> {
    let view: Arc<dyn DatabaseView + Send + Sync> = db.clone();
    NetServer::spawn(view, "127.0.0.1:0", NetServerConfig::default())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the catalog cannot be built or a socket
/// operation fails outright.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let io_err = |e: io::Error| format!("socket error: {e}");
    let serve_config = ServeConfig::default();
    let server_config = NetServerConfig::default();
    // Requests are a pure function of the (deterministic) catalog and the
    // seed, so they are generated once, outside the timed set-up.
    let prototype = catalog()?;
    let hot: Vec<RankRequest> = (0..HOT_SET)
        .map(|i| hot_request(&prototype, args.seed, i))
        .collect();
    let hot_lines: Vec<String> = hot.iter().map(wire_line).collect();
    let zero_offsets = vec![Duration::ZERO; hot_lines.len()];

    // Set-up: catalog, server, warm-up; several times, keeping the last.
    let mut tracer = Tracer::default();
    let mut setups = Vec::new();
    let mut state = None;
    while more_setups(&setups) {
        drop(state.take());
        let start = Instant::now();
        let db = Arc::new(tracer.leaf("dataset.generator.generate", None, 0, catalog)?);
        let server = spawn(&db).map_err(io_err)?;
        let warm = open_loop(server.local_addr(), &hot_lines, &zero_offsets).map_err(io_err)?;
        setups.push(start.elapsed().as_secs_f64());
        state = Some((db, server, warm));
    }
    let (db, server, warm) = state.ok_or("no set-up ran")?;
    let addr = server.local_addr();

    // Timed phases: uniform seeded picks from the hot set.
    let offsets = poisson_offsets(
        args.seed,
        OPEN_RATE,
        Duration::from_secs_f64(args.seconds * OPEN_SHARE),
    );
    let open_picks: Vec<usize> = uniform_indices(args.seed ^ DOMAIN_OPEN, HOT_SET)
        .take(offsets.len())
        .collect();
    let open_lines: Vec<String> = open_picks.iter().map(|&p| hot_lines[p].clone()).collect();
    let open = open_loop(addr, &open_lines, &offsets).map_err(io_err)?;
    let mut picks = uniform_indices(args.seed ^ DOMAIN_SATURATE, HOT_SET);
    let mut saturate_picks = Vec::new();
    let saturated = saturate(
        addr,
        server_config.max_inflight,
        Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE)),
        |_| {
            // `uniform_indices` never ends.
            let pick = picks.next().unwrap_or_default();
            saturate_picks.push(pick);
            hot_lines[pick].clone()
        },
    )
    .map_err(io_err)?;
    let stats = server.join();

    // Correctness: every response byte-for-byte against in-process
    // serving of the hot set, computed untimed.
    let warm_expected: Vec<String> = serve_batch(&*db, &hot, &serve_config)
        .iter()
        .map(render_result)
        .collect();
    let expected = |picks: &[usize]| -> Vec<&str> {
        picks.iter().map(|&p| warm_expected[p].as_str()).collect()
    };
    let open_expected = expected(&open_picks);
    let warm_refs: Vec<&str> = warm_expected.iter().map(String::as_str).collect();
    let (warm_ok, warm_failed) = check_phase(&warm, &warm_refs);
    let (open_ok, open_failed) = check_phase(&open, &open_expected);
    let (saturate_ok, saturate_failed) = check_phase(&saturated, &expected(&saturate_picks));
    phase_summary(
        "warm_up",
        warm.sent,
        warm_ok,
        warm_failed,
        None,
        warm.io_error.as_deref(),
    );
    phase_summary(
        "open_loop",
        open.sent,
        open_ok,
        open_failed,
        Some(&open.lateness_us),
        open.io_error.as_deref(),
    );
    phase_summary(
        "saturate",
        saturated.sent,
        saturate_ok,
        saturate_failed,
        None,
        saturated.io_error.as_deref(),
    );
    report.check(
        "wire responses byte-identical to in-process serve_batch",
        warm_failed + open_failed + saturate_failed == 0,
    );
    report.check("server saw no protocol errors", stats.protocol_errors == 0);
    report.check(
        "every timed request hit the cache",
        stats.misses == warm.sent as u64 && stats.hits == (open.sent + saturated.sent) as u64,
    );
    report.attempted += (open.sent + saturated.sent) as u64;
    report.failed += (open_failed + saturate_failed) as u64;

    // End-to-end metrics, each over the quiet windows of its phase.
    let latencies = sorted(&quiet_values(&open.latencies_us, WINDOWS));
    let p50_ms = percentile(&latencies, 50.0).unwrap_or(f64::NAN) / 1e3;
    let p90_ms = percentile(&latencies, 90.0).unwrap_or(f64::NAN) / 1e3;
    let p99_ms = percentile(&latencies, 99.0).unwrap_or(f64::NAN) / 1e3;
    // Completion rate of windows of responses: responses after a window's
    // first, over the time from its first to its last arrival.
    let completions = |w: &[f64]| ((w.len() - 1) as f64, w[w.len() - 1] - w[0]);
    let busiest = quiet_windows(&saturated.arrivals_s, WINDOWS, |w| {
        let (done, span) = completions(w);
        -ratio(done, span)
    });
    let max_rps = ratio(
        busiest.iter().map(|w| completions(w).0).sum(),
        busiest.iter().map(|w| completions(w).1).sum(),
    );
    // Ranking quality over the hot set's generator run past the hot set.
    let corr_requests: Vec<RankRequest> = (0..RANK_CORR_SAMPLE)
        .map(|i| hot_request(&prototype, args.seed, i))
        .collect();
    let (rank_corr_mean, corr_count) = rank_corr_mean(&*db, &corr_requests, &serve_config);
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    let name = &args.workload;
    println!(
        "{name}: open loop at {OPEN_RATE} rps: p50_ms {p50_ms} ms, p90 {p90_ms} ms, p99 {p99_ms} ms over the {} responses of the quietest {QUIET_SHARE} of {WINDOWS} windows (all {}: p50 {} ms)",
        latencies.len(),
        open.latencies_us.len(),
        median(&open.latencies_us).unwrap_or(f64::NAN) / 1e3
    );
    println!(
        "{name}: saturation: max_rps {max_rps} 1/s (busiest {QUIET_SHARE} of {WINDOWS} windows; all: {saturate_ok} correct responses in {} s)",
        saturated.elapsed_s
    );
    println!("{name}: rank_corr_mean {rank_corr_mean} rho over {corr_count} full rankings");
    println!(
        "{name}: setup_s {setup_s} s (median of {} set-ups)",
        setups.len()
    );
    println!(
        "{name}: server requests {} batches {} hits {} misses {} invalidations {} repeat share {}",
        stats.requests,
        stats.batches,
        stats.hits,
        stats.misses,
        stats.invalidations,
        ratio(stats.hits as f64, stats.requests as f64)
    );
    report.set("setup_s", setup_s);
    report.set("p50_ms", p50_ms);
    report.set("throughput_per_s", max_rps);
    report.set("rank_corr_mean", rank_corr_mean);
    if !args.trace {
        return Ok(());
    }

    // Traced replay: the hot set cold, then the open-loop requests through
    // parse → cache lookup → (evaluate on a miss) → render.
    report.set(
        "serve_net.server.batch_len_mean",
        ratio(stats.requests as f64, stats.batches as f64),
    );
    report.set(
        "core.cache.hit_ratio",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
    );
    report.set("core.cache.invalidations", stats.invalidations as f64);
    let mut replayer = Replayer::new(&serve_config, tracer);
    let mut cache = ResultCache::new(server_config.cache_capacity);
    cache.sync_version(db.catalog_version());
    let mut mismatches = 0;
    let mut id = 0u64;
    for (line, want) in hot_lines.iter().zip(&warm_expected) {
        id += 1;
        let (got, _) = replay_line(&mut replayer, &mut cache, &*db, id, line);
        mismatches += usize::from(got.as_deref() != Some(want.as_str()));
    }
    let mut waits = Vec::new();
    let replays = open.received().min(OPEN_REPLAYS);
    for ((line, want), latency) in open_lines
        .iter()
        .zip(&open_expected)
        .zip(&open.latencies_us)
        .take(replays)
    {
        id += 1;
        let (got, replay_us) = replay_line(&mut replayer, &mut cache, &*db, id, line);
        mismatches += usize::from(got.as_deref() != Some(*want));
        waits.push(latency - replay_us);
    }
    report.check("traced replay matches the wire bytes", mismatches == 0);
    report.check(
        "traced replay matches serve_one bitwise",
        replayer.mismatches == 0,
    );
    report.set("serve_net.server.wait_us", mean(&waits).unwrap_or(f64::NAN));
    report.set(
        "parallel.fanout_gain",
        replayer.fanout_gain(&*db, FANOUT_BATCH, FANOUT_LIMIT),
    );
    report.set("trace.overhead_pct", replayer.overhead_pct());
    report.set("core.serve.approx_pruned_ratio", 0.0);
    report.set("core.serve.approx_recall_at_k", 0.0);
    report.set_span_layers(replayer.tracer.spans());
    Ok(())
}

/// Replays one wire line as the server handles it — parse, fingerprint
/// and cache lookup, evaluation on a miss, render — and returns the
/// rendered line and the replay's time in microseconds.
fn replay_line<D: DatabaseView + ?Sized>(
    replayer: &mut Replayer,
    cache: &mut ResultCache,
    db: &D,
    id: u64,
    line: &str,
) -> (Option<String>, f64) {
    let root = replayer.tracer.open("core.serve.request", None, id);
    let parsed = replayer
        .tracer
        .leaf("serve_net.protocol.parse", Some(root), id, || {
            parse_line(line.trim_end_matches('\n').as_bytes())
        });
    let Ok(Command::Rank(request)) = parsed else {
        replayer.tracer.close(root, true);
        return (None, 0.0);
    };
    let result = replayer.serve_cached(db, cache, root, id, &request);
    let rendered: Result<String, Infallible> =
        replayer
            .tracer
            .leaf("serve_net.protocol.render", Some(root), id, || {
                Ok(render_result(&result))
            });
    replayer.tracer.close(root, result.is_err());
    let us = replayer.tracer.spans()[root].duration_ns() as f64 / 1e3;
    replayer.settle(db);
    (rendered.ok(), us)
}
