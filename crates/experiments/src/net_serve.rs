//! `repro net-serve` — the loopback load driver for the TCP serving
//! front end.
//!
//! Serves the same deterministic synthetic request mix as `repro serve`
//! ([`synth_requests`](crate::serve::synth_requests)), but over real TCP:
//! the driver spawns a [`NetServer`] on a loopback port, fans the request
//! lines across [`ExperimentConfig::net_connections`] closed-loop client
//! threads, and measures end-to-end response latency per request. Every
//! wire response is compared byte-for-byte against the in-process
//! [`serve_batch`] result for the same request — any divergence is a hard
//! driver failure, so a passing run certifies that the protocol layer,
//! the batching window, and the backpressure path do not perturb the
//! determinism contract. Latency percentiles (p50/p99) and throughput are
//! the only non-deterministic outputs.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datatrans_core::serve::serve_batch;
use datatrans_core::CoreError;
use datatrans_dataset::view::DatabaseView;
use datatrans_serve_net::protocol::{render_result, write_request};
use datatrans_serve_net::server::{NetServer, NetServerConfig, ServerStats};

use crate::serve::synth_requests;
use crate::{ExperimentConfig, Result};

/// The net-serve driver's outcome: load-test accounting plus the server's
/// lifetime counters.
#[derive(Debug, Clone)]
pub struct NetServeResult {
    /// Ranking requests sent (and responses verified byte-identical).
    pub requests: usize,
    /// Client connections driven concurrently.
    pub connections: usize,
    /// Median end-to-end latency, microseconds (non-deterministic).
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds
    /// (non-deterministic; nearest-rank, so small runs report the max).
    pub p99_us: f64,
    /// Wall-clock seconds for the whole load run (non-deterministic).
    pub elapsed_secs: f64,
    /// The server's lifetime counters (batches, cache effectiveness, ...).
    pub stats: ServerStats,
}

/// The network front end's configuration at this experiment's budgets.
pub fn net_server_config(config: &ExperimentConfig) -> NetServerConfig {
    NetServerConfig {
        serve: config.serve_config(),
        max_batch: config.net_max_batch,
        window: Duration::from_millis(config.net_window_ms),
        max_inflight: config.net_max_inflight,
        cache_capacity: (config.scaled_trials(config.serve_requests) * 2).max(16),
    }
}

/// Nearest-rank percentile of a sorted sample (`p` in `[0, 100]`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the loopback load driver: spawn the server, fan the synthetic mix
/// across client connections, verify every wire response byte-for-byte
/// against in-process serving, and report latency percentiles.
///
/// # Errors
///
/// Propagates catalog construction and socket failures, and fails hard if
/// any wire response differs from its in-process counterpart.
pub fn run(config: &ExperimentConfig) -> Result<NetServeResult> {
    let db = config.build_database()?;
    let n = config.scaled_trials(config.serve_requests);
    let (requests, _labels) = synth_requests(&db, n, config.serve_top_k, config.seed);
    let serve_config = config.serve_config();

    // The ground truth: in-process serving, rendered exactly as the
    // server renders it on the wire.
    let expected: Vec<String> = serve_batch(&db, &requests, &serve_config)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let db: Arc<dyn DatabaseView + Send + Sync> = Arc::new(db);
    let server = NetServer::spawn(db, "127.0.0.1:0", net_server_config(config))
        .map_err(|e| CoreError::invalid_task(format!("net-serve bind failed: {e}")))?;
    let addr = server.local_addr();

    // Closed-loop clients: connection c owns requests c, c+C, c+2C, ...
    // Each sends one line, waits for the response, records the latency,
    // and checks the bytes.
    let connections = config.net_connections.max(1).min(lines.len().max(1));
    let lines = Arc::new(lines);
    let expected = Arc::new(expected);
    let started = Instant::now();
    let mut clients = Vec::with_capacity(connections);
    for c in 0..connections {
        let lines = Arc::clone(&lines);
        let expected = Arc::clone(&expected);
        clients.push(thread::spawn(
            move || -> std::io::Result<(Vec<f64>, usize)> {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut latencies = Vec::new();
                let mut mismatches = 0;
                for i in (c..lines.len()).step_by(connections) {
                    let sent = Instant::now();
                    stream.write_all(lines[i].as_bytes())?;
                    stream.write_all(b"\n")?;
                    let mut response = String::new();
                    reader.read_line(&mut response)?;
                    latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                    if response.trim_end_matches(['\r', '\n']) != expected[i] {
                        mismatches += 1;
                    }
                }
                Ok((latencies, mismatches))
            },
        ));
    }

    let mut latencies = Vec::with_capacity(lines.len());
    let mut mismatches = 0;
    for client in clients {
        let (client_latencies, client_mismatches) = client
            .join()
            .map_err(|_| CoreError::invalid_task("net-serve client thread panicked".to_owned()))?
            .map_err(|e| CoreError::invalid_task(format!("net-serve client I/O failed: {e}")))?;
        latencies.extend(client_latencies);
        mismatches += client_mismatches;
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let stats = server.join();

    if mismatches > 0 {
        return Err(CoreError::invalid_task(format!(
            "net-serve: {mismatches}/{} wire responses differ from in-process serving",
            lines.len()
        )));
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(NetServeResult {
        requests: lines.len(),
        connections,
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        elapsed_secs,
        stats,
    })
}

impl fmt::Display for NetServeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Net serve: {} ranking queries over {} loopback connections",
            self.requests, self.connections
        )?;
        writeln!(
            f,
            "batching: {} pool passes, largest batch {}; cache: {} hits, {} misses",
            self.stats.batches, self.stats.max_batch_len, self.stats.hits, self.stats.misses
        )?;
        writeln!(
            f,
            "latency: p50 {:.1} us, p99 {:.1} us end-to-end",
            self.p50_us, self.p99_us
        )?;
        writeln!(
            f,
            "throughput: {:.1} queries/s ({:.2}s wall); all wire responses byte-identical to in-process serving",
            self.requests as f64 / self.elapsed_secs.max(1e-9),
            self.elapsed_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_parallel::Parallelism;

    fn quick_net_config() -> ExperimentConfig {
        ExperimentConfig {
            serve_requests: 12,
            net_connections: 2,
            parallelism: Parallelism::Sequential,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn loopback_driver_verifies_byte_identity() {
        let result = run(&quick_net_config()).unwrap();
        // quick scales 12 nominal requests by 0.1 → at least one.
        assert!(result.requests >= 1);
        assert_eq!(result.stats.requests, result.requests as u64);
        assert!(result.p99_us >= result.p50_us);
        let text = result.to_string();
        assert!(text.contains("byte-identical"));
        assert!(text.contains("p50"));
    }

    #[test]
    fn loopback_driver_runs_on_a_blocked_catalog() {
        let config = ExperimentConfig {
            db_shards: Some(8),
            ..quick_net_config()
        };
        let result = run(&config).unwrap();
        assert!(result.requests >= 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sample, 50.0), 2.0);
        assert_eq!(percentile(&sample, 99.0), 4.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
