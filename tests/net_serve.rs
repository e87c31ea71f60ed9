//! The network front end's contract:
//!
//! * wire responses are **byte-identical** to in-process
//!   `serve_batch` for the same requests — across thread counts
//!   (`DATATRANS_THREADS` via `Parallelism::Auto`; CI runs this suite at
//!   1 and 4), across block layouts, and across the batching window's
//!   coalescing schedule;
//! * malformed input never panics the server, never kills the
//!   connection, and never desynchronizes the one-response-per-line
//!   protocol: a seeded fuzz corpus (random bytes, truncated requests,
//!   non-UTF-8, huge `top_k`, unknown model names) gets exactly one
//!   typed line back per line sent, and a valid request afterwards still
//!   serves byte-identically;
//! * per-connection backpressure and graceful drain preserve ordering
//!   and completeness under pipelining;
//! * a panic inside a serving pass answers that window with typed
//!   `err invariant` lines and the server keeps serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use datatrans::core::serve::{
    serve_batch, AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest, ServeConfig,
};
use datatrans::dataset::benchmark::Benchmark;
use datatrans::dataset::database::PerfDatabase;
use datatrans::dataset::generator::{generate, DatasetConfig};
use datatrans::dataset::machine::Machine;
use datatrans::dataset::query::{MachineFilter, QueryPlan};
use datatrans::dataset::view::DatabaseView;
use datatrans::experiments::serve::synth_requests;
use datatrans::linalg::{Matrix, VecView};
use datatrans::parallel::Parallelism;
use datatrans::serve_net::{parse_line, render_result, write_request, NetServer, NetServerConfig};
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

fn quick_net_config(parallelism: Parallelism) -> NetServerConfig {
    NetServerConfig {
        serve: ServeConfig {
            parallelism,
            ..ServeConfig::quick()
        },
        ..NetServerConfig::quick()
    }
}

fn dense_db() -> Arc<dyn DatabaseView + Send + Sync> {
    Arc::new(generate(&DatasetConfig::default()).unwrap())
}

/// The synthetic mixed-model request mix, plus one confidence-annotated
/// request so the CI annex crosses the wire too.
fn request_mix(db: &dyn DatabaseView) -> Vec<RankRequest> {
    let (mut requests, _labels) = synth_requests(db, 8, 5, 42);
    requests.push(RankRequest {
        app: AppOfInterest::Suite(2),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(6),
        seed: 11,
        confidence: Some(ConfidenceConfig {
            repeats: 4,
            resamples: 50,
            ..ConfidenceConfig::default()
        }),
        approx: None,
    });
    requests.push(RankRequest {
        app: AppOfInterest::Suite(4),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(6),
        seed: 13,
        confidence: None,
        approx: Some(ApproxConfig {
            n_components: 2,
            n_buckets: 8,
            probe_buckets: 3,
        }),
    });
    requests
}

/// Opens a client connection whose reads fail after a generous timeout,
/// so a server that stops answering fails the test instead of hanging it.
fn connect(server: &NetServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Sends `lines` pipelined over one connection and returns one response
/// line per request line.
fn exchange(server: &NetServer, lines: &[String]) -> Vec<String> {
    let (mut stream, mut reader) = connect(server);
    for line in lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    let mut responses = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "connection closed early after {} responses",
            responses.len()
        );
        responses.push(response.trim_end().to_owned());
    }
    responses
}

#[test]
fn wire_responses_byte_identical_to_in_process_serving() {
    // Parallelism::Auto honours DATATRANS_THREADS: CI runs this test at
    // thread counts 1 and 4 and the wire bytes must not move.
    let db = dense_db();
    let config = quick_net_config(Parallelism::Auto);
    let requests = request_mix(&*db);
    let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let got = exchange(&server, &lines);
    assert_eq!(got, expected, "wire vs in-process (pipelined, one conn)");
    // Same lines again: cache hits must produce the same bytes.
    let again = exchange(&server, &lines);
    assert_eq!(again, expected, "wire vs in-process (warm cache)");
    let stats = server.join();
    assert_eq!(stats.requests, 2 * requests.len() as u64);
    assert_eq!(stats.hits, requests.len() as u64);
}

/// Blanks the `shards=<scanned>/<pruned>` token: planner telemetry is
/// layout-dependent by design (one block is always scanned; several
/// blocks are scanned or pruned), while everything else on the line is
/// pinned.
fn blank_shard_telemetry(line: &str) -> String {
    line.split(' ')
        .map(|token| {
            if token.starts_with("shards=") {
                "shards=_"
            } else {
                token
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn wire_bytes_identical_across_explicit_thread_counts_and_backings() {
    let dense = generate(&DatasetConfig::default()).unwrap();
    let requests = request_mix(&dense);
    let lines: Vec<String> = requests.iter().map(write_request).collect();
    let layouts = dense.layout_sweep().unwrap();

    let baseline = {
        let server = NetServer::spawn(
            Arc::new(dense),
            "127.0.0.1:0",
            quick_net_config(Parallelism::Sequential),
        )
        .unwrap();
        exchange(&server, &lines)
    };
    for response in &baseline {
        assert!(response.starts_with("ok "), "mix must serve: {response}");
    }
    // Rankings, scores, candidate counts, and the confidence annex are
    // bitwise-pinned across thread counts and block layouts; only the
    // block scan/prune telemetry reflects the physical layout.
    let normalize = |responses: &[String]| -> Vec<String> {
        responses.iter().map(|r| blank_shard_telemetry(r)).collect()
    };
    for layout in layouts {
        let n_blocks = layout.blocks().len();
        let server = NetServer::spawn(
            Arc::new(layout),
            "127.0.0.1:0",
            quick_net_config(Parallelism::Threads(4)),
        )
        .unwrap();
        let threaded = exchange(&server, &lines);
        assert_eq!(
            normalize(&baseline),
            normalize(&threaded),
            "sequential/one block vs 4-thread/{n_blocks}-block wire bytes"
        );
    }
}

/// Builds the seeded fuzz corpus: hostile fixed cases plus random
/// mutations. Every entry is newline-free so it travels as one line.
fn fuzz_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = vec![
        // Non-UTF-8.
        vec![0xFF, 0xFE, 0x80, 0x81],
        // Unknown command and unknown model.
        b"launch missiles".to_vec(),
        b"rank model=resnet app=suite:0 predictive=0".to_vec(),
        // Huge top_k: overflows usize -> typed bad-value.
        b"rank model=nnt app=suite:0 predictive=0 top_k=99999999999999999999".to_vec(),
        // Huge but representable top_k: parses, serves (clamped ranking).
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=999999 seed=1".to_vec(),
        // Unknown benchmark name territory: suite index out of range.
        b"rank model=nnt app=suite:4096 predictive=0,30,60".to_vec(),
        // Zero top_k: typed serve error.
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=0".to_vec(),
        // Wrong-arity external vector.
        b"rank model=nnt app=external:1,2,3 predictive=0".to_vec(),
        // NaN smuggling.
        b"rank model=nnt app=external:NaN,0,0,0,0,0,0,0,0,0,0,0 predictive=0".to_vec(),
        // Duplicate and missing attributes.
        b"rank model=nnt model=nnt app=suite:0 predictive=0".to_vec(),
        b"rank app=suite:0 predictive=0".to_vec(),
        // Malformed approx triples: wrong arity, non-numeric, negative.
        b"rank model=nnt app=suite:0 predictive=0 approx=2,8".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=2,8,3,1".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=a,b,c".to_vec(),
        b"rank model=nnt app=suite:0 predictive=0 approx=-1,8,3".to_vec(),
        // Well-formed approx triple with out-of-domain values: parses,
        // then fails serving with a typed invalid-approx error.
        b"rank model=nnt app=suite:0 predictive=0,30,60 approx=0,8,9".to_vec(),
        // Valid approx request: parses and serves.
        b"rank model=nnt app=suite:0 predictive=0,30,60 top_k=3 approx=2,8,3".to_vec(),
    ];
    let valid = write_request(&RankRequest {
        app: AppOfInterest::Suite(1),
        model: ModelKind::NnT,
        predictive: vec![0, 30, 60],
        restrict: MachineFilter::all(),
        top_k: Some(5),
        seed: 3,
        confidence: None,
        approx: None,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..120 {
        let line: Vec<u8> = match i % 3 {
            // Truncated valid request (a prefix may legitimately parse).
            0 => {
                let cut = 1 + rng.gen_range(0..valid.len());
                valid.as_bytes()[..cut].to_vec()
            }
            // Random printable-ish garbage.
            1 => {
                let len = 1 + rng.gen_range(0..40usize);
                (0..len).map(|_| rng.gen_range(0x20u8..0x7F)).collect()
            }
            // Random raw bytes (newline excluded to stay one line).
            _ => {
                let len = 1 + rng.gen_range(0..40usize);
                (0..len)
                    .map(|_| loop {
                        let b = rng.gen_range(0u16..256) as u8;
                        if b != b'\n' {
                            break b;
                        }
                    })
                    .collect()
            }
        };
        corpus.push(line);
    }
    corpus
}

#[test]
fn fuzzed_lines_each_get_one_typed_line_and_never_kill_the_connection() {
    let db = dense_db();
    let config = quick_net_config(Parallelism::Auto);
    let serve_config = config.serve.clone();
    let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let corpus = fuzz_corpus(0xF0CC);
    for (i, line) in corpus.iter().enumerate() {
        // Whitespace-only lines are skipped silently by design; everything
        // else gets exactly one response line.
        let expects_response = !line.iter().all(|&b| b == b' ' || b == b'\r');
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        if !expects_response {
            continue;
        }
        let mut response = String::new();
        assert!(
            reader.read_line(&mut response).unwrap() > 0,
            "connection died on corpus line {i}: {line:?}"
        );
        let response = response.trim_end();
        // Parse failures must come back as protocol errors; parseable
        // lines as either a served ranking or a typed serve error.
        match parse_line(line) {
            Err(_) => assert!(
                response.starts_with("err "),
                "corpus line {i} should be a protocol error, got: {response}"
            ),
            Ok(_) => assert!(
                response.starts_with("ok ") || response.starts_with("err "),
                "corpus line {i} got a malformed response: {response}"
            ),
        }
        assert!(!response.is_empty());
    }

    // The connection is still healthy and still serves byte-identically.
    let request = request_mix(&*db).remove(0);
    let expected = render_result(
        &serve_batch(&*db, std::slice::from_ref(&request), &serve_config)
            .pop()
            .unwrap(),
    );
    stream
        .write_all(write_request(&request).as_bytes())
        .unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0);
    assert_eq!(response.trim_end(), expected, "post-fuzz serving drifted");

    drop((reader, stream));
    let stats = server.join();
    assert!(stats.protocol_errors > 0, "fuzz corpus hit no parse errors");
}

#[test]
fn oversized_annex_counts_get_typed_errors_and_the_server_keeps_serving() {
    let db = dense_db();
    let config = quick_net_config(Parallelism::Auto);
    let serve_config = config.serve.clone();
    let server = NetServer::spawn(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    let request = request_mix(&*db).remove(0);
    assert!(request.confidence.is_none() && request.approx.is_none());
    let valid = write_request(&request);
    let expected = render_result(
        &serve_batch(&*db, std::slice::from_ref(&request), &serve_config)
            .pop()
            .unwrap(),
    );
    // Both lines parse; served unchecked, the first asks for 2^60
    // measurements per machine and the second for 2^60 buckets, and
    // either allocation aborts the serving thread.
    let oversized = [
        format!("{valid} confidence=0.95,0.015,1152921504606846976,10"),
        format!("{valid} approx=2,1152921504606846976,1"),
    ];
    for line in &oversized {
        assert!(parse_line(line.as_bytes()).is_ok(), "{line}");
    }
    let mut lines = oversized.to_vec();
    lines.push(valid.clone());
    let responses = exchange(&server, &lines);
    assert!(
        responses[0].starts_with("err invalid-confidence "),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].starts_with("err invalid-approx "),
        "{}",
        responses[1]
    );
    assert_eq!(responses[2], expected, "same connection stopped serving");
    assert_eq!(
        exchange(&server, &[valid]),
        [expected],
        "fresh connection not served"
    );
    server.join();
}

#[test]
fn backpressure_pipelining_preserves_order_and_drain_flushes_everything() {
    let db = dense_db();
    let mut config = quick_net_config(Parallelism::Auto);
    config.max_inflight = 2; // reader must stall on the in-flight budget
    config.max_batch = 4;
    let requests = request_mix(&*db);
    let expected: Vec<String> = serve_batch(&*db, &requests, &config.serve)
        .iter()
        .map(render_result)
        .collect();
    let lines: Vec<String> = requests.iter().map(write_request).collect();

    let server = NetServer::spawn(db, "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in &lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    // Wait for the first response so at least one request is known to be
    // in the pipeline, then shut down mid-stream: everything already
    // admitted past the backpressure gate must still come back, in
    // order, before the connection closes.
    let mut got = Vec::new();
    let mut first = String::new();
    assert!(reader.read_line(&mut first).unwrap() > 0);
    got.push(first.trim_end().to_owned());
    server.shutdown();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        got.push(line.trim_end().to_owned());
    }
    assert_eq!(
        got,
        expected[..got.len()],
        "drained responses out of order or corrupted"
    );
    drop((reader, stream));
    server.join();
}

/// The year that marks a poisoned restriction for [`PanicOnPlan`].
const POISON_YEAR: u16 = 1901;

/// The paper catalog, except that planning a restriction whose lower year
/// bound is [`POISON_YEAR`] panics: a stand-in for any bug that unwinds
/// out of a serving pass.
struct PanicOnPlan(PerfDatabase);

impl DatabaseView for PanicOnPlan {
    fn n_benchmarks(&self) -> usize {
        self.0.n_benchmarks()
    }
    fn n_machines(&self) -> usize {
        self.0.n_machines()
    }
    fn benchmarks(&self) -> &[Benchmark] {
        self.0.benchmarks()
    }
    fn machines(&self) -> &[Machine] {
        self.0.machines()
    }
    fn score(&self, b: usize, m: usize) -> f64 {
        self.0.score(b, m)
    }
    fn machine_column(&self, m: usize) -> VecView<'_> {
        self.0.machine_column(m)
    }
    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix {
        self.0.gather(benchmarks, machines)
    }
    fn catalog_version(&self) -> u64 {
        self.0.catalog_version()
    }
    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan {
        assert_ne!(filter.year_min, Some(POISON_YEAR), "poisoned restriction");
        self.0.plan_machines(filter)
    }
}

#[test]
fn panicking_serve_pass_answers_invariant_and_the_server_keeps_serving() {
    let db = generate(&DatasetConfig::default()).unwrap();
    let config = quick_net_config(Parallelism::Auto);
    let request = request_mix(&db).remove(0);
    let valid = write_request(&request);
    let expected = render_result(
        &serve_batch(&db, std::slice::from_ref(&request), &config.serve)
            .pop()
            .unwrap(),
    );
    let mut poisoned = request.clone();
    poisoned.restrict.year_min = Some(POISON_YEAR);
    let poisoned = write_request(&poisoned);

    let server = NetServer::spawn(Arc::new(PanicOnPlan(db)), "127.0.0.1:0", config).unwrap();
    let (mut stream, mut reader) = connect(&server);
    // One line at a time, so the valid request cannot share the poisoned
    // request's window.
    let mut responses = Vec::new();
    for line in [&poisoned, &valid] {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        assert!(reader.read_line(&mut response).unwrap() > 0);
        responses.push(response.trim_end().to_owned());
    }
    assert!(
        responses[0].starts_with("err invariant "),
        "{}",
        responses[0]
    );
    assert_eq!(responses[1], expected, "same connection stopped serving");
    assert_eq!(
        exchange(&server, &[valid]),
        [expected],
        "fresh connection not served"
    );
    drop((reader, stream));
    let stats = server.join();
    assert_eq!(stats.requests, 3);
}
