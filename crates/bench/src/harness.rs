//! A minimal, dependency-free Criterion-style benchmark harness.
//!
//! The workspace cannot depend on the `criterion` crate (it would be its
//! only external dependency), so this module provides the narrow slice of
//! its API the benches use — [`Criterion`], benchmark groups,
//! [`Bencher::iter`], [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple warmup-then-sample
//! wall-clock measurement. Benches are declared with `harness = false` and
//! the macros synthesize `main`.
//!
//! Results print as one line per benchmark:
//!
//! ```text
//! predictors/nnt_predict  median 1.234 ms  (min 1.200 ms .. max 1.400 ms, 10 samples)
//! ```
//!
//! and are additionally written as machine-readable JSON (one
//! `BENCH_<bench>.json` per bench binary, overridable via the
//! `DATATRANS_BENCH_JSON` environment variable) so the perf trajectory can
//! be tracked across commits.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

use std::fmt;
use std::time::{Duration, Instant};

/// Maximum time spent warming one benchmark up.
const WARMUP_BUDGET: Duration = Duration::from_millis(300);
/// Maximum time spent measuring one benchmark.
const MEASURE_BUDGET: Duration = Duration::from_secs(3);

/// One measured benchmark, as recorded for the JSON report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Full `group/name` benchmark id.
    pub id: String,
    /// Median sample, in nanoseconds.
    pub median_ns: u128,
    /// Fastest sample, in nanoseconds.
    pub min_ns: u128,
    /// Slowest sample, in nanoseconds.
    pub max_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

/// Top-level benchmark driver, passed to every `criterion_group!` function.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Option<String>,
    ran: usize,
    skipped: usize,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Builds a driver from the process arguments.
    ///
    /// Any argument that does not start with `-` is treated as a substring
    /// filter on the full `group/name` benchmark id; flags that the Cargo
    /// bench runner forwards (`--bench`, `--exact`, …) are ignored, and the
    /// values of libtest-style value-taking flags (`--color always`, …) are
    /// not mistaken for filters.
    pub fn from_args() -> Self {
        Self::from_arg_list(std::env::args().skip(1))
    }

    fn from_arg_list(mut args: impl Iterator<Item = String>) -> Self {
        // libtest flags that consume the following argument.
        const VALUE_FLAGS: [&str; 6] = [
            "--color",
            "--format",
            "--logfile",
            "--test-threads",
            "--skip",
            "-Z",
        ];
        let mut filter = None;
        while let Some(arg) = args.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                args.next(); // consume the flag's value
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Criterion {
            filter,
            ..Criterion::default()
        }
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            sample_size: 50,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let mut group = self.benchmark_group("");
        group.bench_function(name, f);
        group.finish();
    }

    /// Prints the run/skip totals and writes the JSON report. Called by
    /// `criterion_main!`.
    ///
    /// A filtered run measures only a subset of the suite, so it would
    /// clobber the committed full report with a partial one — the default
    /// `BENCH_<bench>.json` is only written for unfiltered runs. Setting
    /// `DATATRANS_BENCH_JSON` explicitly always writes to that path.
    pub fn final_summary(&self) {
        println!(
            "\n{} benchmark(s) run, {} filtered out",
            self.ran, self.skipped
        );
        if self.records.is_empty() {
            return;
        }
        let explicit_path = explicit_json_path();
        if self.filter.is_some() && explicit_path.is_none() {
            println!("(filtered run; JSON report not written — set DATATRANS_BENCH_JSON to force)");
            return;
        }
        let path = explicit_path.unwrap_or_else(default_json_path);
        match std::fs::write(&path, self.json_report()) {
            Ok(()) => println!("results written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    /// All benchmark records measured so far, in execution order.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// The machine-readable report for every benchmark run so far.
    pub fn json_report(&self) -> String {
        let mut out = String::from("{\n  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}{comma}\n",
                json_escape(&r.id),
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.samples
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

/// A named collection of related benchmarks sharing a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function(&mut self, name: impl fmt::Display, mut f: impl FnMut(&mut Bencher)) {
        let id = if self.name.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.name)
        };
        if !self.criterion.matches(&id) {
            self.criterion.skipped += 1;
            return;
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        self.criterion.ran += 1;
        match bencher.record(&id) {
            Some(record) => {
                print_record(&record);
                self.criterion.records.push(record);
            }
            None => println!("{id:<44} (no samples — closure never called iter)"),
        }
    }

    /// Runs one parameterized benchmark, Criterion-style.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// Ends the group. Present for API parity; all reporting is per-bench.
    pub fn finish(&mut self) {}
}

/// A `function/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{function}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Timing loop handle passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Measures `f`: a short warmup, then up to `sample_size` timed samples
    /// within the measurement budget.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warmup: at least one call, until the warmup budget is spent.
        // Fast functions get many rounds; a closure slower than the budget
        // bails after its first call.
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(f());
            if warm_start.elapsed() >= WARMUP_BUDGET {
                break;
            }
        }

        let measure_start = Instant::now();
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t0.elapsed());
            if measure_start.elapsed() >= MEASURE_BUDGET {
                break;
            }
        }
    }

    /// Summarizes the samples into a [`BenchRecord`], if any were taken.
    fn record(&self, id: &str) -> Option<BenchRecord> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        Some(BenchRecord {
            id: id.to_owned(),
            median_ns: sorted[sorted.len() / 2].as_nanos(),
            min_ns: sorted[0].as_nanos(),
            max_ns: sorted[sorted.len() - 1].as_nanos(),
            samples: sorted.len(),
        })
    }
}

/// Parses a report previously written by [`Criterion::json_report`] back
/// into records, in file order.
///
/// This is deliberately *not* a general JSON parser: it reads exactly the
/// one-record-per-object shape the harness emits (and `bench_diff`
/// compares), and rejects anything it cannot account for rather than
/// silently misreading a hand-edited baseline.
///
/// # Errors
///
/// Returns a description of the first malformed record, or of a missing
/// `results` array.
pub fn parse_report(json: &str) -> std::result::Result<Vec<BenchRecord>, String> {
    if !json.contains("\"results\"") {
        return Err("no \"results\" array in report".into());
    }
    let mut records = Vec::new();
    // Records never nest, so object boundaries are safe to scan for —
    // but a boundary brace must be outside quoted strings, because a
    // benchmark id may legally contain `{`/`}` (json_escape leaves them
    // as-is inside the quotes).
    let mut rest = json;
    while let Some(start) = find_outside_strings(rest, '{') {
        let Some(len) = find_outside_strings(&rest[start + 1..], '}') else {
            break;
        };
        let object = &rest[start + 1..start + 1 + len];
        rest = &rest[start + 1 + len + 1..];
        if !object.contains("\"id\"") {
            continue; // the enclosing top-level object
        }
        records.push(parse_record(object)?);
    }
    Ok(records)
}

/// Byte index of the first `needle` in `s` that is not inside a quoted
/// JSON string (escaped quotes within strings are honoured).
fn find_outside_strings(s: &str, needle: char) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if c == needle {
            return Some(i);
        }
    }
    None
}

fn parse_record(object: &str) -> std::result::Result<BenchRecord, String> {
    let id_raw =
        string_field(object, "id").ok_or_else(|| format!("record without id: {object}"))?;
    let id = json_unescape(id_raw);
    let int = |name: &str| -> std::result::Result<u128, String> {
        int_field(object, name).ok_or_else(|| format!("record {id:?}: missing/invalid {name}"))
    };
    Ok(BenchRecord {
        median_ns: int("median_ns")?,
        min_ns: int("min_ns")?,
        max_ns: int("max_ns")?,
        samples: int("samples")? as usize,
        id,
    })
}

/// The raw (still escaped) contents of `"name": "…"` in `object`.
fn string_field<'a>(object: &'a str, name: &str) -> Option<&'a str> {
    let rest = field_value(object, name)?;
    let rest = rest.strip_prefix('"')?;
    // Find the closing quote, skipping escaped ones.
    let mut prev_backslash = false;
    for (i, c) in rest.char_indices() {
        match c {
            '\\' => prev_backslash = !prev_backslash,
            '"' if !prev_backslash => return Some(&rest[..i]),
            _ => prev_backslash = false,
        }
    }
    None
}

fn int_field(object: &str, name: &str) -> Option<u128> {
    let rest = field_value(object, name)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The text right after `"name":`, whitespace skipped.
fn field_value<'a>(object: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\"");
    let after_key = &object[object.find(&key)? + key.len()..];
    let after_colon = &after_key[after_key.find(':')? + 1..];
    Some(after_colon.trim_start())
}

/// Undoes [`json_escape`] for the escapes it can produce.
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('u') => {
                let code: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&code, 16).ok().and_then(char::from_u32) {
                    Some(decoded) => out.push(decoded),
                    None => {
                        out.push_str("\\u");
                        out.push_str(&code);
                    }
                }
            }
            Some(escaped) => out.push(escaped),
            None => out.push('\\'),
        }
    }
    out
}

/// Prints the one-line human-readable summary of a measured benchmark.
fn print_record(r: &BenchRecord) {
    println!(
        "{:<44} median {:>10}  (min {} .. max {}, {} samples)",
        r.id,
        fmt_duration(Duration::from_nanos(r.median_ns as u64)),
        fmt_duration(Duration::from_nanos(r.min_ns as u64)),
        fmt_duration(Duration::from_nanos(r.max_ns as u64)),
        r.samples
    );
}

/// The `DATATRANS_BENCH_JSON` override path, if set to a non-empty value.
fn explicit_json_path() -> Option<String> {
    std::env::var("DATATRANS_BENCH_JSON")
        .ok()
        .filter(|p| !p.trim().is_empty())
}

/// Default JSON report path: `BENCH_<bench>.json` in the working directory
/// (cargo runs benches from the package root), with `<bench>` derived from
/// the bench binary's file stem (cargo appends `-<hash>`, which is
/// stripped).
fn default_json_path() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_owned());
    format!("BENCH_{}.json", strip_cargo_hash(&stem))
}

/// Strips cargo's trailing `-<16 hex chars>` disambiguation hash.
fn strip_cargo_hash(stem: &str) -> &str {
    match stem.rsplit_once('-') {
        Some((name, hash)) if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            name
        }
        _ => stem,
    }
}

/// Escapes a benchmark id for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

// Make the macros importable alongside the types:
// `use datatrans_bench::harness::{criterion_group, criterion_main, Criterion};`
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default();
        let mut calls = 0usize;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(3);
            group.bench_function("f", |b| b.iter(|| calls += 1));
            group.finish();
        }
        assert!(calls >= 3, "warmup + 3 samples, got {calls}");
        assert_eq!(c.ran, 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
            ..Criterion::default()
        };
        let mut calls = 0usize;
        c.bench_function("something", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 0);
        assert_eq!(c.skipped, 1);
    }

    #[test]
    fn arg_parsing_skips_flags_and_their_values() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A value-taking flag's value is not a filter.
        let c = Criterion::from_arg_list(to_args(&["--color", "always", "--bench"]).into_iter());
        assert_eq!(c.filter, None);
        // A positional arg is the filter, wherever it sits.
        let c = Criterion::from_arg_list(to_args(&["--bench", "spearman"]).into_iter());
        assert_eq!(c.filter.as_deref(), Some("spearman"));
        // Only the first positional arg wins.
        let c = Criterion::from_arg_list(to_args(&["a", "b"]).into_iter());
        assert_eq!(c.filter.as_deref(), Some("a"));
    }

    #[test]
    fn records_and_json_report() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("f", |b| b.iter(|| std::hint::black_box(1 + 1)));
        group.finish();
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert_eq!(r.id, "g/f");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.samples >= 1);
        let json = c.json_report();
        assert!(json.contains("\"id\": \"g/f\""));
        assert!(json.contains("\"median_ns\": "));
        // Filtered-out benches leave no record.
        let mut filtered = Criterion {
            filter: Some("nomatch".into()),
            ..Criterion::default()
        };
        filtered.bench_function("something", |b| b.iter(|| 1));
        assert!(filtered.records().is_empty());
    }

    #[test]
    fn parse_report_round_trips_json_report() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("fast", |b| b.iter(|| std::hint::black_box(2 * 2)));
        group.bench_function("q\"uoted", |b| b.iter(|| std::hint::black_box(3 * 3)));
        // Braces in an id are legal JSON string content and must not be
        // mistaken for record boundaries.
        group.bench_function("cfg{8}/v\\2", |b| b.iter(|| std::hint::black_box(4 * 4)));
        group.finish();
        let parsed = parse_report(&c.json_report()).expect("round trip");
        assert_eq!(parsed, c.records());
    }

    #[test]
    fn parse_report_rejects_malformed_input() {
        assert!(parse_report("{}").is_err() || parse_report("{}").unwrap().is_empty());
        assert!(parse_report("not json at all").is_err());
        // A record with a missing field is an error, not a silent skip.
        let broken = r#"{"results": [ {"id": "g/f", "median_ns": }]}"#;
        assert!(parse_report(broken).is_err());
    }

    #[test]
    fn json_unescape_inverts_escape() {
        for s in ["plain/id", "q\"uote\\", "tab\tend", "mixed \"x\"\t\\"] {
            assert_eq!(json_unescape(&json_escape(s)), s);
        }
    }

    #[test]
    fn cargo_hash_stripping() {
        assert_eq!(strip_cargo_hash("micro-0123456789abcdef"), "micro");
        assert_eq!(strip_cargo_hash("micro"), "micro");
        assert_eq!(strip_cargo_hash("ablation-00ffCC1122334455"), "ablation");
        // Not a 16-hex suffix: left alone.
        assert_eq!(strip_cargo_hash("some-bench"), "some-bench");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain/id"), "plain/id");
        assert_eq!(json_escape("q\"uote\\"), "q\\\"uote\\\\");
        assert_eq!(json_escape("tab\tend"), "tab\\u0009end");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("epochs", 500).to_string(), "epochs/500");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
