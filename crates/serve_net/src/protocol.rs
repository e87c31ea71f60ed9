//! The line-oriented wire protocol: one request per line, one response
//! line per request, everything UTF-8 text.
//!
//! # Grammar
//!
//! ```text
//! request    := "ping"
//!             | "rank" (SP attr)+
//! attr       := "model="      ("nnt" | "mlpt" | "gaknn")          ; required
//!             | "app="        ("suite:" INDEX | "external:" F*12) ; required
//!             | "predictive=" INDEX ("," INDEX)*                  ; required
//!             | "family="     FAMILY-SLUG
//!             | "years="      [YEAR] "-" [YEAR]                   ; open bounds allowed
//!             | "min_score="  INDEX ":" FLOAT
//!             | "subset="     INDEX ("," INDEX)*
//!             | "top_k="      COUNT
//!             | "seed="       U64                                 ; default 0
//!             | "confidence=" LEVEL "," SIGMA "," REPEATS "," RESAMPLES
//!             | "approx="     COMPONENTS "," BUCKETS "," PROBES
//!
//! response   := "ok pong"                                          ; to "ping"
//!             | "ok method=" NAME " candidates=" COUNT
//!               " shards=" SCANNED "/" PRUNED
//!               " ranked=" MACHINE ":" SCORE ("," MACHINE ":" SCORE)*
//!               [" confidence=" LEVEL " ci=" CI ("," CI)* " ties=" GROUPS]
//!               [" approx=" TOTAL "/" PROBED " short_circuited=" COUNT]
//!             | "err " CODE " " MESSAGE
//! CI         := MACHINE ":" RANK ":" LOWER ":" UPPER ":" SCORE-LO ":" SCORE-HI ":" GROUP
//! GROUPS     := MEMBERS ("|" MEMBERS)*   ; MEMBERS := MACHINE ("," MACHINE)*
//! ```
//!
//! Parameter domains, checked before any work is done; a value outside
//! its domain parses but is answered with `err invalid-confidence` or
//! `err invalid-approx`:
//!
//! ```text
//! LEVEL      in (0, 1)
//! SIGMA      in [0, 0.5]
//! REPEATS    in 1..=64     ; ConfidenceConfig::MAX_REPEATS
//! RESAMPLES  in 1..=2000   ; ConfidenceConfig::MAX_RESAMPLES
//! COMPONENTS in 1..=benchmarks in the catalog
//! BUCKETS    in 1..=4096   ; ApproxConfig::MAX_BUCKETS
//! PROBES     in 1..=BUCKETS
//! ```
//!
//! Attributes may appear in any order; duplicates and unknown keys are
//! typed errors. Floats are written with Rust's shortest-round-trip
//! `Display` formatting and parsed back bitwise-identically, so a
//! serialized response is a faithful byte representation of the
//! in-process [`RankResponse`] — `tests/net_serve.rs` pins wire bytes
//! against in-process serving. Every malformed line maps to a typed
//! [`ProtocolError`] (never a panic, never a dropped connection) whose
//! [`ProtocolError::to_line`] is the `err` line the client gets back.

use std::fmt;
use std::fmt::Write as _;

use datatrans_core::serve::{
    AppOfInterest, ApproxConfig, ConfidenceConfig, ModelKind, RankRequest, RankResponse, ServeError,
};
use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::machine::ProcessorFamily;
use datatrans_dataset::query::MachineFilter;

/// Longest request line the server accepts, in bytes (newline excluded).
/// Longer lines yield [`ProtocolError::LineTooLong`] but keep the
/// connection alive — the server resynchronizes at the next newline.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Longest slice of client input echoed back inside an error message.
const ECHO_LIMIT: usize = 32;

/// One parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; answered with `ok pong` through the same ordered
    /// response path as rankings.
    Ping,
    /// A ranking query, ready for the serving engine.
    Rank(Box<RankRequest>),
}

/// A typed request-parse failure. Every variant maps onto one `err` line;
/// none of them terminates the connection.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The line has no tokens (the server normally skips these silently).
    EmptyLine,
    /// The line exceeds [`MAX_LINE_BYTES`].
    LineTooLong {
        /// The offending line's byte length.
        got: usize,
    },
    /// The first token is not a known command.
    UnknownCommand {
        /// The offending token (truncated).
        got: String,
    },
    /// An attribute key is not part of the grammar.
    UnknownAttribute {
        /// The offending key (truncated).
        key: String,
    },
    /// A required attribute is missing.
    MissingAttribute {
        /// The missing key.
        key: &'static str,
    },
    /// An attribute appeared twice.
    DuplicateAttribute {
        /// The duplicated key.
        key: &'static str,
    },
    /// An attribute value does not parse.
    BadValue {
        /// The attribute key.
        key: &'static str,
        /// The offending value (truncated).
        value: String,
        /// What the grammar expects there.
        expected: &'static str,
    },
}

impl ProtocolError {
    /// Stable machine-readable code, the second token of the `err` line.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::NotUtf8 => "bad-utf8",
            ProtocolError::EmptyLine => "empty-line",
            ProtocolError::LineTooLong { .. } => "line-too-long",
            ProtocolError::UnknownCommand { .. } => "bad-command",
            ProtocolError::UnknownAttribute { .. } => "bad-attr",
            ProtocolError::MissingAttribute { .. } => "missing-attr",
            ProtocolError::DuplicateAttribute { .. } => "dup-attr",
            ProtocolError::BadValue { .. } => "bad-value",
        }
    }

    /// The `err` response line for this failure.
    pub fn to_line(&self) -> String {
        format!("err {} {self}", self.code())
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NotUtf8 => write!(f, "line is not valid UTF-8"),
            ProtocolError::EmptyLine => write!(f, "empty line"),
            ProtocolError::LineTooLong { got } => {
                write!(
                    f,
                    "line of {got} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
                )
            }
            ProtocolError::UnknownCommand { got } => {
                write!(f, "unknown command {got:?} (expected ping or rank)")
            }
            ProtocolError::UnknownAttribute { key } => write!(f, "unknown attribute {key:?}"),
            ProtocolError::MissingAttribute { key } => {
                write!(f, "required attribute {key} is missing")
            }
            ProtocolError::DuplicateAttribute { key } => {
                write!(f, "attribute {key} appears more than once")
            }
            ProtocolError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(
                    f,
                    "attribute {key} has bad value {value:?} (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Truncates client input before echoing it inside an error message.
fn echo(s: &str) -> String {
    if s.len() <= ECHO_LIMIT {
        s.to_owned()
    } else {
        let mut cut = ECHO_LIMIT;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &s[..cut])
    }
}

/// The wire slug of a processor family (lowercase, no spaces).
pub fn family_slug(family: ProcessorFamily) -> &'static str {
    match family {
        ProcessorFamily::OpteronK10 => "opteron-k10",
        ProcessorFamily::OpteronK8 => "opteron-k8",
        ProcessorFamily::Phenom => "phenom",
        ProcessorFamily::Turion => "turion",
        ProcessorFamily::Power5 => "power5",
        ProcessorFamily::Power6 => "power6",
        ProcessorFamily::Core2 => "core2",
        ProcessorFamily::CoreDuo => "core-duo",
        ProcessorFamily::CoreI7 => "core-i7",
        ProcessorFamily::Itanium => "itanium",
        ProcessorFamily::PentiumD => "pentium-d",
        ProcessorFamily::PentiumDualCore => "pentium-dual-core",
        ProcessorFamily::PentiumM => "pentium-m",
        ProcessorFamily::Xeon => "xeon",
        ProcessorFamily::Sparc64Vi => "sparc64-vi",
        ProcessorFamily::Sparc64Vii => "sparc64-vii",
        ProcessorFamily::UltraSparcIii => "ultrasparc-iii",
    }
}

/// Resolves a family slug; `None` when unknown.
pub fn parse_family(slug: &str) -> Option<ProcessorFamily> {
    ProcessorFamily::ALL
        .into_iter()
        .find(|&f| family_slug(f) == slug)
}

/// The wire slug of a model kind.
pub fn model_slug(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::NnT => "nnt",
        ModelKind::MlpT => "mlpt",
        ModelKind::GaKnn => "gaknn",
    }
}

/// Resolves a model slug; `None` when unknown.
pub fn parse_model(slug: &str) -> Option<ModelKind> {
    ModelKind::ALL.into_iter().find(|&k| model_slug(k) == slug)
}

fn parse_finite(key: &'static str, value: &str) -> Result<f64, ProtocolError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| ProtocolError::BadValue {
            key,
            value: echo(value),
            expected: "a finite number",
        })
}

fn parse_count<T: std::str::FromStr>(
    key: &'static str,
    value: &str,
    expected: &'static str,
) -> Result<T, ProtocolError> {
    value.parse::<T>().map_err(|_| ProtocolError::BadValue {
        key,
        value: echo(value),
        expected,
    })
}

fn parse_index_list(key: &'static str, value: &str) -> Result<Vec<usize>, ProtocolError> {
    if value.is_empty() {
        return Err(ProtocolError::BadValue {
            key,
            value: String::new(),
            expected: "a comma-separated machine index list",
        });
    }
    value
        .split(',')
        .map(|part| parse_count(key, part, "a comma-separated machine index list"))
        .collect()
}

/// The characteristic fields in wire order (the struct's declaration
/// order; raw values, not the log-scaled model vector).
fn characteristics_fields(app: &WorkloadCharacteristics) -> [f64; WorkloadCharacteristics::DIMS] {
    [
        app.instr_e9,
        app.ilp,
        app.fp_fraction,
        app.mem_fraction,
        app.branch_fraction,
        app.mispredict_rate,
        app.working_set_mib,
        app.stream_fraction,
        app.locality_alpha,
        app.bandwidth_demand,
        app.mlp,
        app.regularity,
    ]
}

fn characteristics_from_fields(v: &[f64]) -> WorkloadCharacteristics {
    WorkloadCharacteristics {
        instr_e9: v[0],
        ilp: v[1],
        fp_fraction: v[2],
        mem_fraction: v[3],
        branch_fraction: v[4],
        mispredict_rate: v[5],
        working_set_mib: v[6],
        stream_fraction: v[7],
        locality_alpha: v[8],
        bandwidth_demand: v[9],
        mlp: v[10],
        regularity: v[11],
    }
}

fn parse_app(value: &str) -> Result<AppOfInterest, ProtocolError> {
    const KEY: &str = "app";
    if let Some(index) = value.strip_prefix("suite:") {
        return Ok(AppOfInterest::Suite(parse_count(
            KEY,
            index,
            "suite:<benchmark index>",
        )?));
    }
    if let Some(fields) = value.strip_prefix("external:") {
        let values: Vec<f64> = fields
            .split(',')
            .map(|part| parse_finite(KEY, part))
            .collect::<Result<_, _>>()?;
        if values.len() != WorkloadCharacteristics::DIMS {
            return Err(ProtocolError::BadValue {
                key: KEY,
                value: echo(fields),
                expected: "external:<12 comma-separated characteristics>",
            });
        }
        return Ok(AppOfInterest::External(characteristics_from_fields(
            &values,
        )));
    }
    Err(ProtocolError::BadValue {
        key: KEY,
        value: echo(value),
        expected: "suite:<index> or external:<12 values>",
    })
}

fn parse_years(value: &str) -> Result<(Option<u16>, Option<u16>), ProtocolError> {
    const KEY: &str = "years";
    let bad = || ProtocolError::BadValue {
        key: KEY,
        value: echo(value),
        expected: "<min>-<max> (either bound may be empty)",
    };
    let (lo, hi) = value.split_once('-').ok_or_else(bad)?;
    let parse_bound = |side: &str| -> Result<Option<u16>, ProtocolError> {
        if side.is_empty() {
            Ok(None)
        } else {
            side.parse::<u16>().map(Some).map_err(|_| bad())
        }
    };
    Ok((parse_bound(lo)?, parse_bound(hi)?))
}

fn parse_min_score(value: &str) -> Result<(usize, f64), ProtocolError> {
    const KEY: &str = "min_score";
    let bad = || ProtocolError::BadValue {
        key: KEY,
        value: echo(value),
        expected: "<benchmark index>:<threshold>",
    };
    let (bench, threshold) = value.split_once(':').ok_or_else(bad)?;
    let bench = bench.parse::<usize>().map_err(|_| bad())?;
    let threshold = parse_finite(KEY, threshold)?;
    Ok((bench, threshold))
}

fn parse_confidence(value: &str) -> Result<ConfidenceConfig, ProtocolError> {
    const KEY: &str = "confidence";
    let bad = || ProtocolError::BadValue {
        key: KEY,
        value: echo(value),
        expected: "<level>,<sigma>,<repeats>,<resamples>",
    };
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 4 {
        return Err(bad());
    }
    Ok(ConfidenceConfig {
        level: parse_finite(KEY, parts[0])?,
        sigma: parse_finite(KEY, parts[1])?,
        repeats: parts[2].parse::<usize>().map_err(|_| bad())?,
        resamples: parts[3].parse::<usize>().map_err(|_| bad())?,
    })
}

fn parse_approx(value: &str) -> Result<ApproxConfig, ProtocolError> {
    const KEY: &str = "approx";
    let bad = || ProtocolError::BadValue {
        key: KEY,
        value: echo(value),
        expected: "<n_components>,<n_buckets>,<probe_buckets>",
    };
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 3 {
        return Err(bad());
    }
    Ok(ApproxConfig {
        n_components: parts[0].parse::<usize>().map_err(|_| bad())?,
        n_buckets: parts[1].parse::<usize>().map_err(|_| bad())?,
        probe_buckets: parts[2].parse::<usize>().map_err(|_| bad())?,
    })
}

/// One optional attribute slot that rejects duplicates.
struct Slot<T> {
    key: &'static str,
    value: Option<T>,
}

impl<T> Slot<T> {
    fn new(key: &'static str) -> Self {
        Slot { key, value: None }
    }

    fn fill(&mut self, value: T) -> Result<(), ProtocolError> {
        if self.value.is_some() {
            return Err(ProtocolError::DuplicateAttribute { key: self.key });
        }
        self.value = Some(value);
        Ok(())
    }

    fn require(self) -> Result<T, ProtocolError> {
        self.value
            .ok_or(ProtocolError::MissingAttribute { key: self.key })
    }
}

fn parse_rank<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<Command, ProtocolError> {
    let mut model = Slot::new("model");
    let mut app = Slot::new("app");
    let mut predictive = Slot::new("predictive");
    let mut family = Slot::new("family");
    let mut years = Slot::new("years");
    let mut min_score = Slot::new("min_score");
    let mut subset = Slot::new("subset");
    let mut top_k = Slot::new("top_k");
    let mut seed = Slot::new("seed");
    let mut confidence = Slot::new("confidence");
    let mut approx = Slot::new("approx");
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ProtocolError::BadValue {
                key: "attribute",
                value: echo(token),
                expected: "key=value",
            })?;
        match key {
            "model" => {
                model.fill(parse_model(value).ok_or_else(|| ProtocolError::BadValue {
                    key: "model",
                    value: echo(value),
                    expected: "nnt, mlpt, or gaknn",
                })?)?
            }
            "app" => app.fill(parse_app(value)?)?,
            "predictive" => predictive.fill(parse_index_list("predictive", value)?)?,
            "family" => {
                family.fill(parse_family(value).ok_or_else(|| ProtocolError::BadValue {
                    key: "family",
                    value: echo(value),
                    expected: "a processor-family slug (e.g. xeon)",
                })?)?
            }
            "years" => years.fill(parse_years(value)?)?,
            "min_score" => min_score.fill(parse_min_score(value)?)?,
            "subset" => subset.fill(parse_index_list("subset", value)?)?,
            "top_k" => top_k.fill(parse_count::<usize>(
                "top_k",
                value,
                "an unsigned machine count",
            )?)?,
            "seed" => seed.fill(parse_count::<u64>(
                "seed",
                value,
                "an unsigned 64-bit seed",
            )?)?,
            "confidence" => confidence.fill(parse_confidence(value)?)?,
            "approx" => approx.fill(parse_approx(value)?)?,
            other => {
                return Err(ProtocolError::UnknownAttribute { key: echo(other) });
            }
        }
    }
    let (year_min, year_max) = years.value.unwrap_or((None, None));
    Ok(Command::Rank(Box::new(RankRequest {
        app: app.require()?,
        model: model.require()?,
        predictive: predictive.require()?,
        restrict: MachineFilter {
            family: family.value,
            year_min,
            year_max,
            min_score: min_score.value,
            subset: subset.value,
        },
        top_k: top_k.value,
        seed: seed.value.unwrap_or(0),
        confidence: confidence.value,
        approx: approx.value,
    })))
}

/// Parses one raw request line (newline already stripped; a trailing
/// carriage return is tolerated).
///
/// # Errors
///
/// Returns a typed [`ProtocolError`] for anything malformed — non-UTF-8
/// bytes, unknown commands or attributes, missing/duplicate attributes,
/// unparseable values. Never panics on any input.
pub fn parse_line(line: &[u8]) -> Result<Command, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::LineTooLong { got: line.len() });
    }
    let text = std::str::from_utf8(line).map_err(|_| ProtocolError::NotUtf8)?;
    let mut tokens = text
        .trim_end_matches('\r')
        .split(' ')
        .filter(|t| !t.is_empty());
    match tokens.next() {
        None => Err(ProtocolError::EmptyLine),
        Some("ping") => match tokens.next() {
            None => Ok(Command::Ping),
            Some(extra) => Err(ProtocolError::BadValue {
                key: "ping",
                value: echo(extra),
                expected: "no arguments",
            }),
        },
        Some("rank") => parse_rank(tokens),
        Some(other) => Err(ProtocolError::UnknownCommand { got: echo(other) }),
    }
}

fn push_index_list(out: &mut String, indices: &[usize]) {
    for (i, m) in indices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{m}");
    }
}

/// Serializes a request to its wire line (no trailing newline).
/// `parse_line(write_request(r).as_bytes())` reconstructs `r` exactly,
/// including float bits — the loopback driver and the determinism tests
/// rely on this round trip.
pub fn write_request(request: &RankRequest) -> String {
    let mut out = String::from("rank model=");
    out.push_str(model_slug(request.model));
    match &request.app {
        AppOfInterest::Suite(index) => {
            let _ = write!(out, " app=suite:{index}");
        }
        AppOfInterest::External(app) => {
            out.push_str(" app=external:");
            for (i, v) in characteristics_fields(app).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push_str(" predictive=");
    push_index_list(&mut out, &request.predictive);
    if let Some(family) = request.restrict.family {
        let _ = write!(out, " family={}", family_slug(family));
    }
    if request.restrict.year_min.is_some() || request.restrict.year_max.is_some() {
        out.push_str(" years=");
        if let Some(lo) = request.restrict.year_min {
            let _ = write!(out, "{lo}");
        }
        out.push('-');
        if let Some(hi) = request.restrict.year_max {
            let _ = write!(out, "{hi}");
        }
    }
    if let Some((bench, threshold)) = request.restrict.min_score {
        let _ = write!(out, " min_score={bench}:{threshold}");
    }
    if let Some(subset) = &request.restrict.subset {
        out.push_str(" subset=");
        push_index_list(&mut out, subset);
    }
    if let Some(top_k) = request.top_k {
        let _ = write!(out, " top_k={top_k}");
    }
    let _ = write!(out, " seed={}", request.seed);
    if let Some(c) = &request.confidence {
        let _ = write!(
            out,
            " confidence={},{},{},{}",
            c.level, c.sigma, c.repeats, c.resamples
        );
    }
    if let Some(a) = &request.approx {
        let _ = write!(
            out,
            " approx={},{},{}",
            a.n_components, a.n_buckets, a.probe_buckets
        );
    }
    out
}

/// The stable machine-readable code of a serving failure, the second
/// token of its `err` line.
pub fn serve_error_code(error: &ServeError) -> &'static str {
    match error {
        ServeError::UnknownBenchmark { .. } => "unknown-benchmark",
        ServeError::EmptyPredictiveSet => "empty-predictive",
        ServeError::PredictiveOutOfRange { .. } => "predictive-out-of-range",
        ServeError::InvalidRestriction { .. } => "invalid-restriction",
        ServeError::EmptyCandidates => "empty-candidates",
        ServeError::InvalidConfidence { .. } => "invalid-confidence",
        ServeError::InvalidApprox { .. } => "invalid-approx",
        ServeError::ZeroTopK => "zero-top-k",
        ServeError::Invariant { .. } => "invariant",
        ServeError::Evaluation(_) => "evaluation",
        // ServeError is #[non_exhaustive]; future variants degrade to the
        // generic code rather than breaking the wire protocol.
        _ => "serve-error",
    }
}

/// Serializes a successful response to its `ok` line (no newline).
pub fn write_response(response: &RankResponse) -> String {
    let mut out = format!(
        "ok method={} candidates={} shards={}/{} ranked=",
        response.method, response.candidates, response.shards_scanned, response.shards_pruned
    );
    for (i, slot) in response.ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", slot.machine, slot.predicted_score);
    }
    if let Some(annex) = &response.confidence {
        let _ = write!(out, " confidence={} ci=", annex.level);
        for (i, ci) in annex.ranked.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{}:{}:{}:{}:{}:{}",
                ci.machine,
                ci.rank,
                ci.rank_lower,
                ci.rank_upper,
                ci.score_lower,
                ci.score_upper,
                ci.tie_group
            );
        }
        out.push_str(" ties=");
        for (g, group) in annex.tie_groups.iter().enumerate() {
            if g > 0 {
                out.push('|');
            }
            push_index_list(&mut out, group);
        }
    }
    if let Some(approx) = &response.approx {
        let _ = write!(
            out,
            " approx={}/{} short_circuited={}",
            approx.buckets_total, approx.buckets_probed, approx.short_circuited
        );
    }
    out
}

/// Serializes a serving failure to its `err` line (no newline).
pub fn write_serve_error(error: &ServeError) -> String {
    format!("err {} {error}", serve_error_code(error))
}

/// Serializes one per-slot serving result to its response line — the
/// single rendering used by the server, the loopback driver's expected
/// set, and the byte-identity tests.
pub fn render_result(result: &Result<RankResponse, ServeError>) -> String {
    match result {
        Ok(response) => write_response(response),
        Err(error) => write_serve_error(error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};

    fn sample_request() -> RankRequest {
        RankRequest {
            app: AppOfInterest::Suite(3),
            model: ModelKind::NnT,
            predictive: vec![0, 30, 60],
            restrict: MachineFilter::family(ProcessorFamily::Xeon),
            top_k: Some(5),
            seed: 7,
            confidence: None,
            approx: None,
        }
    }

    #[test]
    fn request_round_trips_through_the_wire_grammar() {
        let mut requests = vec![sample_request()];
        requests.push(RankRequest {
            app: AppOfInterest::External(synthesize(WorkloadProfile::Scientific, 9)),
            model: ModelKind::MlpT,
            restrict: MachineFilter::years(2008, 2009).with_min_score(3, 45.25),
            top_k: None,
            confidence: Some(ConfidenceConfig::default()),
            ..sample_request()
        });
        requests.push(RankRequest {
            model: ModelKind::GaKnn,
            restrict: MachineFilter {
                year_min: Some(2004),
                year_max: None,
                subset: Some(vec![5, 9, 40]),
                ..MachineFilter::default()
            },
            seed: u64::MAX,
            ..sample_request()
        });
        requests.push(RankRequest {
            approx: Some(ApproxConfig {
                n_components: 2,
                n_buckets: 8,
                probe_buckets: 3,
            }),
            confidence: Some(ConfidenceConfig::default()),
            ..sample_request()
        });
        for request in requests {
            let line = write_request(&request);
            match parse_line(line.as_bytes()) {
                Ok(Command::Rank(parsed)) => assert_eq!(*parsed, request, "line: {line}"),
                other => panic!("round trip failed for {line}: {other:?}"),
            }
        }
    }

    #[test]
    fn ping_and_crlf_lines_parse() {
        assert_eq!(parse_line(b"ping"), Ok(Command::Ping));
        assert_eq!(parse_line(b"ping\r"), Ok(Command::Ping));
        assert!(matches!(
            parse_line(b"ping extra"),
            Err(ProtocolError::BadValue { key: "ping", .. })
        ));
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        let cases: Vec<(&[u8], &str)> = vec![
            (b"\xff\xfe", "bad-utf8"),
            (b"", "empty-line"),
            (b"   ", "empty-line"),
            (b"frobnicate", "bad-command"),
            (b"rank", "missing-attr"),
            (b"rank model=nnt", "missing-attr"),
            (b"rank model=bogus app=suite:0 predictive=0", "bad-value"),
            (b"rank model=nnt app=suite:x predictive=0", "bad-value"),
            (b"rank model=nnt app=suite:0 predictive=", "bad-value"),
            (
                b"rank model=nnt app=suite:0 predictive=0 predictive=1",
                "dup-attr",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 colour=red",
                "bad-attr",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 top_k=-3",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 years=xyz",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 family=sparc",
                "bad-value",
            ),
            (b"rank model=nnt app=external:1,2 predictive=0", "bad-value"),
            (
                b"rank model=nnt app=suite:0 predictive=0 min_score=0:NaN",
                "bad-value",
            ),
            (b"rank noequals app=suite:0", "bad-value"),
            (
                b"rank model=nnt app=suite:0 predictive=0 approx=2,8",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 approx=2,8,3,1",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 approx=2,eight,3",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 approx=-2,8,3",
                "bad-value",
            ),
            (
                b"rank model=nnt app=suite:0 predictive=0 approx=2,8,3 approx=2,8,3",
                "dup-attr",
            ),
        ];
        for (line, code) in cases {
            match parse_line(line) {
                Err(e) => assert_eq!(e.code(), code, "line {:?} -> {e:?}", line),
                Ok(c) => panic!("line {line:?} unexpectedly parsed: {c:?}"),
            }
        }
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let line = vec![b'a'; MAX_LINE_BYTES + 1];
        assert_eq!(
            parse_line(&line),
            Err(ProtocolError::LineTooLong {
                got: MAX_LINE_BYTES + 1
            })
        );
    }

    #[test]
    fn every_family_slug_round_trips() {
        for family in ProcessorFamily::ALL {
            assert_eq!(parse_family(family_slug(family)), Some(family));
        }
        assert_eq!(parse_family("8086"), None);
    }

    #[test]
    fn error_lines_carry_code_and_message() {
        let line = ProtocolError::UnknownCommand { got: "nope".into() }.to_line();
        assert!(line.starts_with("err bad-command "));
        assert!(line.contains("nope"));
        let line = write_serve_error(&ServeError::ZeroTopK);
        assert!(line.starts_with("err zero-top-k "));
        let line = write_serve_error(&ServeError::EmptyCandidates);
        assert!(line.starts_with("err empty-candidates "));
    }

    #[test]
    fn float_display_round_trips_bitwise() {
        for v in [
            0.1_f64,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            45.25,
            1e-300,
        ] {
            let parsed: f64 = format!("{v}").parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits());
        }
    }
}
