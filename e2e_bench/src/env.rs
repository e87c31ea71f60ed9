//! The environment stamp printed with every result, so a diff between
//! two machines reads as "different machine" rather than "regression".

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout the benchmark runs in (`unknown` outside a
    /// git checkout).
    pub git_sha: String,
    /// Median of three runs of a fixed scalar loop, milliseconds: a
    /// single-core speed reference for comparing machines.
    pub calibration_ms: f64,
}

impl EnvStamp {
    /// Measures the stamp (the calibration loop takes a few tens of
    /// milliseconds).
    pub fn measure() -> Self {
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("E2E_BENCH_RUSTC"),
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
            calibration_ms: calibration_ms(),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \"calibration_ms\": {}}}",
            self.nproc, self.rustc, self.git_sha, self.calibration_ms
        )
    }
}

/// Resolves `HEAD` of the git directory `git_dir` without running git.
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

/// A fixed dependent chain of integer and floating-point work.
fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
            let mut acc = 0.0f64;
            for _ in 0..black_box(5_000_000u64) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999, (x >> 40) as f64);
            }
            black_box((x, acc));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}
