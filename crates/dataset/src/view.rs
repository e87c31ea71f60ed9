//! The read surface of the performance database.
//!
//! Every consumer in `core`/`experiments` — task gathers, the evaluation
//! harnesses, selection, analysis, the serving engine — reads the
//! database through the object-safe [`DatabaseView`] trait defined here,
//! so a server can hold the catalog as `Arc<dyn DatabaseView>`.
//!
//! # Contract
//!
//! `score(b, m)` is the SPEC-style ratio of benchmark `b` on machine `m`,
//! machine metadata is in column order, and [`DatabaseView::gather`]
//! copies the requested submatrix in request order. Every column-block
//! layout of [`crate::database::PerfDatabase`] returns exactly the same
//! `f64` bits — values are stored, never recomputed, so re-blocking can
//! never perturb a prediction.

use datatrans_linalg::{Matrix, VecView};

use crate::benchmark::Benchmark;
use crate::machine::{Machine, ProcessorFamily};
use crate::query::{MachineFilter, QueryPlan};
use crate::{DatasetError, Result};

/// Read access to a `benchmarks × machines` performance database.
///
/// The trait is object-safe: the network front end serves from an
/// `Arc<dyn DatabaseView + Send + Sync>`.
pub trait DatabaseView: Sync {
    /// Number of benchmarks (logical rows).
    fn n_benchmarks(&self) -> usize;

    /// Number of machines (logical columns).
    fn n_machines(&self) -> usize;

    /// Benchmark metadata, in row order.
    fn benchmarks(&self) -> &[Benchmark];

    /// Machine metadata, in column order.
    fn machines(&self) -> &[Machine];

    /// Score of benchmark `b` on machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn score(&self, b: usize, m: usize) -> f64;

    /// All scores of one machine across benchmarks, as a zero-copy strided
    /// view into the backing storage.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    fn machine_column(&self, m: usize) -> VecView<'_>;

    /// Copies the `benchmarks × machines` submatrix selected by arbitrary
    /// index subsets, in request order — the gather behind
    /// task construction.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix;

    /// The catalog's version counter: 0 for a freshly built catalog,
    /// incremented by every non-empty machine ingest. The serving layer
    /// keys its result cache on `(request fingerprint, version)`, so a
    /// moved version drops every stale entry.
    fn catalog_version(&self) -> u64;

    /// Resolves a machine restriction to a [`QueryPlan`]: the matching
    /// machine indices in ascending catalog order, plus how many column
    /// blocks the planner scanned versus pruned. The machine list is the
    /// full scan's ([`crate::query::scan_machines`]) on every block
    /// layout; only the amount of storage touched differs.
    ///
    /// # Panics
    ///
    /// Panics if the filter references an out-of-range benchmark or
    /// machine index (validate with [`MachineFilter::invalid_index`]
    /// first where the filter is untrusted input).
    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan;

    /// Looks up a benchmark index by name.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::NotFound`] if no benchmark has that name.
    fn benchmark_index(&self, name: &str) -> Result<usize> {
        self.benchmarks()
            .iter()
            .position(|b| b.name == name)
            .ok_or_else(|| DatasetError::NotFound {
                what: "benchmark",
                name: name.to_owned(),
            })
    }

    /// Indices of all machines belonging to `family`.
    fn machines_in_family(&self, family: ProcessorFamily) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.family == family)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released in `year`.
    fn machines_in_year(&self, year: u16) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year == year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released strictly before `year`.
    fn machines_before_year(&self, year: u16) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year < year)
            .map(|(i, _)| i)
            .collect()
    }
}
