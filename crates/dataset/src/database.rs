//! The assembled performance database: benchmarks × machines score matrix
//! plus metadata, the synthetic stand-in for the SPEC results archive.

use std::ops::Range;

use datatrans_linalg::{Matrix, VecView};

use crate::benchmark::Benchmark;
use crate::machine::{Machine, ProcessorFamily};
use crate::query::{MachineFilter, PreparedFilter, QueryPlan, ZoneMap};
use crate::view::DatabaseView;
use crate::{DatasetError, Result};

/// One machine to append to a database: metadata plus its score column.
///
/// `scores[b]` is the machine's score on benchmark row `b` — exactly the
/// machine column the database will store, in benchmark row order.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineIngest {
    /// The machine's catalog metadata.
    pub machine: Machine,
    /// One score per benchmark, in benchmark row order.
    pub scores: Vec<f64>,
}

/// Validates an ingest batch against a database's benchmark count: every
/// entry must score exactly `n_benchmarks` rows, with finite positive
/// values (the same invariant [`PerfDatabase::new`] enforces).
fn validate_ingest(batch: &[MachineIngest], n_benchmarks: usize) -> Result<()> {
    for entry in batch {
        if entry.scores.len() != n_benchmarks {
            return Err(DatasetError::BenchmarkCountMismatch {
                expected: n_benchmarks,
                got: entry.scores.len(),
            });
        }
        if entry.scores.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(DatasetError::InvalidConfig {
                name: "scores",
                value: "must be finite and positive".into(),
            });
        }
    }
    Ok(())
}

/// One column block of the score store: a contiguous range of machine
/// columns held as a row-major `benchmarks × width` [`Matrix`], plus the
/// [`ZoneMap`] the planner prunes with.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Global index of the block's first machine column.
    start: usize,
    /// `benchmarks × width` score block.
    scores: Matrix,
    /// Family set, year range and per-benchmark score range of the block.
    zone_map: ZoneMap,
}

impl Block {
    fn new(start: usize, machines: &[Machine], scores: Matrix) -> Self {
        let zone_map = ZoneMap::compute(machines, &scores);
        Block {
            start,
            scores,
            zone_map,
        }
    }

    /// Global machine index range `start .. start + width`.
    pub fn machine_range(&self) -> Range<usize> {
        self.start..self.start + self.scores.cols()
    }

    /// The block's `benchmarks × width` score matrix.
    pub fn scores(&self) -> &Matrix {
        &self.scores
    }

    /// The block's zone map.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zone_map
    }
}

/// A complete performance database.
///
/// Scores are SPEC-style speed ratios (higher is better), **rows =
/// benchmarks** and **columns = machines**, matching the paper's Figure 2
/// orientation. They are stored in column blocks: each [`Block`] owns a
/// contiguous range of machines as its own row-major matrix plus a
/// [`ZoneMap`]. A catalog built by [`PerfDatabase::new`] (and so by every
/// generator) is one block whose matrix is the whole table;
/// [`PerfDatabase::reblock`] copies it into `k` balanced blocks, which lets
/// [`DatabaseView::plan_machines`] skip blocks whose zone maps rule a
/// filter out. Scores are copied, never recomputed, so every block layout
/// returns the same bits.
///
/// The database carries a monotonically increasing **catalog version**,
/// bumped by every non-empty [`PerfDatabase::push_machines`] ingest; the
/// serving layer's result cache keys on it so stale cached rankings can
/// never be served after the catalog changes.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDatabase {
    benchmarks: Vec<Benchmark>,
    machines: Vec<Machine>,
    /// Column blocks in machine order; at least one, none empty.
    blocks: Vec<Block>,
    /// Ingest counter: 0 for a freshly built catalog, +1 per non-empty
    /// [`PerfDatabase::push_machines`] call.
    catalog_version: u64,
}

impl PerfDatabase {
    /// Assembles a single-block database from parts (`scores` row-major,
    /// `scores[b * machines.len() + m]`).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Empty`] if `benchmarks` or `machines` is
    /// empty (a zero-area score matrix is not a database), and
    /// [`DatasetError::InvalidConfig`] if the score length does not equal
    /// `benchmarks × machines`, or if any score is not finite and positive.
    pub fn new(
        benchmarks: Vec<Benchmark>,
        machines: Vec<Machine>,
        scores: Vec<f64>,
    ) -> Result<Self> {
        if benchmarks.is_empty() {
            return Err(DatasetError::Empty { what: "benchmarks" });
        }
        if machines.is_empty() {
            return Err(DatasetError::Empty { what: "machines" });
        }
        if scores.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(DatasetError::InvalidConfig {
                name: "scores",
                value: "must be finite and positive".into(),
            });
        }
        let scores = Matrix::from_vec(benchmarks.len(), machines.len(), scores).map_err(|_| {
            DatasetError::InvalidConfig {
                name: "scores length",
                value: format!(
                    "expected {} benchmarks × {} machines",
                    benchmarks.len(),
                    machines.len()
                ),
            }
        })?;
        let blocks = vec![Block::new(0, &machines, scores)];
        Ok(PerfDatabase {
            benchmarks,
            machines,
            blocks,
            catalog_version: 0,
        })
    }

    /// Copies the catalog into `n_blocks` balanced column blocks: the
    /// first `n_machines % n_blocks` blocks get `n_machines / n_blocks + 1`
    /// columns, the rest one less. Scores are copied verbatim and the
    /// catalog version carries over.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `n_blocks` is zero or
    /// exceeds the machine count (a block owns at least one column).
    pub fn reblock(&self, n_blocks: usize) -> Result<Self> {
        let n_machines = self.machines.len();
        if n_blocks == 0 || n_blocks > n_machines {
            return Err(DatasetError::InvalidConfig {
                name: "n_blocks",
                value: format!("{n_blocks} (must be 1..={n_machines} machines)"),
            });
        }
        let rows: Vec<usize> = (0..self.benchmarks.len()).collect();
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut start = 0;
        for k in 0..n_blocks {
            let width = n_machines / n_blocks + usize::from(k < n_machines % n_blocks);
            let range = start..start + width;
            let columns: Vec<usize> = range.clone().collect();
            let scores = DatabaseView::gather(self, &rows, &columns);
            blocks.push(Block::new(start, &self.machines[range], scores));
            start += width;
        }
        Ok(PerfDatabase {
            benchmarks: self.benchmarks.clone(),
            machines: self.machines.clone(),
            blocks,
            catalog_version: self.catalog_version,
        })
    }

    /// Re-blocked copies of this catalog at every layout the block-layout
    /// equivalence checks sweep: one block, a count that does not divide
    /// the machine count, eight blocks, and one block per machine — each
    /// kept only when the catalog has enough machines for it. Every layout
    /// must give the same bits through every accessor.
    ///
    /// # Errors
    ///
    /// Never fails for a valid catalog; the result type mirrors
    /// [`PerfDatabase::reblock`].
    pub fn layout_sweep(&self) -> Result<Vec<Self>> {
        let n = self.machines.len();
        let non_dividing = (5..n).find(|k| n % k != 0);
        let mut counts: Vec<usize> = [Some(1), non_dividing, Some(8), Some(n)]
            .into_iter()
            .flatten()
            .filter(|&k| k <= n)
            .collect();
        counts.sort_unstable();
        counts.dedup();
        counts.into_iter().map(|k| self.reblock(k)).collect()
    }

    /// The catalog version: 0 for a freshly built database, incremented by
    /// every non-empty [`PerfDatabase::push_machines`] call. Monotonically
    /// increasing, so `(request fingerprint, catalog version)` uniquely
    /// identifies a serving result against this catalog's history.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Appends machines (columns) to the **tail block**, folds them into
    /// its zone map, and bumps the catalog version.
    ///
    /// An empty batch is a no-op and does **not** bump the version — it
    /// changes nothing, so it must not invalidate cached results. Scores
    /// are stored verbatim, so a catalog built incrementally through this
    /// method is bitwise-identical to the same catalog built at once,
    /// whatever the block layout.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BenchmarkCountMismatch`] if an entry's score
    /// column does not cover every benchmark row, and
    /// [`DatasetError::InvalidConfig`] if any score is not finite and
    /// positive. On error the database is unchanged.
    pub fn push_machines(&mut self, batch: &[MachineIngest]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let n_benchmarks = self.benchmarks.len();
        validate_ingest(batch, n_benchmarks)?;
        let tail = self.blocks.last_mut().expect("at least one block");
        // Widen the tail's row-major buffer in place, with no second
        // full-size allocation: rows move to their wider offsets last to
        // first (row b lands past the end of every row before it, none of
        // which has moved yet), then the new columns fill each row's end.
        let old_width = tail.scores.cols();
        let width = old_width + batch.len();
        let mut data = std::mem::replace(&mut tail.scores, Matrix::zeros(0, 0)).into_vec();
        data.reserve_exact(n_benchmarks * batch.len());
        data.resize(n_benchmarks * width, 0.0);
        for b in (0..n_benchmarks).rev() {
            data.copy_within(b * old_width..(b + 1) * old_width, b * width);
            for (slot, entry) in data[b * width + old_width..(b + 1) * width]
                .iter_mut()
                .zip(batch)
            {
                *slot = entry.scores[b];
            }
        }
        tail.scores = Matrix::from_vec(n_benchmarks, width, data)
            .expect("appended block has exactly benchmarks × width entries");
        // An ingest entry's score vector IS its machine column.
        for entry in batch {
            tail.zone_map.absorb_machine(&entry.machine, &entry.scores);
            self.machines.push(entry.machine.clone());
        }
        self.catalog_version += 1;
        Ok(())
    }

    /// Number of benchmarks (rows).
    pub fn n_benchmarks(&self) -> usize {
        self.benchmarks.len()
    }

    /// Number of machines (columns).
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Benchmark metadata.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Machine metadata.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// The column blocks, in machine order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Index of the block owning machine column `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfBounds`] when `m >= n_machines()`.
    /// The bounds check runs *before* the block search, so an arbitrary
    /// (e.g. wire-supplied) index can neither underflow nor index out of
    /// range.
    pub fn checked_block_of(&self, m: usize) -> Result<usize> {
        if m >= self.machines.len() {
            return Err(DatasetError::IndexOutOfBounds {
                what: "machine",
                index: m,
                bound: self.machines.len(),
            });
        }
        Ok(self.owner(m))
    }

    /// Index of the block owning an in-bounds machine column `m`.
    fn owner(&self, m: usize) -> usize {
        if self.blocks.len() == 1 {
            return 0;
        }
        // Block starts are strictly increasing from 0: the owner is the
        // last block starting at or before m.
        self.blocks.partition_point(|block| block.start <= m) - 1
    }

    /// Locates machine column `m`: `(block, column local to the block)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    fn locate(&self, m: usize) -> (&Block, usize) {
        assert!(m < self.machines.len(), "machine index out of bounds");
        let block = &self.blocks[self.owner(m)];
        (block, m - block.start)
    }

    /// Score of benchmark `b` on machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn score(&self, b: usize, m: usize) -> f64 {
        assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        let (block, local) = self.locate(m);
        block.scores[(b, local)]
    }

    /// All scores of one machine across benchmarks (one matrix column), as
    /// a zero-copy strided view.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn machine_column(&self, m: usize) -> VecView<'_> {
        let (block, local) = self.locate(m);
        block.scores.col_view(local)
    }
    /// Looks up a benchmark index by name.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::NotFound`] if no benchmark has that name.
    pub fn benchmark_index(&self, name: &str) -> Result<usize> {
        self.benchmarks
            .iter()
            .position(|b| b.name == name)
            .ok_or_else(|| DatasetError::NotFound {
                what: "benchmark",
                name: name.to_owned(),
            })
    }

    /// Indices of all machines belonging to `family`.
    pub fn machines_in_family(&self, family: ProcessorFamily) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.family == family)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released in `year`.
    pub fn machines_in_year(&self, year: u16) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year == year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released strictly before `year`.
    pub fn machines_before_year(&self, year: u16) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year < year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Exports the score table as CSV: header row of machine names, then
    /// one row per benchmark.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark");
        for m in &self.machines {
            out.push(',');
            out.push_str(&format!("{} {}", m.family, m.name).replace(',', ";"));
        }
        out.push('\n');
        for (bi, b) in self.benchmarks.iter().enumerate() {
            out.push_str(&b.name);
            for mi in 0..self.machines.len() {
                out.push_str(&format!(",{:.4}", self.score(bi, mi)));
            }
            out.push('\n');
        }
        out
    }
}

impl DatabaseView for PerfDatabase {
    fn n_benchmarks(&self) -> usize {
        PerfDatabase::n_benchmarks(self)
    }

    fn n_machines(&self) -> usize {
        PerfDatabase::n_machines(self)
    }

    fn benchmarks(&self) -> &[Benchmark] {
        PerfDatabase::benchmarks(self)
    }

    fn machines(&self) -> &[Machine] {
        PerfDatabase::machines(self)
    }

    fn score(&self, b: usize, m: usize) -> f64 {
        PerfDatabase::score(self, b, m)
    }

    fn machine_column(&self, m: usize) -> VecView<'_> {
        PerfDatabase::machine_column(self, m)
    }

    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix {
        // One block: its matrix is the whole table, and the local column
        // is the machine index.
        if let [block] = self.blocks.as_slice() {
            return block.scores.select(benchmarks, machines);
        }
        for &b in benchmarks {
            assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        }
        // Resolve every requested column to its block once, then copy row
        // by row. Values are moved verbatim, so every block layout gathers
        // the same bits.
        let columns: Vec<(&Matrix, usize)> = machines
            .iter()
            .map(|&m| {
                let (block, local) = self.locate(m);
                (&block.scores, local)
            })
            .collect();
        Matrix::from_fn(benchmarks.len(), machines.len(), |i, j| {
            let (scores, local) = columns[j];
            scores[(benchmarks[i], local)]
        })
    }

    fn catalog_version(&self) -> u64 {
        PerfDatabase::catalog_version(self)
    }

    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan {
        // Conservative block pruning: skip a block only when its zone map
        // proves no machine in it can match, or the subset clause has no
        // member in its range. Scanned blocks are visited in machine order,
        // so the machine list equals a full scan's. A lone block is always
        // scanned, so a one-block catalog reports one scanned block.
        let prepared = PreparedFilter::new(filter);
        let prune = self.blocks.len() > 1;
        let mut plan = QueryPlan {
            machines: Vec::new(),
            shards_scanned: 0,
            shards_pruned: 0,
        };
        for block in &self.blocks {
            let range = block.machine_range();
            if prune
                && !(block.zone_map.may_match(filter) && prepared.subset_intersects(range.clone()))
            {
                plan.shards_pruned += 1;
                continue;
            }
            plan.shards_scanned += 1;
            plan.machines
                .extend(range.filter(|&m| prepared.matches(self, m)));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, DatasetConfig};

    fn db() -> PerfDatabase {
        generate(&DatasetConfig::default()).unwrap()
    }

    #[test]
    fn dimensions() {
        let db = db();
        assert_eq!(db.n_benchmarks(), 29);
        assert_eq!(db.n_machines(), 117);
        assert_eq!(db.machine_column(0).len(), 29);
    }

    #[test]
    fn new_builds_one_block_holding_the_row_major_table() {
        let db = db();
        assert_eq!(db.blocks().len(), 1);
        let m = db.blocks()[0].scores();
        assert_eq!(m.shape(), (29, 117));
        assert_eq!(db.blocks()[0].machine_range(), 0..117);
        assert_eq!(m[(3, 5)], db.score(3, 5));
        assert_eq!(db.machine_column(5).to_vec(), m.col(5));
        assert_eq!(db.machine_column(5)[3], db.score(3, 5));
        // Row-major with the machine index fastest: today's dense layout.
        assert_eq!(
            m.as_slice()[3 * 117 + 5].to_bits(),
            db.score(3, 5).to_bits()
        );
    }

    #[test]
    fn reblock_widths_are_balanced_and_cover_all_machines() {
        let db = db();
        for n_blocks in [1, 2, 3, 4, 5, 8, 116, 117] {
            let blocked = db.reblock(n_blocks).unwrap();
            assert_eq!(blocked.blocks().len(), n_blocks);
            let widths: Vec<usize> = blocked.blocks().iter().map(|b| b.scores().cols()).collect();
            // The first n % k blocks are the wide ones.
            for (k, &w) in widths.iter().enumerate() {
                assert_eq!(w, 117 / n_blocks + usize::from(k < 117 % n_blocks));
            }
            let mut next = 0;
            for (k, block) in blocked.blocks().iter().enumerate() {
                assert_eq!(block.machine_range().start, next);
                next = block.machine_range().end;
                for m in block.machine_range() {
                    assert_eq!(blocked.checked_block_of(m), Ok(k));
                }
            }
            assert_eq!(next, 117);
            assert_eq!(blocked.reblock(1).unwrap(), db, "{n_blocks} blocks");
        }
    }

    #[test]
    fn reblock_rejects_invalid_block_counts() {
        let db = db();
        for n_blocks in [0, 118] {
            assert!(matches!(
                db.reblock(n_blocks),
                Err(DatasetError::InvalidConfig {
                    name: "n_blocks",
                    ..
                })
            ));
        }
    }

    #[test]
    fn layout_sweep_covers_the_edge_layouts() {
        let counts = |db: &PerfDatabase| -> Vec<usize> {
            db.layout_sweep()
                .unwrap()
                .iter()
                .map(|layout| layout.blocks().len())
                .collect()
        };
        assert_eq!(counts(&db()), vec![1, 5, 8, 117]);
        let small = db().reblock(1).unwrap();
        let tiny = PerfDatabase::new(
            small.benchmarks().to_vec(),
            small.machines()[..3].to_vec(),
            (0..29 * 3).map(|i| 1.0 + i as f64).collect(),
        )
        .unwrap();
        assert_eq!(counts(&tiny), vec![1, 3]);
    }

    #[test]
    fn checked_block_of_rejects_out_of_range_machines() {
        // Regression: an arbitrary (e.g. wire-supplied) machine index at or
        // past n_machines must yield a typed error, never a panic — before
        // and after an ingest widens the tail block.
        let mut blocked = db().reblock(8).unwrap();
        for m in [117, 118, 1_000_000, usize::MAX] {
            assert_eq!(
                blocked.checked_block_of(m),
                Err(DatasetError::IndexOutOfBounds {
                    what: "machine",
                    index: m,
                    bound: 117,
                })
            );
        }
        let batch = crate::generator::synthesize_ingest(7, blocked.benchmarks(), 3, 0.015).unwrap();
        blocked.push_machines(&batch).unwrap();
        for m in 0..120 {
            let k = blocked.checked_block_of(m).unwrap();
            assert!(blocked.blocks()[k].machine_range().contains(&m));
        }
        assert_eq!(
            blocked.checked_block_of(120),
            Err(DatasetError::IndexOutOfBounds {
                what: "machine",
                index: 120,
                bound: 120,
            })
        );
    }

    /// Every block's zone map covers every machine the block owns.
    fn assert_zone_maps_cover(db: &PerfDatabase) {
        for (k, block) in db.blocks().iter().enumerate() {
            let zone_map = block.zone_map();
            let (y_min, y_max) = zone_map.year_range();
            for m in block.machine_range() {
                let machine = &db.machines()[m];
                assert!(zone_map.families().contains(&machine.family), "block {k}");
                assert!((y_min..=y_max).contains(&machine.year), "block {k}");
                for b in 0..db.n_benchmarks() {
                    let (lo, hi) = zone_map.score_range(b);
                    let score = db.score(b, m);
                    assert!(lo <= score && score <= hi, "block {k} b={b} m={m}");
                }
            }
        }
    }

    #[test]
    fn zone_maps_cover_every_machine() {
        assert_zone_maps_cover(&db());
        assert_zone_maps_cover(&db().reblock(5).unwrap());
    }

    #[test]
    fn pruned_plans_match_full_scans_on_seeded_random_catalogs() {
        use crate::generator::{generate_scaled, ScaleConfig};
        use crate::query::scan_machines;

        // Seeded random shapes and block counts (including non-dividing
        // ones): for every filter, the zone-map-pruned plan must list
        // exactly the machines a full metadata scan finds.
        for (seed, n_machines, n_blocks) in [
            (1u64, 117usize, 5usize),
            (2, 64, 7),
            (3, 230, 9),
            (4, 33, 33),
        ] {
            let db = generate_scaled(&ScaleConfig {
                seed: 0x9A17_05EC ^ seed,
                n_machines,
                ..ScaleConfig::default()
            })
            .unwrap();
            let blocked = db.reblock(n_blocks).unwrap();
            let threshold = db.score(2, n_machines / 2);
            let filters = [
                MachineFilter::all(),
                MachineFilter::family(ProcessorFamily::Xeon),
                MachineFilter::family(ProcessorFamily::Itanium).with_years(2007, 2009),
                MachineFilter::years(2004, 2006),
                MachineFilter::years(1990, 1991), // matches nothing
                MachineFilter::all().with_min_score(2, threshold),
                MachineFilter::all().with_subset(vec![0, n_machines / 2, n_machines - 1]),
                MachineFilter::family(ProcessorFamily::Power6)
                    .with_subset((0..n_machines).step_by(3).collect()),
            ];
            for filter in &filters {
                let full = scan_machines(&db, filter);
                let single = db.plan_machines(filter);
                assert_eq!(single.machines, full, "{filter:?}");
                assert_eq!((single.shards_scanned, single.shards_pruned), (1, 0));
                let plan = blocked.plan_machines(filter);
                assert_eq!(
                    plan.machines, full,
                    "{n_machines} machines @ {n_blocks} blocks, {filter:?}"
                );
                assert_eq!(plan.shards_scanned + plan.shards_pruned, n_blocks);
            }
        }
    }

    #[test]
    fn family_plans_actually_prune_blocks() {
        let db = db();
        let blocked = db.reblock(8).unwrap();
        // The catalog keeps families contiguous, so a one-family
        // restriction must touch only the block(s) spanning that family's
        // column range.
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        let first = blocked.checked_block_of(xeons[0]).unwrap();
        let last = blocked.checked_block_of(*xeons.last().unwrap()).unwrap();
        let plan = blocked.plan_machines(&MachineFilter::family(ProcessorFamily::Xeon));
        assert_eq!(plan.machines, xeons);
        assert!(plan.shards_scanned <= last - first + 1);
        assert!(plan.shards_pruned >= 8 - (last - first + 1));
        assert!(plan.shards_pruned > 0, "8 blocks, one family: must prune");
    }

    #[test]
    fn empty_index_gathers_are_well_formed() {
        let rows: Vec<usize> = (0..29).collect();
        for layout in db().layout_sweep().unwrap() {
            assert_eq!(layout.gather(&[], &[3, 99]).shape(), (0, 2));
            assert_eq!(layout.gather(&rows, &[]).shape(), (29, 0));
            assert_eq!(layout.gather(&[], &[]).shape(), (0, 0));
        }
    }

    #[test]
    fn lookup_by_name() {
        let db = db();
        let idx = db.benchmark_index("libquantum").unwrap();
        assert_eq!(db.benchmarks()[idx].name, "libquantum");
        assert!(db.benchmark_index("not-a-benchmark").is_err());
    }

    #[test]
    fn family_and_year_filters() {
        let db = db();
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        assert_eq!(xeons.len(), 39); // 13 nicknames × 3
        let y2009 = db.machines_in_year(2009);
        assert!(!y2009.is_empty());
        let before = db.machines_before_year(2009);
        assert_eq!(y2009.len() + before.len(), 117); // catalog max year is 2009
    }

    #[test]
    fn csv_shape() {
        let db = db();
        let csv = db.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 30); // header + 29 benchmarks
        assert_eq!(lines[0].split(',').count(), 118); // name + 117 machines
    }

    #[test]
    fn new_validates() {
        let db = db();
        let bad = PerfDatabase::new(
            db.benchmarks().to_vec(),
            db.machines().to_vec(),
            vec![1.0; 5],
        );
        assert!(bad.is_err());
        let neg = PerfDatabase::new(
            db.benchmarks().to_vec(),
            db.machines().to_vec(),
            vec![-1.0; 29 * 117],
        );
        assert!(neg.is_err());
    }

    #[test]
    fn new_rejects_empty_benchmarks() {
        let db = db();
        // A 0 × 117 database would pass the old length check (0 scores for
        // a zero-area matrix) and panic later in every accessor; it must be
        // an explicit error instead.
        assert_eq!(
            PerfDatabase::new(Vec::new(), db.machines().to_vec(), Vec::new()),
            Err(DatasetError::Empty { what: "benchmarks" })
        );
    }

    #[test]
    fn new_rejects_empty_machines() {
        let db = db();
        assert_eq!(
            PerfDatabase::new(db.benchmarks().to_vec(), Vec::new(), Vec::new()),
            Err(DatasetError::Empty { what: "machines" })
        );
    }

    #[test]
    fn new_rejects_zero_area_matrix() {
        // Both dimensions empty: the zero-area matrix case. The benchmarks
        // check fires first; the point is that it cannot construct.
        assert_eq!(
            PerfDatabase::new(Vec::new(), Vec::new(), Vec::new()),
            Err(DatasetError::Empty { what: "benchmarks" })
        );
        // Non-empty scores with empty dimensions must not sneak through
        // either.
        let db = db();
        assert!(PerfDatabase::new(Vec::new(), db.machines().to_vec(), vec![1.0; 5]).is_err());
    }

    #[test]
    fn push_appends_columns_bitwise_and_bumps_version() {
        let mut grown = db();
        let reference = db();
        assert_eq!(grown.catalog_version(), 0);
        let batch: Vec<MachineIngest> = (0..3)
            .map(|i| MachineIngest {
                machine: reference.machines()[i].clone(),
                scores: (0..29).map(|b| reference.score(b, i)).collect(),
            })
            .collect();
        grown.push_machines(&batch).unwrap();
        assert_eq!(grown.n_machines(), 120);
        assert_eq!(grown.catalog_version(), 1);
        // Existing columns untouched, new columns read back bitwise.
        for b in 0..29 {
            for m in 0..117 {
                assert_eq!(grown.score(b, m).to_bits(), reference.score(b, m).to_bits());
            }
            for (i, entry) in batch.iter().enumerate() {
                assert_eq!(grown.score(b, 117 + i).to_bits(), entry.scores[b].to_bits());
            }
        }
        grown.push_machines(&batch[..1]).unwrap();
        assert_eq!(grown.catalog_version(), 2);
    }

    #[test]
    fn push_appends_to_the_tail_block_and_widens_its_zone_map() {
        let reference = db();
        let mut blocked = reference.reblock(5).unwrap();
        let batch =
            crate::generator::synthesize_ingest(3, reference.benchmarks(), 4, 0.015).unwrap();
        blocked.push_machines(&batch).unwrap();
        assert_eq!(blocked.blocks().len(), 5, "the tail block absorbs");
        assert_eq!(blocked.blocks()[4].machine_range(), 94..121);
        assert_eq!(blocked.catalog_version(), 1);
        for (i, entry) in batch.iter().enumerate() {
            assert_eq!(&blocked.machines()[117 + i], &entry.machine);
            for b in 0..29 {
                assert_eq!(
                    blocked.score(b, 117 + i).to_bits(),
                    entry.scores[b].to_bits()
                );
            }
        }
        assert_zone_maps_cover(&blocked);
        // Absorbing equals recomputing: the grown catalog equals the same
        // catalog built at once and blocked the same way.
        let mut single = reference.clone();
        single.push_machines(&batch).unwrap();
        assert_eq!(blocked.reblock(1).unwrap(), single);
    }

    #[test]
    fn empty_push_is_a_noop_without_version_bump() {
        for mut grown in db().layout_sweep().unwrap() {
            let before = grown.clone();
            grown.push_machines(&[]).unwrap();
            assert_eq!(grown, before);
            assert_eq!(grown.catalog_version(), 0);
        }
    }

    #[test]
    fn push_rejects_mismatched_and_invalid_scores() {
        for mut grown in db().layout_sweep().unwrap() {
            let before = grown.clone();
            let machine = grown.machines()[0].clone();
            assert_eq!(
                grown.push_machines(&[MachineIngest {
                    machine: machine.clone(),
                    scores: vec![1.0; 28],
                }]),
                Err(DatasetError::BenchmarkCountMismatch {
                    expected: 29,
                    got: 28
                })
            );
            assert!(matches!(
                grown.push_machines(&[MachineIngest {
                    machine,
                    scores: vec![-1.0; 29],
                }]),
                Err(DatasetError::InvalidConfig { name: "scores", .. })
            ));
            assert_eq!(grown, before, "failed pushes must leave the db unchanged");
        }
    }

    #[test]
    fn trait_and_inherent_accessors_agree() {
        let db = db();
        let view: &dyn DatabaseView = &db;
        assert_eq!(view.n_benchmarks(), db.n_benchmarks());
        assert_eq!(view.n_machines(), db.n_machines());
        assert_eq!(view.score(3, 5).to_bits(), db.score(3, 5).to_bits());
        assert_eq!(
            view.machine_column(5).to_vec(),
            db.machine_column(5).to_vec()
        );
        assert_eq!(view.catalog_version(), 0);
        let sub = view.gather(&[0, 3], &[5, 2, 116]);
        assert_eq!(sub.shape(), (2, 3));
        assert_eq!(sub[(1, 2)].to_bits(), db.score(3, 116).to_bits());
    }
}
