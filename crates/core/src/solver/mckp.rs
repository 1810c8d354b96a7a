//! The MCKP dynamic-program core: one table fill, per-budget extraction.
//!
//! See the [module docs](crate::solver) for the shared-grid argument and
//! the discretization bound, and [`crate::solver::kernel`]'s docs for the
//! branch-free relaxation and the pick-reconstruction argument.
//! [`crate::mckp::solve_dp`] wraps [`solve_dp_with`] on a single-budget
//! grid and is bit-identical to the historical per-call implementation.
//!
//! The DP table is stored as **checkpoint rows**: `(classes + 1) ×
//! buckets`, row `k + 1` holding the state after class `k`. The rows
//! serve double duty — they replace the historical per-class pick table
//! (backtracking reconstructs the winning item from two adjacent rows)
//! and they are what [`mckp_resweep`] resumes from when only a suffix of
//! the classes changed.

use crate::mckp::{tally, validate, MckpError, MckpItem, MckpSolution};
use crate::solver::kernel;
use crate::solver::workspace::SolverWorkspace;
use crate::solver::{validate_budget, validate_resolution, Grid};

const INF: f64 = f64::INFINITY;

/// Read-only view of a filled DP table inside a workspace.
#[derive(Debug, Clone, Copy)]
struct TableRef<'a> {
    rows: &'a [f64],
    weights: &'a [u32],
    energies: &'a [f64],
    offsets: &'a [usize],
}

/// Quantizes every item into the workspace's *staging* lanes: bucket
/// weights into the `u32` weight lane (`u32::MAX` marks an item wider
/// than the table — the same items the historical `usize` weights
/// skipped via `w >= buckets`) and energies into the dense `f64` lane.
/// Staging keeps the previous solve's lanes intact for the incremental
/// diff; [`commit_lanes`] swaps them in.
fn prepare_lanes(classes: &[Vec<MckpItem>], grid: Grid, ws: &mut SolverWorkspace) {
    // The u32 weight lane requires the bucket axis to be u32-addressable;
    // every real grid is (MAX_SWEEP_BUCKETS = 2^20, and a larger
    // single-budget table would be unallocatable long before 2^32).
    debug_assert!(grid.buckets <= u32::MAX as usize);
    ws.mckp_stage_offsets.clear();
    ws.mckp_stage_weights.clear();
    ws.mckp_stage_energies.clear();
    for class in classes {
        ws.mckp_stage_offsets.push(ws.mckp_stage_weights.len());
        for item in class {
            // Same rounding as the historical kernel: ceil, then a
            // saturating float→int cast (NaN → 0), with out-of-table
            // weights collapsed onto the sentinel.
            let w = (item.time_secs / grid.scale).ceil() as usize;
            let w = if w >= grid.buckets {
                u32::MAX
            } else {
                w as u32
            };
            ws.mckp_stage_weights.push(w);
            ws.mckp_stage_energies.push(item.energy);
        }
    }
    ws.mckp_stage_offsets.push(ws.mckp_stage_weights.len());
}

/// Number of leading classes whose staged lanes are bit-identical to the
/// workspace's committed lanes *and* whose checkpoint rows are valid for
/// `grid` — the DP prefix a resweep may reuse. Returns 0 (full refill)
/// whenever the grid, the class count or the table shape changed.
fn reusable_prefix(ws: &SolverWorkspace, grid: Grid, nclasses: usize) -> usize {
    if ws.mckp_grid != Some(grid)
        || ws.mckp_offsets.len() != nclasses + 1
        || ws.mckp_stage_offsets.len() != nclasses + 1
        || ws.mckp_rows.len() != (nclasses + 1) * grid.buckets
    {
        return 0;
    }
    for k in 0..nclasses {
        let (lo, hi) = (ws.mckp_offsets[k], ws.mckp_offsets[k + 1]);
        let (slo, shi) = (ws.mckp_stage_offsets[k], ws.mckp_stage_offsets[k + 1]);
        if (lo, hi) != (slo, shi)
            || ws.mckp_weights[lo..hi] != ws.mckp_stage_weights[lo..hi]
            || ws.mckp_energies[lo..hi]
                .iter()
                .zip(&ws.mckp_stage_energies[lo..hi])
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return k;
        }
    }
    nclasses
}

/// Swaps the staged lanes in as the committed ones and records the grid
/// they quantize to. The displaced lanes become the next staging buffers.
fn commit_lanes(ws: &mut SolverWorkspace, grid: Grid) {
    std::mem::swap(&mut ws.mckp_weights, &mut ws.mckp_stage_weights);
    std::mem::swap(&mut ws.mckp_energies, &mut ws.mckp_stage_energies);
    std::mem::swap(&mut ws.mckp_offsets, &mut ws.mckp_stage_offsets);
    ws.mckp_grid = Some(grid);
}

/// Fills the checkpointed DP table from class `start` on: afterwards
/// `rows[(k + 1) * buckets + b]` is the minimum energy over selections
/// from classes `0..=k` of total bucket-weight exactly `b`. `start == 0`
/// reinitializes the whole table; `start == nclasses` is a no-op (the
/// retained table is already the answer).
fn fill_table_from(nclasses: usize, buckets: usize, start: usize, ws: &mut SolverWorkspace) {
    let SolverWorkspace {
        mckp_rows: rows,
        mckp_weights: weights,
        mckp_energies: energies,
        mckp_offsets: offsets,
        ..
    } = ws;
    if start == 0 {
        rows.clear();
        rows.resize((nclasses + 1) * buckets, INF);
        rows[0] = 0.0;
    }
    for k in start..nclasses {
        let (prev_rows, cur_rows) = rows.split_at_mut((k + 1) * buckets);
        let prev = &prev_rows[k * buckets..];
        let cur = &mut cur_rows[..buckets];
        if start != 0 {
            // Suffix refill over a retained table: the row holds the
            // previous solve's values and must be reset. (A fresh table
            // is already all-INF from the resize above.)
            cur.fill(INF);
        }
        for idx in offsets[k]..offsets[k + 1] {
            let w = weights[idx] as usize;
            if w >= buckets {
                continue;
            }
            kernel::relax_min_into(&prev[..buckets - w], &mut cur[w..], energies[idx]);
        }
    }
}

/// Scans the buckets `0..=limit` of the final row for the cheapest
/// reachable state and backtracks it into a per-class selection by
/// reconstructing each class's winning item from its checkpoint rows.
fn extract(
    classes: &[Vec<MckpItem>],
    buckets: usize,
    limit: usize,
    budget_secs: f64,
    t: TableRef<'_>,
) -> Result<MckpSolution, MckpError> {
    let nclasses = classes.len();
    let last = &t.rows[nclasses * buckets..];
    let mut best_b = None;
    let mut best_e = INF;
    for (b, &e) in last.iter().enumerate().take(limit + 1) {
        if e < best_e {
            best_e = e;
            best_b = Some(b);
        }
    }
    let mut b = best_b.ok_or(MckpError::Infeasible {
        // All-finite was pre-validated; reaching here means ceil-rounding
        // pushed every selection past the budget, which the validation
        // margin makes near-impossible, but report honestly.
        min_time_secs: budget_secs,
        budget_secs,
    })?;

    let mut choices = vec![0usize; nclasses];
    for k in (0..nclasses).rev() {
        let prev = &t.rows[k * buckets..(k + 1) * buckets];
        let value = t.rows[(k + 1) * buckets + b];
        let i = kernel::reconstruct_pick(
            prev,
            &t.weights[t.offsets[k]..t.offsets[k + 1]],
            &t.energies[t.offsets[k]..t.offsets[k + 1]],
            b,
            value,
        )
        .ok_or(MckpError::CorruptTable {
            class: k,
            bucket: b,
        })?;
        choices[k] = i;
        b -= t.weights[t.offsets[k] + i] as usize;
    }
    let (total_time_secs, total_energy) = tally(classes, &choices);
    Ok(MckpSolution {
        choices,
        total_time_secs,
        total_energy,
    })
}

/// [`crate::mckp::solve_dp`] against a caller-provided workspace: same
/// validation, same single-budget grid, zero steady-state allocation.
pub(crate) fn solve_dp_with(
    classes: &[Vec<MckpItem>],
    budget_secs: f64,
    resolution: usize,
    ws: &mut SolverWorkspace,
) -> Result<MckpSolution, MckpError> {
    validate_budget(budget_secs)?;
    validate_resolution(resolution)?;
    validate(classes, budget_secs)?;
    let grid = Grid::single(budget_secs, resolution);
    prepare_lanes(classes, grid, ws);
    commit_lanes(ws, grid);
    fill_table_from(classes.len(), grid.buckets, 0, ws);
    extract(
        classes,
        grid.buckets,
        grid.buckets - 1,
        budget_secs,
        TableRef {
            rows: &ws.mckp_rows,
            weights: &ws.mckp_weights,
            energies: &ws.mckp_energies,
            offsets: &ws.mckp_offsets,
        },
    )
}

/// A filled multi-budget MCKP table: one DP pass over a shared absolute
/// grid, ready to answer any budget up to its maximum with a cheap
/// scan-and-backtrack.
///
/// Borrows the classes it was solved for and the workspace holding the
/// table; extraction ([`MckpSweep::best_for`]) takes `&self`, so budgets
/// can be answered concurrently from several threads.
#[derive(Debug, Clone, Copy)]
pub struct MckpSweep<'a> {
    classes: &'a [Vec<MckpItem>],
    grid: Grid,
    min_time_secs: f64,
    refilled: usize,
    rows: &'a [f64],
    weights: &'a [u32],
    energies: &'a [f64],
    offsets: &'a [usize],
}

/// Runs one MCKP DP pass over the shared grid of `budgets` into `ws` and
/// returns the extraction handle.
///
/// The grid is sized by `Grid::shared`: scaled to the largest budget,
/// with the smallest budget keeping at least `resolution` buckets (see
/// the module docs for the cap on pathological spreads). The table is
/// always filled from scratch; use [`mckp_resweep`] to reuse the
/// workspace's retained checkpoints when only a suffix of the classes
/// changed.
///
/// # Errors
///
/// [`MckpError::InvalidInput`] for an empty batch, non-finite /
/// non-positive budgets or zero resolution; [`MckpError::EmptyClass`] if
/// a class has no items. Per-budget infeasibility is reported by
/// [`MckpSweep::best_for`], not here.
pub fn mckp_sweep<'a>(
    classes: &'a [Vec<MckpItem>],
    budgets: &[f64],
    resolution: usize,
    ws: &'a mut SolverWorkspace,
) -> Result<MckpSweep<'a>, MckpError> {
    // With no checkpoint grid, no prefix is reusable: a full fill.
    ws.mckp_grid = None;
    mckp_resweep(classes, budgets, resolution, ws)
}

/// [`mckp_sweep`] with **incremental re-solve**: diffs the freshly
/// quantized item lanes against the checkpointed table retained in `ws`
/// (bitwise — grid, class sizes, weights and energy bit patterns) and
/// refills only the DP rows from the first changed class on. Unchanged
/// suffixless drift — e.g. the same model re-swept for a new batch of
/// budgets on the same grid, or one class's items perturbed — skips the
/// unaffected prefix entirely; a workspace holding a different grid or
/// model falls back to a full fill.
///
/// The result is **bit-identical** to [`mckp_sweep`] on the same inputs
/// (pinned by the incremental proptests): a prefix is reused only when
/// every byte feeding it is unchanged, so the refilled suffix reads
/// exactly the rows a full fill would have produced.
/// [`MckpSweep::refilled_classes`] reports how much work was done.
///
/// # Errors
///
/// Same conditions as [`mckp_sweep`].
pub fn mckp_resweep<'a>(
    classes: &'a [Vec<MckpItem>],
    budgets: &[f64],
    resolution: usize,
    ws: &'a mut SolverWorkspace,
) -> Result<MckpSweep<'a>, MckpError> {
    let grid = Grid::shared(budgets, resolution)?;
    for (i, class) in classes.iter().enumerate() {
        if class.is_empty() {
            return Err(MckpError::EmptyClass { class: i });
        }
    }
    let min_time_secs: f64 = classes
        .iter()
        .map(|c| c.iter().map(|i| i.time_secs).fold(INF, f64::min))
        .sum();
    prepare_lanes(classes, grid, ws);
    let start = reusable_prefix(ws, grid, classes.len());
    commit_lanes(ws, grid);
    fill_table_from(classes.len(), grid.buckets, start, ws);
    Ok(MckpSweep {
        classes,
        grid,
        min_time_secs,
        refilled: classes.len() - start,
        rows: &ws.mckp_rows,
        weights: &ws.mckp_weights,
        energies: &ws.mckp_energies,
        offsets: &ws.mckp_offsets,
    })
}

impl MckpSweep<'_> {
    /// The shared grid's bucket width in seconds (the `s` of the
    /// discretization bound `OPT(B) ≤ E ≤ OPT(B − n·s)`).
    pub fn scale(&self) -> f64 {
        self.grid.scale
    }

    /// Number of buckets in the shared table.
    pub fn buckets(&self) -> usize {
        self.grid.buckets
    }

    /// Sum of per-class minimum times — the feasibility floor every
    /// budget is checked against.
    pub fn min_time_secs(&self) -> f64 {
        self.min_time_secs
    }

    /// How many trailing classes the producing fill actually refilled:
    /// equal to the class count for [`mckp_sweep`], and the changed
    /// suffix length (possibly 0) for [`mckp_resweep`]. The incremental
    /// cost bound — o(full refill) after a single-class mutation — is
    /// asserted on this counter.
    pub fn refilled_classes(&self) -> usize {
        self.refilled
    }

    /// Extracts the energy-minimal feasible selection for one budget from
    /// the shared table (a bucket scan plus a backtrack; no DP work).
    ///
    /// The budget is rounded *down* to the grid, so the returned selection
    /// is feasible in real time. Budgets above the grid's maximum are
    /// answered as if they were the maximum (the table cannot contain
    /// heavier selections).
    ///
    /// # Errors
    ///
    /// [`MckpError::InvalidInput`] for a non-finite / non-positive budget;
    /// [`MckpError::Infeasible`] if even the fastest selection overruns
    /// `budget_secs`.
    pub fn best_for(&self, budget_secs: f64) -> Result<MckpSolution, MckpError> {
        validate_budget(budget_secs)?;
        if self.min_time_secs > budget_secs {
            return Err(MckpError::Infeasible {
                min_time_secs: self.min_time_secs,
                budget_secs,
            });
        }
        extract(
            self.classes,
            self.grid.buckets,
            self.grid.limit_for(budget_secs),
            budget_secs,
            TableRef {
                rows: self.rows,
                weights: self.weights,
                energies: self.energies,
                offsets: self.offsets,
            },
        )
    }
}

/// Solves every budget of a batch from **one** DP pass: builds the shared
/// table ([`mckp_sweep`]) and extracts each budget in order.
///
/// The outer `Result` carries batch-level errors (degenerate inputs,
/// empty classes); the per-budget entries carry each budget's own
/// feasibility. Results match per-call [`crate::mckp::solve_dp`] within
/// the documented discretization bound.
///
/// # Errors
///
/// Same batch-level conditions as [`mckp_sweep`].
pub fn solve_dp_sweep(
    classes: &[Vec<MckpItem>],
    budgets: &[f64],
    resolution: usize,
) -> Result<Vec<Result<MckpSolution, MckpError>>, MckpError> {
    let mut ws = SolverWorkspace::new();
    let sweep = mckp_sweep(classes, budgets, resolution, &mut ws)?;
    Ok(budgets.iter().map(|&b| sweep.best_for(b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mckp::{solve_dp, solve_exhaustive};

    fn item(t: f64, e: f64) -> MckpItem {
        MckpItem {
            time_secs: t,
            energy: e,
        }
    }

    fn classes() -> Vec<Vec<MckpItem>> {
        vec![
            vec![item(1.0, 10.0), item(2.0, 6.0), item(4.0, 3.0)],
            vec![item(1.0, 8.0), item(3.0, 2.0)],
            vec![item(0.5, 5.0), item(1.5, 4.0), item(2.5, 1.0)],
        ]
    }

    #[test]
    fn sweep_matches_per_call_within_the_bound() {
        let classes = classes();
        let budgets = [3.0, 4.5, 6.0, 9.0];
        let resolution = 4000;
        let sweep = solve_dp_sweep(&classes, &budgets, resolution).unwrap();
        for (sol, &budget) in sweep.iter().zip(&budgets) {
            let sol = sol.as_ref().unwrap();
            let per_call = solve_dp(&classes, budget, resolution).unwrap();
            // Both lie in [OPT(B), OPT(B − n·scale_percall)]; the sweep's
            // grid is at least as fine for every budget in the batch.
            let slack = classes.len() as f64 * budget / resolution as f64;
            let opt = solve_exhaustive(&classes, budget).unwrap();
            let opt_tight = solve_exhaustive(&classes, budget - slack).unwrap();
            assert!(sol.total_time_secs <= budget + 1e-9);
            assert!(sol.total_energy >= opt.total_energy - 1e-9);
            assert!(sol.total_energy <= opt_tight.total_energy + 1e-9);
            assert!(per_call.total_energy >= opt.total_energy - 1e-9);
            assert!(per_call.total_energy <= opt_tight.total_energy + 1e-9);
        }
    }

    #[test]
    fn sweep_reports_per_budget_feasibility() {
        let classes = vec![vec![item(2.0, 1.0)], vec![item(3.0, 1.0)]];
        let out = solve_dp_sweep(&classes, &[4.0, 6.0], 500).unwrap();
        assert!(matches!(out[0], Err(MckpError::Infeasible { .. })));
        assert!(out[1].is_ok());
    }

    #[test]
    fn sweep_rejects_empty_class_up_front() {
        let classes = vec![vec![item(1.0, 1.0)], vec![]];
        assert_eq!(
            solve_dp_sweep(&classes, &[5.0], 100).unwrap_err(),
            MckpError::EmptyClass { class: 1 }
        );
    }

    #[test]
    fn single_budget_sweep_agrees_with_solve_dp_exactly() {
        // With one budget the shared grid *is* the historical grid, so the
        // results must be bit-identical, not merely within the bound.
        let classes = classes();
        for budget in [3.0, 4.5, 6.0, 9.0] {
            let per_call = solve_dp(&classes, budget, 2000).unwrap();
            let via_sweep = solve_dp_sweep(&classes, &[budget], 2000).unwrap()[0]
                .clone()
                .unwrap();
            assert_eq!(per_call, via_sweep);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_shapes() {
        let mut ws = SolverWorkspace::new();
        let a = classes();
        let b = vec![vec![item(0.2, 1.0), item(0.7, 0.4)]; 7];
        for _ in 0..3 {
            for (cl, budget) in [(&a, 6.0), (&b, 3.0), (&a, 3.5)] {
                let fresh = solve_dp(cl, budget, 777).unwrap();
                let reused = solve_dp_with(cl, budget, 777, &mut ws).unwrap();
                assert_eq!(fresh, reused);
            }
        }
    }

    #[test]
    fn relaxing_budget_within_one_table_never_costs_more() {
        let classes = classes();
        let budgets: Vec<f64> = (0..12).map(|i| 3.0 + 0.5 * i as f64).collect();
        let out = solve_dp_sweep(&classes, &budgets, 1000).unwrap();
        let mut prev = f64::INFINITY;
        for sol in out {
            let e = sol.unwrap().total_energy;
            assert!(e <= prev + 1e-12, "relaxed budget got costlier");
            prev = e;
        }
    }

    #[test]
    fn resweep_skips_the_fill_when_nothing_changed() {
        let classes = classes();
        let budgets = [3.0, 4.5, 6.0];
        let mut ws = SolverWorkspace::new();
        let full: Vec<_> = {
            let sweep = mckp_sweep(&classes, &budgets, 1000, &mut ws).unwrap();
            assert_eq!(sweep.refilled_classes(), classes.len());
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        let again: Vec<_> = {
            let sweep = mckp_resweep(&classes, &budgets, 1000, &mut ws).unwrap();
            assert_eq!(sweep.refilled_classes(), 0, "identical solve must reuse");
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        assert_eq!(full, again);
    }

    #[test]
    fn resweep_refills_only_the_changed_suffix() {
        let mut classes = classes();
        let budgets = [3.0, 4.5, 6.0, 9.0];
        let mut ws = SolverWorkspace::new();
        {
            let sweep = mckp_sweep(&classes, &budgets, 1500, &mut ws).unwrap();
            assert_eq!(sweep.refilled_classes(), 3);
        }
        // Mutate the last class only: two rows (prefix of 2 classes)
        // must survive.
        classes[2][1].energy = 3.75;
        let incremental: Vec<_> = {
            let sweep = mckp_resweep(&classes, &budgets, 1500, &mut ws).unwrap();
            assert_eq!(sweep.refilled_classes(), 1);
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        let scratch = solve_dp_sweep(&classes, &budgets, 1500).unwrap();
        assert_eq!(incremental, scratch, "incremental must be bit-identical");
    }

    #[test]
    fn resweep_falls_back_to_full_fill_on_grid_change() {
        let classes = classes();
        let mut ws = SolverWorkspace::new();
        {
            let _ = mckp_sweep(&classes, &[3.0, 6.0], 1000, &mut ws).unwrap();
        }
        let sweep = mckp_resweep(&classes, &[3.5, 6.0], 1000, &mut ws).unwrap();
        assert_eq!(
            sweep.refilled_classes(),
            classes.len(),
            "a different budget batch means a different grid: full refill"
        );
    }

    #[test]
    fn resweep_detects_class_shrink_and_growth() {
        let mut classes = classes();
        let budgets = [4.0, 8.0];
        let mut ws = SolverWorkspace::new();
        let _ = mckp_sweep(&classes, &budgets, 800, &mut ws).unwrap();
        // Shrinking class 1 shifts the lane offsets of everything after it.
        classes[1].pop();
        let incremental: Vec<_> = {
            let sweep = mckp_resweep(&classes, &budgets, 800, &mut ws).unwrap();
            assert_eq!(sweep.refilled_classes(), 2, "classes 1.. must refill");
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        assert_eq!(
            incremental,
            solve_dp_sweep(&classes, &budgets, 800).unwrap()
        );
        // Growing it back (different item) invalidates the same suffix.
        classes[1].push(item(2.5, 2.5));
        let sweep = mckp_resweep(&classes, &budgets, 800, &mut ws).unwrap();
        assert_eq!(sweep.refilled_classes(), 2);
    }

    #[test]
    fn corrupt_workspace_is_a_typed_error_not_a_panic() {
        let classes = classes();
        let mut ws = SolverWorkspace::new();
        let _ = mckp_sweep(&classes, &[6.0], 500, &mut ws).unwrap();
        // Desynchronize the table from the lanes: scribble over the rows.
        for v in ws.mckp_rows.iter_mut() {
            *v = 1.0;
        }
        let sweep = MckpSweep {
            classes: &classes,
            grid: Grid::single(6.0, 500),
            min_time_secs: 0.0,
            refilled: 0,
            rows: &ws.mckp_rows,
            weights: &ws.mckp_weights,
            energies: &ws.mckp_energies,
            offsets: &ws.mckp_offsets,
        };
        assert!(matches!(
            sweep.best_for(6.0),
            Err(MckpError::CorruptTable { .. })
        ));
    }
}
