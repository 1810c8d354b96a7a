//! The sequence-DP core: layered-graph table fill over `(frequency,
//! time-bucket)` states, with per-budget extraction.
//!
//! See the [module docs](crate::solver) for the shared-grid argument and
//! [`crate::solver::kernel`] for the branch-free relaxation and the
//! backtrack-reconstruction argument. [`crate::seqdp::solve_sequence`]
//! wraps [`solve_sequence_with`] on a single-budget grid and is
//! bit-identical to the historical per-call implementation.
//!
//! The table is stored as **per-layer checkpoint rows**: `layers × (nf ×
//! buckets)` with row `k` holding the state after layer `k` (layer 0 is
//! the boot-initialized row). The rows replace the historical
//! `(item, prev_freq, prev_bucket)` trace table — backtracking
//! reconstructs each layer's transition from two adjacent rows, which
//! shrinks the table by the 12-byte-per-state trace — and they are what
//! [`sequence_resweep`] resumes from when only a suffix of the layers
//! changed.

use stm32_rcc::Hertz;

use crate::dse::{DseConfig, DsePoint};
use crate::mckp::MckpError;
use crate::seqdp::{entry_overhead_secs, entry_power, tally_sequence, SequenceSolution};
use crate::solver::workspace::{SeqItem, SolverWorkspace};
use crate::solver::{kernel, validate_budget, validate_resolution, Grid, MAX_SWEEP_STATES};

const INF: f64 = f64::INFINITY;

fn validate_fronts(fronts: &[Vec<DsePoint>]) -> Result<(), MckpError> {
    if fronts.is_empty() {
        return Err(MckpError::InvalidInput {
            field: "fronts",
            reason: "sequence needs at least one layer".into(),
        });
    }
    for (k, f) in fronts.iter().enumerate() {
        if f.is_empty() {
            return Err(MckpError::EmptyClass { class: k });
        }
    }
    Ok(())
}

/// Builds the solve's sorted, deduplicated frequency universe into the
/// workspace's *staging* buffer and returns its size. Staging keeps the
/// previous solve's universe intact for the incremental diff (item
/// frequency ids are only comparable when the universes match).
fn build_freqs(fronts: &[Vec<DsePoint>], ws: &mut SolverWorkspace) -> usize {
    ws.stage_freqs.clear();
    ws.stage_freqs
        .extend(fronts.iter().flat_map(|f| f.iter().map(|p| p.hfo.sysclk())));
    ws.stage_freqs.sort();
    ws.stage_freqs.dedup();
    ws.stage_freqs.len()
}

/// Precomputes every item's frequency id, bucket weights and adjusted
/// energies once into the *staging* lanes — the inner DP transition then
/// only selects between the same/changed variants instead of re-deriving
/// overheads and re-searching `freqs` per layer. Expects [`build_freqs`]
/// to have run.
///
/// # Errors
///
/// [`MckpError::InvalidInput`] if an item's sysclk is missing from the
/// staged frequency universe — impossible when [`build_freqs`] ran over
/// the same fronts, but reported as a typed error rather than a panic so
/// a corrupted workspace cannot take a serving worker down.
fn prepare_items(
    fronts: &[Vec<DsePoint>],
    scale: f64,
    config: &DseConfig,
    idle_power_w: f64,
    ws: &mut SolverWorkspace,
) -> Result<(), MckpError> {
    let freq_id = |f: Hertz, freqs: &[Hertz]| -> Result<u16, MckpError> {
        match freqs.iter().position(|&x| x == f) {
            Some(id) => Ok(id as u16),
            None => Err(MckpError::InvalidInput {
                field: "fronts",
                reason: format!("sysclk {f} missing from the solve's frequency universe"),
            }),
        }
    };
    let weight = |t: f64| -> usize { (t / scale).ceil() as usize };

    ws.seq_stage_offsets.clear();
    ws.seq_stage_items.clear();
    for front in fronts {
        ws.seq_stage_offsets.push(ws.seq_stage_items.len());
        for p in front {
            let base_e = p.energy.as_f64() - idle_power_w * p.latency_secs;
            let overhead = entry_overhead_secs(p, config);
            let overhead_e = entry_power(p, config).as_f64() * overhead - idle_power_w * overhead;
            ws.seq_stage_items.push(SeqItem {
                f_new: freq_id(p.hfo.sysclk(), &ws.stage_freqs)?,
                w_same: weight(p.latency_secs),
                w_diff: weight(p.latency_secs + overhead),
                de_same: base_e,
                de_diff: base_e + overhead_e,
            });
        }
    }
    ws.seq_stage_offsets.push(ws.seq_stage_items.len());
    Ok(())
}

/// Number of leading layers whose staged lanes (and frequency universe)
/// are bit-identical to the workspace's committed state and whose
/// checkpoint rows are valid for `grid` — the DP prefix a resweep may
/// reuse. Returns 0 (full refill) on any grid / universe / shape change.
fn reusable_prefix(ws: &SolverWorkspace, grid: Grid, nlayers: usize) -> usize {
    if ws.seq_grid != Some(grid)
        || ws.freqs != ws.stage_freqs
        || ws.seq_offsets.len() != nlayers + 1
        || ws.seq_stage_offsets.len() != nlayers + 1
        || ws.seq_rows.len() != nlayers * ws.stage_freqs.len() * grid.buckets
    {
        return 0;
    }
    for k in 0..nlayers {
        let (lo, hi) = (ws.seq_offsets[k], ws.seq_offsets[k + 1]);
        let (slo, shi) = (ws.seq_stage_offsets[k], ws.seq_stage_offsets[k + 1]);
        if (lo, hi) != (slo, shi)
            || ws.seq_items[lo..hi]
                .iter()
                .zip(&ws.seq_stage_items[lo..hi])
                .any(|(a, b)| !a.bits_eq(b))
        {
            return k;
        }
    }
    nlayers
}

/// Swaps the staged sequence lanes and frequency universe in as the
/// committed ones and records the grid they quantize to.
fn commit_lanes(ws: &mut SolverWorkspace, grid: Grid) {
    std::mem::swap(&mut ws.seq_items, &mut ws.seq_stage_items);
    std::mem::swap(&mut ws.seq_offsets, &mut ws.seq_stage_offsets);
    std::mem::swap(&mut ws.freqs, &mut ws.stage_freqs);
    ws.seq_grid = Some(grid);
}

/// Fills the checkpointed layered DP grid from layer `start` on:
/// afterwards `rows[k * states + f * buckets + b]` is the minimum
/// adjusted energy over layers `0..=k` having left frequency `f` locked
/// with total bucket-weight exactly `b`.
fn fill_table_from(nlayers: usize, buckets: usize, start: usize, ws: &mut SolverWorkspace) {
    let nf = ws.freqs.len();
    let states = nf * buckets;
    let SolverWorkspace {
        seq_rows: rows,
        seq_items: items,
        seq_offsets: offsets,
        ..
    } = ws;
    if start == 0 {
        rows.clear();
        rows.resize(nlayers * states, INF);
        // Layer 0: the machine boots with the first layer's PLL locked
        // (as the paper's setup does), so no entry cost. The handful of
        // scattered stores stays branchy — it is O(items), not O(states).
        let row0 = &mut rows[..states];
        for it in &items[offsets[0]..offsets[1]] {
            let w = it.w_same;
            if w >= buckets {
                continue;
            }
            let s = it.f_new as usize * buckets + w;
            if it.de_same < row0[s] {
                row0[s] = it.de_same;
            }
        }
    }
    for k in start.max(1)..nlayers {
        let (prev_rows, cur_rows) = rows.split_at_mut(k * states);
        let prev = &prev_rows[(k - 1) * states..];
        let cur = &mut cur_rows[..states];
        if start != 0 {
            // Suffix refill over a retained table (fresh tables are
            // already all-INF from the resize above).
            cur.fill(INF);
        }
        for it in &items[offsets[k]..offsets[k + 1]] {
            let f_new = it.f_new as usize;
            for f_prev in 0..nf {
                let (w, de) = if f_prev == f_new {
                    (it.w_same, it.de_same)
                } else {
                    (it.w_diff, it.de_diff)
                };
                if w >= buckets {
                    continue;
                }
                let prev_row = &prev[f_prev * buckets..f_prev * buckets + (buckets - w)];
                let cur_row = &mut cur[f_new * buckets + w..(f_new + 1) * buckets];
                kernel::relax_min_into(prev_row, cur_row, de);
            }
        }
    }
}

/// Read-only view of a filled sequence-DP table inside a workspace.
#[derive(Debug, Clone, Copy)]
struct SeqTableRef<'a> {
    nf: usize,
    buckets: usize,
    rows: &'a [f64],
    items: &'a [SeqItem],
    offsets: &'a [usize],
}

/// Reconstructs the transition the historical trace table would have
/// stored for state `(f, b)` of layer `k ≥ 1`: the first `(item,
/// prev_freq)` pair — in the fill's iteration order, item-major — whose
/// candidate reproduces `value` bit-for-bit against the previous layer's
/// checkpoint row (see [`crate::solver::kernel`] for why first bitwise
/// match ≡ stored winner). Returns `(item, prev_freq, prev_bucket)`.
fn reconstruct_transition(
    prev: &[f64],
    items: &[SeqItem],
    nf: usize,
    buckets: usize,
    f: usize,
    b: usize,
    value: f64,
) -> Option<(usize, usize, usize)> {
    let bits = value.to_bits();
    for (i, it) in items.iter().enumerate() {
        if it.f_new as usize != f {
            continue;
        }
        for f_prev in 0..nf {
            let (w, de) = if f_prev == f {
                (it.w_same, it.de_same)
            } else {
                (it.w_diff, it.de_diff)
            };
            if w >= buckets || w > b {
                continue;
            }
            let pb = b - w;
            if (prev[f_prev * buckets + pb] + de).to_bits() == bits {
                return Some((i, f_prev, pb));
            }
        }
    }
    None
}

/// Scans the terminal states within `limit` buckets and backtracks the
/// cheapest one into a per-layer selection, then re-tallies it exactly.
fn extract(
    fronts: &[Vec<DsePoint>],
    config: &DseConfig,
    limit: usize,
    budget_secs: f64,
    t: SeqTableRef<'_>,
) -> Result<SequenceSolution, MckpError> {
    let states = t.nf * t.buckets;
    let nlayers = fronts.len();
    let last = &t.rows[(nlayers - 1) * states..nlayers * states];
    let mut best: Option<(usize, usize, f64)> = None;
    for f in 0..t.nf {
        for b in 0..=limit {
            let e = last[f * t.buckets + b];
            if e.is_finite() && best.is_none_or(|(.., be)| e < be) {
                best = Some((f, b, e));
            }
        }
    }
    let (mut f, mut b, _) = best.ok_or(MckpError::Infeasible {
        min_time_secs: budget_secs,
        budget_secs,
    })?;

    let mut choices = vec![0usize; nlayers];
    for k in (1..nlayers).rev() {
        let value = t.rows[k * states + f * t.buckets + b];
        let prev = &t.rows[(k - 1) * states..k * states];
        let (item, pf, pb) = reconstruct_transition(
            prev,
            &t.items[t.offsets[k]..t.offsets[k + 1]],
            t.nf,
            t.buckets,
            f,
            b,
            value,
        )
        .ok_or(MckpError::CorruptTable {
            class: k,
            bucket: b,
        })?;
        choices[k] = item;
        f = pf;
        b = pb;
    }
    // Layer 0 has no predecessor: its state was written directly by the
    // boot init, so the choice is the first item landing exactly on
    // `(f, b)` with the stored energy bits.
    let value = t.rows[f * t.buckets + b];
    let bits = value.to_bits();
    choices[0] = t.items[t.offsets[0]..t.offsets[1]]
        .iter()
        .position(|it| it.f_new as usize == f && it.w_same == b && it.de_same.to_bits() == bits)
        .ok_or(MckpError::CorruptTable {
            class: 0,
            bucket: b,
        })?;
    Ok(tally_sequence(fronts, choices, config))
}

/// [`crate::seqdp::solve_sequence`] against a caller-provided workspace:
/// same validation, same single-budget grid, zero steady-state
/// allocation.
pub(crate) fn solve_sequence_with(
    fronts: &[Vec<DsePoint>],
    budget_secs: f64,
    resolution: usize,
    config: &DseConfig,
    idle_power_w: f64,
    ws: &mut SolverWorkspace,
) -> Result<SequenceSolution, MckpError> {
    validate_budget(budget_secs)?;
    validate_resolution(resolution)?;
    validate_fronts(fronts)?;
    let grid = Grid::single(budget_secs, resolution);
    build_freqs(fronts, ws);
    prepare_items(fronts, grid.scale, config, idle_power_w, ws)?;
    commit_lanes(ws, grid);
    fill_table_from(fronts.len(), grid.buckets, 0, ws);
    extract(
        fronts,
        config,
        grid.buckets - 1,
        budget_secs,
        SeqTableRef {
            nf: ws.freqs.len(),
            buckets: grid.buckets,
            rows: &ws.seq_rows,
            items: &ws.seq_items,
            offsets: &ws.seq_offsets,
        },
    )
}

/// A filled multi-budget sequence-DP table (the [`MckpSweep`] analogue
/// for the re-lock-aware solver).
///
/// [`SequenceSweep::best_for`] takes `&self`, so budgets can be answered
/// concurrently.
///
/// [`MckpSweep`]: crate::solver::MckpSweep
#[derive(Debug, Clone, Copy)]
pub struct SequenceSweep<'a> {
    fronts: &'a [Vec<DsePoint>],
    config: &'a DseConfig,
    grid: Grid,
    nf: usize,
    refilled: usize,
    rows: &'a [f64],
    items: &'a [SeqItem],
    offsets: &'a [usize],
}

/// Runs one sequence-DP pass over the shared grid of `budgets` into `ws`
/// and returns the extraction handle. The table is always filled from
/// scratch; use [`sequence_resweep`] to reuse retained checkpoints.
///
/// # Errors
///
/// [`MckpError::InvalidInput`] for an empty batch / degenerate budgets or
/// resolution / zero layers; [`MckpError::EmptyClass`] if a layer has no
/// candidates. Per-budget infeasibility is reported by
/// [`SequenceSweep::best_for`].
pub fn sequence_sweep<'a>(
    fronts: &'a [Vec<DsePoint>],
    budgets: &[f64],
    resolution: usize,
    config: &'a DseConfig,
    idle_power_w: f64,
    ws: &'a mut SolverWorkspace,
) -> Result<SequenceSweep<'a>, MckpError> {
    // With no checkpoint grid, no prefix is reusable: a full fill.
    ws.seq_grid = None;
    sequence_resweep(fronts, budgets, resolution, config, idle_power_w, ws)
}

/// [`sequence_sweep`] with **incremental re-solve**: diffs the freshly
/// prepared item lanes and frequency universe against the checkpointed
/// table retained in `ws` and refills only the layers from the first
/// change on (the fleet-drift scenario: one layer's Pareto front moved,
/// the prefix below it is reused). Bit-identical to [`sequence_sweep`]
/// on the same inputs — see [`crate::solver::mckp_resweep`] for the
/// reuse-safety argument; [`SequenceSweep::refilled_layers`] reports the
/// work done.
///
/// # Errors
///
/// Same conditions as [`sequence_sweep`].
pub fn sequence_resweep<'a>(
    fronts: &'a [Vec<DsePoint>],
    budgets: &[f64],
    resolution: usize,
    config: &'a DseConfig,
    idle_power_w: f64,
    ws: &'a mut SolverWorkspace,
) -> Result<SequenceSweep<'a>, MckpError> {
    validate_fronts(fronts)?;
    let nf = build_freqs(fronts, ws);
    // The checkpoint table holds one state per (layer, frequency,
    // bucket), so the bucket axis is capped by the total state budget
    // rather than MAX_SWEEP_BUCKETS alone (never below the per-call
    // grid, whose table every historical call already allocated).
    let max_buckets = MAX_SWEEP_STATES / (nf * fronts.len()).max(1);
    let grid = Grid::shared_with_cap(budgets, resolution, max_buckets)?;
    prepare_items(fronts, grid.scale, config, idle_power_w, ws)?;
    let start = reusable_prefix(ws, grid, fronts.len());
    commit_lanes(ws, grid);
    fill_table_from(fronts.len(), grid.buckets, start, ws);
    Ok(SequenceSweep {
        fronts,
        config,
        grid,
        nf,
        refilled: fronts.len() - start,
        rows: &ws.seq_rows,
        items: &ws.seq_items,
        offsets: &ws.seq_offsets,
    })
}

impl SequenceSweep<'_> {
    /// The shared grid's bucket width in seconds.
    pub fn scale(&self) -> f64 {
        self.grid.scale
    }

    /// How many trailing layers the producing fill actually refilled:
    /// the layer count for [`sequence_sweep`], the changed suffix length
    /// (possibly 0) for [`sequence_resweep`].
    pub fn refilled_layers(&self) -> usize {
        self.refilled
    }

    /// Extracts the best feasible sequence for one budget from the shared
    /// table. Budgets above the grid's maximum are answered as if they
    /// were the maximum.
    ///
    /// # Errors
    ///
    /// [`MckpError::InvalidInput`] for a degenerate budget;
    /// [`MckpError::Infeasible`] if no schedule fits `budget_secs`.
    pub fn best_for(&self, budget_secs: f64) -> Result<SequenceSolution, MckpError> {
        validate_budget(budget_secs)?;
        extract(
            self.fronts,
            self.config,
            self.grid.limit_for(budget_secs),
            budget_secs,
            SeqTableRef {
                nf: self.nf,
                buckets: self.grid.buckets,
                rows: self.rows,
                items: self.items,
                offsets: self.offsets,
            },
        )
    }
}

/// Solves every budget of a batch from **one** sequence-DP pass.
///
/// The outer `Result` carries batch-level errors; per-budget entries
/// carry each budget's own feasibility. Results match per-call
/// [`crate::seqdp::solve_sequence`] within the documented discretization
/// bound.
///
/// # Errors
///
/// Same batch-level conditions as [`sequence_sweep`].
pub fn solve_sequence_sweep(
    fronts: &[Vec<DsePoint>],
    budgets: &[f64],
    resolution: usize,
    config: &DseConfig,
    idle_power_w: f64,
) -> Result<Vec<Result<SequenceSolution, MckpError>>, MckpError> {
    let mut ws = SolverWorkspace::new();
    let sweep = sequence_sweep(fronts, budgets, resolution, config, idle_power_w, &mut ws)?;
    Ok(budgets.iter().map(|&b| sweep.best_for(b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqdp::solve_sequence;
    use stm32_power::Joules;

    fn cfg() -> DseConfig {
        DseConfig::paper()
    }

    fn point(t_ms: f64, e_mj: f64, mhz: u64, stage_ms: f64) -> DsePoint {
        let modes = crate::modes::OperatingModes::paper();
        DsePoint {
            granularity: crate::dae::Granularity(if stage_ms > 0.0 { 8 } else { 0 }),
            hfo: *modes.hfo_at(Hertz::mhz(mhz)).expect("in ladder"),
            latency_secs: t_ms * 1e-3,
            energy: Joules::new(e_mj * 1e-3),
            switches: 0,
            first_stage_secs: stage_ms * 1e-3,
        }
    }

    fn fronts() -> Vec<Vec<DsePoint>> {
        vec![
            vec![point(1.0, 0.30, 216, 0.0)],
            vec![point(1.0, 0.20, 150, 0.0), point(1.05, 0.28, 216, 0.0)],
            vec![point(0.8, 0.15, 108, 0.1), point(0.6, 0.25, 216, 0.0)],
        ]
    }

    #[test]
    fn single_budget_sweep_agrees_with_solve_sequence_exactly() {
        let fronts = fronts();
        for budget_ms in [2.7, 3.2, 5.0, 9.0] {
            let budget = budget_ms * 1e-3;
            let per_call = solve_sequence(&fronts, budget, 1500, &cfg(), 0.012).unwrap();
            let via_sweep = solve_sequence_sweep(&fronts, &[budget], 1500, &cfg(), 0.012).unwrap()
                [0]
            .clone()
            .unwrap();
            assert_eq!(per_call, via_sweep);
        }
    }

    #[test]
    fn sweep_answers_every_budget_feasibly() {
        let fronts = fronts();
        let budgets: Vec<f64> = [2.7, 3.0, 4.0, 6.0, 9.0].map(|b| b * 1e-3).to_vec();
        let out = solve_sequence_sweep(&fronts, &budgets, 2000, &cfg(), 0.012).unwrap();
        let mut prev = f64::INFINITY;
        for (sol, &b) in out.iter().zip(&budgets) {
            let sol = sol.as_ref().unwrap();
            let adjusted = sol.total_energy - 0.012 * sol.total_time_secs;
            assert!(sol.total_time_secs <= b + 1e-9, "budget {b} violated");
            assert!(adjusted <= prev + 1e-12, "relaxed budget got costlier");
            prev = adjusted;
        }
    }

    #[test]
    fn sweep_reports_per_budget_infeasibility() {
        let fronts = vec![vec![point(5.0, 0.1, 216, 0.0)]];
        let out = solve_sequence_sweep(&fronts, &[1e-3, 6e-3], 400, &cfg(), 0.0).unwrap();
        assert!(matches!(out[0], Err(MckpError::Infeasible { .. })));
        assert!(out[1].is_ok());
    }

    #[test]
    fn zero_layer_sequence_is_a_typed_error() {
        assert!(matches!(
            solve_sequence_sweep(&[], &[1.0], 100, &cfg(), 0.0),
            Err(MckpError::InvalidInput {
                field: "fronts",
                ..
            })
        ));
    }

    #[test]
    fn resweep_skips_the_fill_when_nothing_changed() {
        let fronts = fronts();
        let budgets: Vec<f64> = [2.7, 4.0, 9.0].map(|b| b * 1e-3).to_vec();
        let cfg = cfg();
        let mut ws = SolverWorkspace::new();
        let full: Vec<_> = {
            let sweep = sequence_sweep(&fronts, &budgets, 1200, &cfg, 0.012, &mut ws).unwrap();
            assert_eq!(sweep.refilled_layers(), fronts.len());
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        let again: Vec<_> = {
            let sweep = sequence_resweep(&fronts, &budgets, 1200, &cfg, 0.012, &mut ws).unwrap();
            assert_eq!(sweep.refilled_layers(), 0, "identical solve must reuse");
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        assert_eq!(full, again);
    }

    #[test]
    fn resweep_refills_only_the_drifted_suffix() {
        let mut fronts = fronts();
        let budgets: Vec<f64> = [2.7, 4.0, 9.0].map(|b| b * 1e-3).to_vec();
        let cfg = cfg();
        let mut ws = SolverWorkspace::new();
        let _ = sequence_sweep(&fronts, &budgets, 1200, &cfg, 0.012, &mut ws).unwrap();
        // Drift the last layer's front (energy only: the frequency
        // universe is unchanged, so the prefix stays valid).
        fronts[2][0].energy = Joules::new(0.17e-3);
        let incremental: Vec<_> = {
            let sweep = sequence_resweep(&fronts, &budgets, 1200, &cfg, 0.012, &mut ws).unwrap();
            assert_eq!(sweep.refilled_layers(), 1, "only the drifted layer refills");
            budgets.iter().map(|&b| sweep.best_for(b)).collect()
        };
        let scratch = solve_sequence_sweep(&fronts, &budgets, 1200, &cfg, 0.012).unwrap();
        assert_eq!(incremental, scratch, "incremental must be bit-identical");
    }

    #[test]
    fn resweep_invalidates_on_frequency_universe_change() {
        let mut fronts = fronts();
        let budgets: Vec<f64> = [2.7, 9.0].map(|b| b * 1e-3).to_vec();
        let cfg = cfg();
        let mut ws = SolverWorkspace::new();
        let _ = sequence_sweep(&fronts, &budgets, 800, &cfg, 0.012, &mut ws).unwrap();
        // A new sysclk anywhere renumbers every item's frequency id, so
        // even a last-layer change must trigger a full refill.
        fronts[2].push(point(0.9, 0.22, 75, 0.0));
        let sweep = sequence_resweep(&fronts, &budgets, 800, &cfg, 0.012, &mut ws).unwrap();
        assert_eq!(sweep.refilled_layers(), fronts.len());
        let scratch = solve_sequence_sweep(&fronts, &budgets, 800, &cfg, 0.012).unwrap();
        let inc: Vec<_> = budgets.iter().map(|&b| sweep.best_for(b)).collect();
        assert_eq!(inc, scratch);
    }
}
