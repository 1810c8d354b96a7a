//! The reusable planning front-end: one construction, many QoS points.
//!
//! [`Planner::new`] pays the expensive, QoS-independent work exactly once
//! — lowering the model, compiling the per-layer segment schedules
//! ([`crate::schedule`]), sweeping the DSE grid (in parallel) and
//! reducing each layer to its Pareto front, then compiling one cost stream
//! per `(layer, Pareto point)` (see [`crate::schedule`]). Every
//! subsequent [`Planner::plan`] call is a solver run plus cost-stream
//! folds that price each candidate selection without a machine replay,
//! which is why sweeping many QoS points ([`Planner::sweep`]) costs
//! barely more than solving one. [`Planner::deploy`] replays the plan it
//! is given on the machine.

use std::sync::{Arc, OnceLock};

use stm32_power::{Joules, PowerModel};
use tinyengine::{qos_window, LoweredModel};
use tinynn::Model;

use crate::artifact::{config_fingerprint, model_fingerprint};
use crate::dse::{DseConfig, DsePoint};
use crate::error::DaeDvfsError;
use crate::mckp::{MckpError, MckpItem};
use crate::pareto::pareto_front;
use crate::pipeline::{DeploymentPlan, DeploymentReport, LayerDecision};
use crate::request::{validate_positive_time, PlanRequest, QosBudget, Solver};
use crate::schedule::{explore_model, replay_decisions, CompiledLayer, CostStreams};
use crate::solver::{mckp_resweep, solve_sequence_with, Grid, MckpSweep, WorkspacePool};
use crate::target::{Stm32F767Target, Target};

/// A reusable planner for one `(model, target)` pair.
///
/// Owns the target description, the lowered profiles, the compiled
/// segment schedules and the per-layer Pareto fronts; borrow it wherever
/// repeated QoS points, plan replays or baseline comparisons are needed.
///
/// # Examples
///
/// ```
/// use dae_dvfs::{DseConfig, PlanRequest, Planner};
/// use tinynn::models::vww_sized;
///
/// # fn main() -> Result<(), dae_dvfs::DaeDvfsError> {
/// let model = vww_sized(32);
/// let planner = Planner::new(&model, &DseConfig::paper())?;
/// let baseline = planner.baseline_latency()?;
/// // The DSE is paid once; each plan call reuses it.
/// for slack in [0.1, 0.3, 0.5] {
///     let plan = planner.plan(&PlanRequest::qos(baseline * (1.0 + slack)))?;
///     assert!(plan.predicted_latency_secs <= baseline * (1.0 + slack));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Planner {
    target: Arc<dyn Target>,
    model: Model,
    config: DseConfig,
    power: Arc<PowerModel>,
    layers: Vec<CompiledLayer>,
    fronts: Vec<Vec<DsePoint>>,
    /// The fronts as MCKP classes under the window-energy objective
    /// (items are valued `E − P_idle·t`).
    classes: Vec<Vec<MckpItem>>,
    /// One cost stream per `(layer, Pareto point)`: prices a candidate
    /// selection bit-identically to a machine replay, without one.
    costs: CostStreams,
    /// Per layer, the fastest Pareto point: the relock-free selection
    /// every reserve-grid search keeps as its always-feasible candidate.
    fastest: Vec<usize>,
    /// [`model_fingerprint`] and [`config_fingerprint`] of this planner,
    /// computed once at construction: every artifact, registry entry and
    /// cache key reads them from here.
    model_fingerprint: u64,
    config_fingerprint: u64,
    /// The baseline lowering and its replayed latency, computed together
    /// on first use; a lowering error is returned again on the next call.
    baseline: OnceLock<(LoweredModel, f64)>,
    /// `std::thread::available_parallelism`, read once at construction:
    /// sizes the workspace pool and caps the extraction striping.
    parallelism: usize,
    /// Pool of reusable flat DP buffers shared by every solver call on
    /// this planner; concurrent solves check out distinct workspaces, so
    /// contended callers still reuse warmed buffers instead of allocating
    /// throw-aways (plans never depend on which workspace was used — the
    /// buffers are pure scratch).
    workspace: WorkspacePool,
}

impl Planner {
    /// Lowers `model`, compiles its schedules and runs the full DSE sweep
    /// under `config` on the paper's STM32F767 platform.
    ///
    /// Thin wrapper over [`Planner::for_target`] with
    /// [`Stm32F767Target::with_config`] (or, for the default
    /// configuration, [`Stm32F767Target::paper`]); plans are bit-identical
    /// to the pre-target pipeline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::for_target`].
    pub fn new(model: &Model, config: &DseConfig) -> Result<Self, DaeDvfsError> {
        Planner::for_target(Stm32F767Target::with_config(config.clone()), model)
    }

    /// Lowers `model`, compiles its schedules and runs the full DSE sweep
    /// for an arbitrary [`Target`] platform.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::EmptyModel`] for zero-layer models;
    /// [`DaeDvfsError::InvalidRequest`] if the target's configuration is
    /// degenerate (zero DP resolution, empty granularity set); propagates
    /// lowering errors.
    pub fn for_target(target: impl Target + 'static, model: &Model) -> Result<Self, DaeDvfsError> {
        Planner::for_target_arc(Arc::new(target), model)
    }

    /// [`Planner::for_target`] for an already-shared target handle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::for_target`].
    pub fn for_target_arc(target: Arc<dyn Target>, model: &Model) -> Result<Self, DaeDvfsError> {
        let config = target.dse_config();
        if config.dp_resolution == 0 {
            return Err(DaeDvfsError::InvalidRequest {
                field: "dp_resolution",
                reason: "must be non-zero".into(),
            });
        }
        if config.granularities.is_empty() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "granularities",
                reason: "must not be empty".into(),
            });
        }
        let profiles = crate::pipeline::lower_model(model)?;
        if profiles.is_empty() {
            return Err(DaeDvfsError::EmptyModel {
                model: model.name.clone(),
            });
        }
        let power = Arc::new(config.power.clone());
        let layers: Vec<CompiledLayer> = profiles
            .into_iter()
            .map(|p| CompiledLayer::compile(p, &config))
            .collect();
        let fronts: Vec<Vec<DsePoint>> = explore_model(&layers, &config, &power)
            .into_iter()
            .map(pareto_front)
            .collect();
        debug_assert!(fronts.iter().all(|f| !f.is_empty()));
        let idle_power = config.power.clock_gated_power.as_f64();
        let classes = fronts
            .iter()
            .map(|front| {
                front
                    .iter()
                    .map(|pt| MckpItem {
                        time_secs: pt.latency_secs,
                        energy: pt.energy.as_f64() - idle_power * pt.latency_secs,
                    })
                    .collect()
            })
            .collect();
        let costs = CostStreams::compile(&layers, &fronts, &config, &power);
        let fastest = fronts
            .iter()
            .map(|front| {
                front
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1.latency_secs
                            .partial_cmp(&b.1.latency_secs)
                            .expect("latencies are finite")
                    })
                    .map(|(i, _)| i)
                    .expect("fronts are non-empty")
            })
            .collect();
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Ok(Planner {
            target,
            model_fingerprint: model_fingerprint(&model.name, &layers),
            config_fingerprint: config_fingerprint(&config),
            model: model.clone(),
            config,
            power,
            layers,
            fronts,
            classes,
            costs,
            fastest,
            baseline: OnceLock::new(),
            parallelism,
            workspace: WorkspacePool::new(parallelism),
        })
    }

    /// The platform this planner prices against.
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// The model this planner was built for.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The exploration configuration (immutable: schedules and fronts were
    /// compiled under it).
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// The compiled per-layer schedules, in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// The per-layer Pareto fronts the solvers select from.
    pub fn fronts(&self) -> &[Vec<DsePoint>] {
        &self.fronts
    }

    /// The shared power model every machine replay prices against; pass it
    /// to [`CompiledLayer::evaluate`] to avoid re-allocating one.
    pub fn power(&self) -> &Arc<PowerModel> {
        &self.power
    }

    /// [`model_fingerprint`] of this planner's model and compiled layers.
    pub(crate) fn model_fingerprint(&self) -> u64 {
        self.model_fingerprint
    }

    /// [`config_fingerprint`] of this planner's configuration.
    pub(crate) fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// The target's baseline lowering of this model, compiled once and
    /// cached (TinyEngine at 216 MHz on the F767; the target's fastest HFO
    /// elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates baseline lowering errors (e.g. SRAM budget overflows the
    /// DAE path does not check).
    pub fn baseline(&self) -> Result<&LoweredModel, DaeDvfsError> {
        self.lowered_baseline().map(|(lowered, _)| lowered)
    }

    /// The baseline inference latency at the target's fixed baseline
    /// clock, priced on the target's machine substrate. Replayed once,
    /// together with the baseline lowering, and cached.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::baseline`].
    pub fn baseline_latency(&self) -> Result<f64, DaeDvfsError> {
        self.lowered_baseline().map(|&(_, latency)| latency)
    }

    /// The cached baseline lowering and its replayed latency, computed on
    /// first success.
    fn lowered_baseline(&self) -> Result<&(LoweredModel, f64), DaeDvfsError> {
        if let Some(baseline) = self.baseline.get() {
            return Ok(baseline);
        }
        let lowered = self.target.compile_baseline(&self.model)?;
        let mut machine = self.target.baseline_machine(*lowered.clock());
        let latency = lowered.run_on(&mut machine).total_time_secs;
        // A concurrent caller may have won the race; either value is
        // identical, so the set result is irrelevant.
        let _ = self.baseline.set((lowered, latency));
        Ok(self.baseline.get().expect("baseline just initialized"))
    }

    fn build_decisions(&self, choices: &[usize]) -> Vec<LayerDecision> {
        self.layers
            .iter()
            .zip(&self.fronts)
            .zip(choices)
            .map(|((layer, front), &choice)| LayerDecision {
                name: layer.profile().name.clone(),
                kind: layer.profile().kind,
                point: front[choice].clone(),
            })
            .collect()
    }

    /// The sum of per-class fastest times: no window below it is feasible.
    fn min_time(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// The deepest budget the reserve-grid search will ever solve for:
    /// the sum of per-class fastest times scaled by a rounding margin (so
    /// the DP's ceil-rounding — at most one bucket per class — cannot
    /// round the fastest selection out of the smallest budget). Both the
    /// search's reserve cap and every table's grid derive from this one
    /// definition, which is what guarantees a table covers every budget
    /// the search can visit.
    fn qos_floor(&self, resolution: usize) -> f64 {
        let rounding_margin = 1.0 + (self.classes.len() + 1) as f64 / resolution as f64;
        self.min_time() * rounding_margin
    }

    /// The reserve-grid budget search behind [`Solver::ReserveGrid`]: every
    /// budget it visits is answered by extraction from `table`
    /// ([`MckpSweep::best_for`]), whose grid covers `qos_secs` and the
    /// feasibility floor.
    ///
    /// DSE items are relock-free, so the DP solution can overrun once
    /// inter-layer re-locks are priced. Rather than accepting the first
    /// feasible reserve, evaluate a deterministic grid of reserves
    /// (anchored on the observed overhead of the unreserved solution) and
    /// keep the feasible schedule with the lowest *window* energy. The
    /// all-fastest selection — maximum HFO everywhere, hence relock-free
    /// — is always a candidate, so the search only fails when the
    /// instance is genuinely infeasible.
    ///
    /// Candidates are priced by folding the compiled cost streams
    /// (`CostStreams::price`), which equals a machine replay of the
    /// candidate's decisions bit for bit, and `LayerDecision`s are built
    /// for the winner only. Distinct budgets frequently backtrack to the
    /// same selection, so pricing is deduplicated by choice vector
    /// (identical choices price identically; the first instance already
    /// fed the search, and the strict `<` on the score means duplicates
    /// can never change the winner).
    fn search_reserve_grid(
        &self,
        qos_secs: f64,
        resolution: usize,
        table: &MckpSweep<'_>,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let idle_power = self.config.power.clock_gated_power.as_f64();
        let reserve_cap = (qos_secs - self.qos_floor(resolution)).max(0.0);

        // Every distinct choice vector priced so far, with its latency;
        // `best` is `(score, index into seen, latency, energy)`.
        let mut seen: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut best: Option<(f64, usize, f64, Joules)> = None;
        let mut try_candidate = |choices: Vec<usize>| -> f64 {
            if let Some((_, latency)) = seen.iter().find(|(c, _)| *c == choices) {
                return *latency;
            }
            let (latency, energy) = self.costs.price(&choices);
            if latency <= qos_secs {
                let score = energy.as_f64() + idle_power * (qos_secs - latency);
                if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                    best = Some((score, seen.len(), latency, energy));
                }
            }
            seen.push((choices, latency));
            latency
        };

        // Anchor: the unreserved solution and its observed switching
        // overhead.
        let base = table.best_for(qos_secs)?;
        let base_time = base.total_time_secs;
        let base_latency = try_candidate(base.choices);
        let overhead = (base_latency - base_time).max(0.0);

        let mut reserves: Vec<f64> = [0.5, 1.0, 1.5, 2.0, 3.0]
            .iter()
            .map(|k| (k * overhead).min(reserve_cap))
            .filter(|r| *r > 0.0)
            .collect();
        // Also cover the budget axis itself: overhead-anchored points can
        // miss the regime where a much tighter budget yields a schedule
        // with fewer distinct frequencies (and therefore fewer re-locks).
        for frac in [0.1, 0.2, 0.3, 0.5, 0.7] {
            reserves.push(frac * reserve_cap);
        }
        reserves.push(reserve_cap);
        reserves.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        reserves.dedup();
        for reserve in reserves {
            let budget = qos_secs - reserve;
            if budget <= 0.0 {
                continue;
            }
            if let Ok(solution) = table.best_for(budget) {
                try_candidate(solution.choices);
            }
        }

        // Always-feasible candidate: per-layer fastest (relock-free).
        let latency = try_candidate(self.fastest.clone());

        match best {
            Some((_, winner, latency, energy)) => Ok(DeploymentPlan {
                model: self.model.name.clone(),
                qos_secs,
                decisions: self.build_decisions(&seen[winner].0),
                predicted_latency_secs: latency,
                predicted_energy: energy,
            }),
            None => Err(DaeDvfsError::Qos(MckpError::Infeasible {
                min_time_secs: latency,
                budget_secs: qos_secs,
            })),
        }
    }

    /// [`Solver::SequenceDp`] at DP resolution `resolution`: the
    /// layered-graph DP of [`crate::seqdp`], its winner priced by a
    /// cost-stream fold.
    fn optimize_sequence_at(
        &self,
        qos_secs: f64,
        resolution: usize,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let idle_power = self.config.power.clock_gated_power.as_f64();
        let solution = self.workspace.run(|ws| {
            solve_sequence_with(
                &self.fronts,
                qos_secs,
                resolution,
                &self.config,
                idle_power,
                ws,
            )
        })?;
        let (latency, energy) = self.costs.price(&solution.choices);
        if latency > qos_secs {
            return Err(DaeDvfsError::Qos(crate::mckp::MckpError::Infeasible {
                min_time_secs: latency,
                budget_secs: qos_secs,
            }));
        }
        Ok(DeploymentPlan {
            model: self.model.name.clone(),
            qos_secs,
            decisions: self.build_decisions(&solution.choices),
            predicted_latency_secs: latency,
            predicted_energy: energy,
        })
    }

    /// Executes a deployment plan against the compiled schedules and idles
    /// (clock gated) until the QoS deadline.
    ///
    /// # Errors
    ///
    /// Currently infallible for plans produced by this planner.
    ///
    /// # Panics
    ///
    /// Panics if the plan's layer count does not match the model, or if
    /// the replayed schedule overruns the plan's QoS window — neither can
    /// happen for plans produced by this planner.
    pub fn deploy(&self, plan: &DeploymentPlan) -> Result<DeploymentReport, DaeDvfsError> {
        assert_eq!(
            self.layers.len(),
            plan.decisions.len(),
            "plan does not match the model layer count"
        );
        let (inference_secs, inference_energy) =
            replay_decisions(&self.layers, &plan.decisions, &self.config, &self.power);
        let remaining = plan.qos_secs - inference_secs;
        assert!(
            remaining >= -1e-9,
            "deployment overran its QoS window: {inference_secs}s > {}s",
            plan.qos_secs
        );
        let idle_energy = self.config.power.clock_gated_power * remaining.max(0.0);
        Ok(DeploymentReport {
            plan: plan.clone(),
            inference_secs,
            inference_energy,
            idle_energy,
            total_energy: inference_energy + idle_energy,
        })
    }

    /// Optimizes a batch of QoS windows against the shared caches with a
    /// **single DP pass**: one MCKP table is filled over a shared
    /// absolute time grid covering every window (and every reserve budget
    /// the search can visit), and each window's entire reserve-grid
    /// search then runs on cheap per-budget extractions
    /// ([`crate::solver::MckpSweep::best_for`]) instead of re-running the
    /// DP per budget. The per-window work is striped over
    /// `std::thread::scope` when more than one core is available —
    /// extractions and candidate pricing are independent and read-only on
    /// the shared table, so results are identical to the sequential
    /// order.
    ///
    /// Duplicate windows are solved **once** and fanned back out to every
    /// occurrence (bit-identical: the solve for a window is
    /// deterministic). A window's plan is also independent of which other
    /// windows share the batch — for windows above the feasibility floor
    /// the shared grid's scale is `floor / resolution` regardless of the
    /// batch, and a DP table's prefix does not depend on the buckets
    /// above it — which is what lets [`crate::service`] coalesce
    /// concurrent requests through this path without changing any
    /// caller's answer.
    ///
    /// Every returned plan is feasible and bit-identical to what
    /// [`Planner::plan`] returns for a reserve-grid request of that
    /// window: `plan` is the singleton sweep. Plans are returned in window
    /// order.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive windows;
    /// the error of the earliest infeasible window otherwise.
    pub fn sweep(
        &self,
        qos_windows: impl IntoIterator<Item = f64>,
    ) -> Result<Vec<DeploymentPlan>, DaeDvfsError> {
        let windows: Vec<f64> = qos_windows.into_iter().collect();
        for &q in &windows {
            validate_positive_time("qos_secs", q)?;
        }
        // Dedup repeated windows (first-occurrence order); NaN was
        // rejected above, so bit equality is value equality.
        let mut distinct: Vec<f64> = Vec::new();
        let mapping: Vec<usize> = windows
            .iter()
            .map(|&w| {
                distinct
                    .iter()
                    .position(|&d| d.to_bits() == w.to_bits())
                    .unwrap_or_else(|| {
                        distinct.push(w);
                        distinct.len() - 1
                    })
            })
            .collect();
        let solved = self.solve_distinct(
            Solver::ReserveGrid,
            &distinct,
            self.config.dp_resolution,
            usize::MAX,
        );
        // Fan results back out in window order; the earliest failing
        // window's error surfaces.
        mapping.into_iter().map(|p| solved[p].clone()).collect()
    }

    /// Answers a batch of **distinct**, already validated windows with
    /// `solver` at DP resolution `resolution`, one `Result` per window in
    /// window order. This is the one solve path: [`Planner::plan`],
    /// [`Planner::sweep`] and the [`crate::service`] workers all call it,
    /// so only the planner knows what each [`Solver`] runs.
    ///
    /// [`Solver::ReserveGrid`] windows at or above the feasibility floor
    /// share one DP table whose scale is `floor / resolution` — a function
    /// of the planner and the resolution only, never of the batch — and a
    /// DP table's prefix does not depend on how many buckets lie above
    /// it, so **a window's plan is independent of which other windows
    /// were batched with it** (in particular, bit-identical to
    /// [`Planner::plan`] of that window). Windows below the floor, and
    /// batches whose spread would cap the shared grid
    /// ([`crate::solver::MAX_SWEEP_BUCKETS`]), get one `{window, floor}`
    /// table each — exactly the grid a singleton batch builds — which
    /// keeps the invariance at the cost of extra DP fills.
    /// [`Solver::SequenceDp`] windows are solved one by one.
    ///
    /// Every table is filled through [`crate::solver::mckp_resweep`]: when
    /// the pooled workspace still holds this planner's checkpointed table
    /// for the same grid — the hot-group serving pattern, where one model
    /// is re-swept batch after batch — the fill is skipped, bit-identically
    /// to a cold fill (checkpoints are reused only when the grid and every
    /// item lane byte match).
    ///
    /// `max_threads` caps the extraction striping (the table fill itself
    /// is single-threaded): the service workers pass their share of the
    /// machine so concurrent batches do not oversubscribe it.
    pub(crate) fn solve_distinct(
        &self,
        solver: Solver,
        windows: &[f64],
        resolution: usize,
        max_threads: usize,
    ) -> Vec<Result<DeploymentPlan, DaeDvfsError>> {
        match solver {
            Solver::SequenceDp => {
                return windows
                    .iter()
                    .map(|&w| self.optimize_sequence_at(w, resolution))
                    .collect();
            }
            Solver::ReserveGrid => {}
        }
        let min_time = self.min_time();
        let floor = self.qos_floor(resolution);
        let floor_ok = floor.is_finite() && floor > 0.0;
        let mut slots: Vec<Option<Result<DeploymentPlan, DaeDvfsError>>> =
            vec![None; windows.len()];
        let mut singles: Vec<(usize, f64)> = Vec::new();
        let mut shared: Vec<(usize, f64)> = Vec::new();
        for (i, &w) in windows.iter().enumerate() {
            if min_time > w {
                // Below the fastest selection: infeasible before any DP
                // work — the same error the table extraction would report.
                slots[i] = Some(Err(DaeDvfsError::Qos(MckpError::Infeasible {
                    min_time_secs: min_time,
                    budget_secs: w,
                })));
            } else if floor_ok && w >= floor {
                shared.push((i, w));
            } else {
                singles.push((i, w));
            }
        }

        let mut fill = |budgets: &[f64], targets: &[(usize, f64)]| {
            for (i, plan) in self.solve_on_table(budgets, resolution, max_threads, targets) {
                slots[i] = Some(plan);
            }
        };
        if !shared.is_empty() {
            let mut budgets: Vec<f64> = shared.iter().map(|&(_, w)| w).collect();
            budgets.push(floor);
            // The batch-independent scale the shared grid resolves to
            // when uncapped; a capped grid would couple every window's
            // answer to the batch maximum, so capped batches fall back to
            // per-window tables instead.
            match Grid::shared(&budgets, resolution) {
                Ok(grid) if grid.scale == floor / resolution as f64 => fill(&budgets, &shared),
                _ => singles.append(&mut shared),
            }
        }
        for (i, w) in singles {
            let budgets = if floor_ok { vec![w, floor] } else { vec![w] };
            fill(&budgets, &[(i, w)]);
        }

        slots
            .into_iter()
            .map(|slot| slot.expect("every window is solved exactly once"))
            .collect()
    }

    /// Fills one table for `budgets` and answers every `(slot, window)`
    /// target by extraction, striping the per-window reserve searches over
    /// `std::thread::scope`.
    fn solve_on_table(
        &self,
        budgets: &[f64],
        resolution: usize,
        max_threads: usize,
        targets: &[(usize, f64)],
    ) -> Vec<(usize, Result<DeploymentPlan, DaeDvfsError>)> {
        let mut ws = self.workspace.take();
        let solved = match mckp_resweep(&self.classes, budgets, resolution, &mut ws) {
            Ok(table) => {
                let threads = self.parallelism.min(max_threads.max(1)).min(targets.len());
                let search = |&(i, qos): &(usize, f64)| {
                    (i, self.search_reserve_grid(qos, resolution, &table))
                };
                if threads <= 1 {
                    targets.iter().map(search).collect()
                } else {
                    std::thread::scope(|s| {
                        let handles: Vec<_> = (0..threads)
                            .map(|t| {
                                s.spawn(move || {
                                    targets
                                        .iter()
                                        .skip(t)
                                        .step_by(threads)
                                        .map(search)
                                        .collect::<Vec<_>>()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("sweep worker thread panicked"))
                            .collect()
                    })
                }
            }
            Err(e) => targets
                .iter()
                .map(|&(i, _)| (i, Err(DaeDvfsError::Qos(e.clone()))))
                .collect(),
        };
        self.workspace.put(ws);
        solved
    }

    /// Convenience: plans [`PlanRequest::slack`]`(slack)` and deploys
    /// the plan.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive slacks;
    /// propagates baseline, optimization and deployment errors.
    pub fn run(&self, slack: f64) -> Result<DeploymentReport, DaeDvfsError> {
        let plan = self.plan(&PlanRequest::slack(slack))?;
        self.deploy(&plan)
    }

    /// Solves a typed [`PlanRequest`] against the cached fronts: the
    /// budget is resolved (slack → window via the target baseline), the
    /// requested solver runs at the requested resolution (the planner's
    /// configured one by default), and degenerate requests are rejected
    /// before any solver work.
    ///
    /// Both solvers minimize *window* energy: inference energy plus
    /// clock-gated idling until the deadline (MCKP items are valued
    /// `E − P_idle·t`), so a slower point is only chosen when it beats
    /// finishing fast and gating the clocks.
    /// [`Solver::ReserveGrid`] runs a reserve-grid budget search around
    /// the relock-free DP solution, every candidate priced with its
    /// inter-layer switching costs (a cost-stream fold equal to a machine
    /// replay), the feasible schedule with the lowest window energy
    /// winning. [`Solver::SequenceDp`] runs the layered-graph DP of
    /// [`crate::seqdp`].
    ///
    /// The request is answered as a one-window batch of the path that
    /// [`Planner::sweep`] and [`crate::PlanService`] solve through, so a
    /// reserve-grid plan is bit-identical to the singleton sweep of its
    /// window, and every answer is the one the service serves for the
    /// same request under its default zero QoS quantum.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for degenerate knobs;
    /// [`DaeDvfsError::Qos`] if even the fastest schedule misses the
    /// window.
    pub fn plan(&self, request: &PlanRequest) -> Result<DeploymentPlan, DaeDvfsError> {
        request.validate()?;
        let qos_secs = match request.budget() {
            QosBudget::Window(qos) => qos,
            QosBudget::Slack(slack) => qos_window(self.baseline_latency()?, slack),
        };
        let resolution = request.dp_resolution().unwrap_or(self.config.dp_resolution);
        self.solve_distinct(request.solver(), &[qos_secs], resolution, 1)
            .pop()
            .expect("one answer per window")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::OperatingModes;
    use crate::target::GenericCortexMTarget;
    use stm32_rcc::{Hertz, SwitchCostModel};
    use tinynn::models::{self, vww};

    fn vww_planner() -> Planner {
        Planner::new(&vww(), &DseConfig::paper()).unwrap()
    }

    /// `model` on a lean Cortex-M ladder (50 MHz LFO; 80, 120 and
    /// 160 MHz HFOs).
    fn lean_planner(model: &Model) -> Planner {
        let modes = OperatingModes::from_sysclks(
            Hertz::mhz(50),
            Hertz::mhz(50),
            &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
        )
        .unwrap();
        let target = GenericCortexMTarget::new("cortex-m-lean").with_modes(modes);
        Planner::for_target(target, model).unwrap()
    }

    /// The planners `tests/plan_goldens.rs` pins: the paper models on the
    /// F767, VWW-32 and PD-32 on the lean ladder, and VWW-32 on the F767
    /// with a 1 ms PLL re-lock.
    fn golden_planners() -> Vec<Planner> {
        let relock = DseConfig::paper().with_switch_model(SwitchCostModel::new(1e-3, 1e-6));
        vec![
            Planner::new(&vww(), &DseConfig::paper()).unwrap(),
            Planner::new(&models::person_detection(), &DseConfig::paper()).unwrap(),
            Planner::new(&models::mobilenet_v2(), &DseConfig::paper()).unwrap(),
            lean_planner(&models::vww_sized(32)),
            lean_planner(&models::person_detection_sized(32)),
            Planner::for_target(Stm32F767Target::with_config(relock), &models::vww_sized(32))
                .unwrap(),
        ]
    }

    #[test]
    fn cached_constants_equal_their_definitions() {
        for planner in golden_planners() {
            let name = &planner.model().name;
            let model_fp = model_fingerprint(name, planner.layers());
            let config_fp = config_fingerprint(planner.config());
            assert_eq!(planner.model_fingerprint(), model_fp, "{name}");
            assert_eq!(planner.config_fingerprint(), config_fp, "{name}");

            // A fresh lowering replayed on a fresh baseline machine.
            let lowered = planner.target().compile_baseline(planner.model()).unwrap();
            let fresh = lowered
                .run_on(&mut planner.target().baseline_machine(*lowered.clock()))
                .total_time_secs;
            for _ in 0..2 {
                let cached = planner.baseline_latency().unwrap();
                assert_eq!(cached.to_bits(), fresh.to_bits(), "{name}");
            }

            let plan = planner.plan(&PlanRequest::slack(0.3)).unwrap();
            let artifact = plan.to_artifact(&planner);
            assert_eq!(
                (artifact.model_fingerprint, artifact.config_fingerprint),
                (model_fp, config_fp),
                "{name}"
            );
        }
    }

    #[test]
    fn a_window_just_below_a_served_latency_is_met_or_infeasible() {
        // Re-planning 5e-7 (relative) below a served plan's latency rules
        // that plan out: the answer must be a different plan that fits,
        // or a typed infeasibility — never a plan that overruns by less
        // than a rounding slop. Full-size VWW on the F767 has windows
        // where the served selection is revisited at the tighter window.
        let planners = [
            vww_planner(),
            Planner::new(&models::person_detection_sized(32), &DseConfig::paper()).unwrap(),
            lean_planner(&models::vww_sized(32)),
        ];
        for planner in &planners {
            let baseline = planner.baseline_latency().unwrap();
            for slack in (0..=50).map(|i| f64::from(i) * 0.02) {
                for solver in [Solver::ReserveGrid, Solver::SequenceDp] {
                    let request = PlanRequest::qos(qos_window(baseline, slack)).with_solver(solver);
                    let served = planner.plan(&request).unwrap();
                    let tight = served.predicted_latency_secs * (1.0 - 5e-7);
                    match planner.plan(&PlanRequest::qos(tight).with_solver(solver)) {
                        Ok(plan) => {
                            assert_eq!(plan.qos_secs, tight);
                            assert!(
                                plan.predicted_latency_secs <= tight,
                                "{} {solver:?} at slack {slack}: {} > {tight}",
                                planner.model().name,
                                plan.predicted_latency_secs
                            );
                        }
                        Err(DaeDvfsError::Qos(MckpError::Infeasible { .. })) => {}
                        Err(other) => panic!("expected a plan or Infeasible, got {other:?}"),
                    }
                }
            }
        }
    }

    /// Inference energy plus clock-gated idling to the end of the window:
    /// the objective both solvers minimize.
    fn window_energy(planner: &Planner, plan: &DeploymentPlan) -> f64 {
        let gated = planner.config().power.clock_gated_power.as_f64();
        plan.predicted_energy.as_f64() + gated * (plan.qos_secs - plan.predicted_latency_secs)
    }

    #[test]
    fn relaxed_windows_do_not_cost_more_window_energy() {
        // A relaxed window can always reuse the tighter window's schedule
        // and idle through the extra slack, so its window energy is at
        // most the tight window energy plus gated idling over the growth.
        let planner = vww_planner();
        let gated = planner.config().power.clock_gated_power.as_f64();
        let plans: Vec<_> = [0.1, 0.3, 0.5]
            .iter()
            .map(|&slack| planner.plan(&PlanRequest::slack(slack)).unwrap())
            .collect();
        for w in plans.windows(2) {
            let bound = window_energy(&planner, &w[0]) + gated * (w[1].qos_secs - w[0].qos_secs);
            // The bound is exact for the MCKP itself; the reserve search
            // above it is a heuristic (inter-layer re-locks are not part
            // of the paper's Eq. 2-5 either), so allow a 2% slop.
            assert!(
                window_energy(&planner, &w[1]) <= bound * 1.02,
                "relaxed window energy {} exceeds bound {bound}",
                window_energy(&planner, &w[1])
            );
        }
    }

    #[test]
    fn sweep_reuses_one_dse() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let plans = planner
            .sweep([0.1, 0.3, 0.5].map(|s| qos_window(baseline, s)))
            .unwrap();
        assert_eq!(plans.len(), 3);
        for plan in &plans {
            assert_eq!(plan.decisions.len(), model.layer_count());
            assert!(plan.predicted_latency_secs <= plan.qos_secs + 1e-12);
        }
        // Relaxing the window must not cost more window energy.
        let gated = planner.config().power.clock_gated_power.as_f64();
        let window = |p: &DeploymentPlan| {
            p.predicted_energy.as_f64() + gated * (p.qos_secs - p.predicted_latency_secs)
        };
        assert!(window(&plans[2]) <= window(&plans[0]) + 1e-12);
    }

    #[test]
    fn sweep_matches_per_window_plan_bit_for_bit() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let windows: Vec<f64> = [0.05, 0.15, 0.35, 0.55, 0.75]
            .iter()
            .map(|&s| qos_window(baseline, s))
            .collect();
        let swept = planner.sweep(windows.iter().copied()).unwrap();
        // Deterministic regardless of thread striping.
        let again = planner.sweep(windows.iter().copied()).unwrap();
        assert_eq!(swept, again);
        // `plan` is the singleton sweep, and a window's answer does not
        // depend on the batch it was swept in.
        for (plan, &qos) in swept.iter().zip(&windows) {
            assert!(plan.predicted_latency_secs <= qos + 1e-12);
            assert_eq!(*plan, planner.plan(&PlanRequest::qos(qos)).unwrap());
        }
    }

    #[test]
    fn sweep_dedups_duplicate_windows_bit_identically() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let [a, b, c] = [0.1, 0.3, 0.5].map(|s| qos_window(baseline, s));
        let unique = planner.sweep([a, b, c]).unwrap();
        // Duplicated windows must fan the deduped answers back out
        // bit-identically to solving every occurrence.
        let duped = planner.sweep([a, b, a, c, b, c, a]).unwrap();
        let expected: Vec<_> = [0usize, 1, 0, 2, 1, 2, 0]
            .iter()
            .map(|&i| unique[i].clone())
            .collect();
        assert_eq!(duped, expected);
        // Batch invariance: a singleton sweep of each window answers
        // exactly what the batched sweep answered for it.
        for (i, &w) in [a, b, c].iter().enumerate() {
            assert_eq!(planner.sweep([w]).unwrap()[0], unique[i]);
        }
    }

    #[test]
    fn sweep_rejects_degenerate_windows_and_empty_batches() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        assert!(planner.sweep([]).unwrap().is_empty());
        assert!(matches!(
            planner.sweep([0.5, f64::NAN]),
            Err(DaeDvfsError::InvalidRequest { .. })
        ));
        // An infeasible window surfaces that window's error.
        assert!(matches!(
            planner.sweep([1e-9]),
            Err(DaeDvfsError::Qos(MckpError::Infeasible { .. }))
        ));
    }

    #[test]
    fn planner_deploy_matches_prediction() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let qos = qos_window(planner.baseline_latency().unwrap(), 0.3);
        let plan = planner.plan(&PlanRequest::qos(qos)).unwrap();
        let report = planner.deploy(&plan).unwrap();
        assert_eq!(report.inference_secs, plan.predicted_latency_secs);
        assert_eq!(report.inference_energy, plan.predicted_energy);
    }

    #[test]
    fn empty_model_rejected_at_construction() {
        let model = Model::new("empty", tinynn::Shape::new(8, 8, 3), Vec::new());
        match Planner::new(&model, &DseConfig::paper()) {
            Err(DaeDvfsError::EmptyModel { model }) => assert_eq!(model, "empty"),
            other => panic!("expected EmptyModel, got {other:?}"),
        }
    }

    #[test]
    fn fronts_cover_every_layer() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        assert_eq!(planner.fronts().len(), model.layer_count());
        assert_eq!(planner.layers().len(), model.layer_count());
        assert!(planner.fronts().iter().all(|f| !f.is_empty()));
    }
}
