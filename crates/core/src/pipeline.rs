//! The end-to-end methodology (paper Fig. 3): DAE lowering → per-layer DSE
//! → Pareto extraction → MCKP → deployable plan → iso-latency execution.
//!
//! The functions here are single-shot conveniences: each builds a
//! throw-away [`Planner`] (which owns the compiled schedules and Pareto
//! fronts) and runs one step. Callers that revisit the same model —
//! several QoS points, repeated deployments, baseline comparisons —
//! should construct the [`Planner`] once and amortize the DSE.

use std::sync::Arc;

use stm32_power::Joules;
use tinynn::{LayerKind, Model};

use crate::dse::{DseConfig, DsePoint};
use crate::error::DaeDvfsError;
use crate::planner::Planner;
use crate::schedule::{replay_decisions, CompiledLayer};

/// The per-layer decision of a deployment: which granularity and which HFO
/// frequency the layer runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDecision {
    /// Layer name.
    pub name: String,
    /// Reporting kind.
    pub kind: LayerKind,
    /// The chosen DSE point.
    pub point: DsePoint,
}

/// A complete DAE+DVFS deployment plan for one model under one QoS budget.
///
/// `Display` renders the per-layer decision table (the firmware-facing
/// artifact: which granularity and PLL setting each layer uses).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Model name.
    pub model: String,
    /// The QoS window (absolute seconds).
    pub qos_secs: f64,
    /// Per-layer decisions in execution order.
    pub decisions: Vec<LayerDecision>,
    /// Predicted inference latency (sum of chosen points).
    pub predicted_latency_secs: f64,
    /// Predicted inference energy (sum of chosen points).
    pub predicted_energy: Joules,
}

impl std::fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deployment plan for {} (QoS {:.3} ms, predicted {:.3} ms / {:.3} mJ)",
            self.model,
            self.qos_secs * 1e3,
            self.predicted_latency_secs * 1e3,
            self.predicted_energy.as_mj()
        )?;
        writeln!(
            f,
            "{:>18} | {:>10} | {:>3} | {:>8} | {:>22}",
            "layer", "kind", "g", "HFO", "PLL {HSE,M,N}/P"
        )?;
        for d in &self.decisions {
            let (hse, m, n) = d.point.hfo.label_tuple();
            writeln!(
                f,
                "{:>18} | {:>10} | {:>3} | {:>4} MHz | {:>18}",
                d.name,
                d.kind.to_string(),
                d.point.granularity.0,
                d.point.hfo.sysclk().as_u64() / 1_000_000,
                format!("{{{hse},{m},{n}}}/{}", d.point.hfo.pllp()),
            )?;
        }
        Ok(())
    }
}

/// Result of executing a deployment plan over its iso-latency window.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// The executed plan.
    pub plan: DeploymentPlan,
    /// Measured inference latency.
    pub inference_secs: f64,
    /// Measured inference energy.
    pub inference_energy: Joules,
    /// Energy spent idling (clock gated) until the QoS deadline.
    pub idle_energy: Joules,
    /// Total window energy.
    pub total_energy: Joules,
}

/// Lowers a model into layer profiles (shared with the baseline engine).
///
/// # Errors
///
/// Propagates shape errors from the model plan.
pub fn lower_model(model: &Model) -> Result<Vec<tinyengine::KernelProfile>, DaeDvfsError> {
    let plan = model.plan().map_err(tinyengine::EngineError::from)?;
    Ok(model
        .layers()
        .zip(plan.iter())
        .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
        .collect())
}

/// Runs steps 1–3 of the methodology: DSE every layer, keep the Pareto
/// fronts, and solve the MCKP for the given QoS window.
///
/// Two refinements over the plain MCKP formulation (Eq. 2–5 of the paper):
///
/// * the objective includes the clock-gated idle power of the
///   post-inference tail: minimizing `Σ Eₖ + P_idle · (QoS − Σ tₖ)` is
///   equivalent to using item values `Eₖ − P_idle · tₖ` (plus a constant),
///   so slower-but-leaner points are only preferred when they genuinely
///   beat "finish fast, then gate the clocks";
/// * DSE items are relock-free, so each MCKP solution is *replayed* with
///   full inter-layer switching costs; a deterministic grid of switching
///   reserves is evaluated and the feasible schedule with the lowest
///   window energy wins (the relock-free all-fastest schedule is always a
///   candidate, so feasibility is guaranteed whenever it exists).
///
/// # Errors
///
/// [`DaeDvfsError::Qos`] if even the fastest schedule misses the window;
/// propagates lowering errors.
pub fn optimize(
    model: &Model,
    qos_secs: f64,
    config: &DseConfig,
) -> Result<DeploymentPlan, DaeDvfsError> {
    Planner::new(model, config)?.optimize(qos_secs)
}

/// Executes a deployment plan on a fresh machine and idles (clock gated)
/// until the QoS deadline.
///
/// Unlike [`optimize`], this only compiles the schedules the plan needs —
/// no DSE sweep is paid.
///
/// # Errors
///
/// Propagates lowering errors; [`DaeDvfsError::EmptyModel`] for zero-layer
/// models. The plan is assumed to come from [`optimize`] against the same
/// model.
///
/// # Panics
///
/// Panics if the replayed schedule overruns the plan's QoS window, which
/// cannot happen for plans produced by [`optimize`] on the same model and
/// configuration.
pub fn deploy(
    model: &Model,
    plan: &DeploymentPlan,
    config: &DseConfig,
) -> Result<DeploymentReport, DaeDvfsError> {
    let profiles = lower_model(model)?;
    if profiles.is_empty() {
        return Err(DaeDvfsError::EmptyModel {
            model: model.name.clone(),
        });
    }
    assert_eq!(
        profiles.len(),
        plan.decisions.len(),
        "plan does not match the model layer count"
    );
    let layers: Vec<CompiledLayer> = profiles
        .into_iter()
        .map(|p| CompiledLayer::compile(p, config))
        .collect();
    let power = Arc::new(config.power.clone());
    let (inference_secs, inference_energy) =
        replay_decisions(&layers, &plan.decisions, config, &power);
    let remaining = plan.qos_secs - inference_secs;
    assert!(
        remaining >= -1e-9,
        "deployment overran its QoS window: {inference_secs}s > {}s",
        plan.qos_secs
    );
    let idle_energy = config.power.clock_gated_power * remaining.max(0.0);
    Ok(DeploymentReport {
        plan: plan.clone(),
        inference_secs,
        inference_energy,
        idle_energy,
        total_energy: inference_energy + idle_energy,
    })
}

/// Sequence-aware variant of [`optimize`]: selects one Pareto point per
/// layer with the layered-graph DP of [`crate::seqdp`], which prices
/// inter-layer PLL re-locks exactly instead of searching reserve budgets.
///
/// The returned plan is priced with its inter-layer switching costs (a
/// cost-stream fold equal to a machine replay, bit for bit); that price is
/// what the plan reports (and it can only be *faster* than the DP's
/// conservative prediction, never slower).
///
/// # Errors
///
/// Same conditions as [`optimize`].
pub fn optimize_sequence(
    model: &Model,
    qos_secs: f64,
    config: &DseConfig,
) -> Result<DeploymentPlan, DaeDvfsError> {
    Planner::new(model, config)?.optimize_sequence(qos_secs)
}

/// Convenience wrapper: baseline latency → QoS window → optimize → deploy.
///
/// `slack` is the paper's QoS constraint level (0.10 / 0.30 / 0.50).
///
/// # Errors
///
/// [`DaeDvfsError::InvalidRequest`] for NaN, zero or negative slacks
/// (degenerate inputs are rejected at the API boundary instead of
/// producing degenerate plans; a zero-slack *window* remains expressible
/// via [`optimize`] with `qos_secs` equal to the baseline latency);
/// otherwise propagates [`optimize`] and [`deploy`] errors.
pub fn run_dae_dvfs(
    model: &Model,
    slack: f64,
    config: &DseConfig,
) -> Result<DeploymentReport, DaeDvfsError> {
    Planner::new(model, config)?.run(slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyengine::TinyEngine;
    use tinynn::models::vww;

    fn cfg() -> DseConfig {
        DseConfig::paper()
    }

    #[test]
    fn optimize_respects_qos() {
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        for slack in [0.1, 0.3, 0.5] {
            let qos = tinyengine::qos_window(baseline, slack);
            let plan = optimize(&model, qos, &cfg()).unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "slack {slack}: predicted {} > qos {qos}",
                plan.predicted_latency_secs
            );
            assert_eq!(plan.decisions.len(), model.layer_count());
        }
    }

    #[test]
    fn deploy_reproduces_prediction_exactly() {
        // optimize() predicts by replaying the schedule with full
        // switching costs; deploy() is the same replay, so the numbers
        // must agree to floating-point accuracy.
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);
        let plan = optimize(&model, qos, &cfg()).unwrap();
        let report = deploy(&model, &plan, &cfg()).unwrap();
        assert!(
            (report.inference_secs - plan.predicted_latency_secs).abs() < 1e-12,
            "deployment {} vs prediction {}",
            report.inference_secs,
            plan.predicted_latency_secs
        );
        assert!((report.inference_energy.as_f64() - plan.predicted_energy.as_f64()).abs() < 1e-12);
        assert!(report.inference_secs <= qos + 1e-12);
    }

    #[test]
    fn relaxed_qos_saves_energy() {
        let model = vww();
        let tight = run_dae_dvfs(&model, 0.1, &cfg()).unwrap();
        let relaxed = run_dae_dvfs(&model, 0.5, &cfg()).unwrap();
        assert!(
            relaxed.inference_energy < tight.inference_energy,
            "relaxed {} vs tight {}",
            relaxed.inference_energy,
            tight.inference_energy
        );
    }

    #[test]
    fn sequence_dp_meets_qos_and_matches_or_beats_grid_search() {
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let config = cfg();
        let gated = config.power.clock_gated_power.as_f64();
        for slack in [0.1, 0.3, 0.5] {
            let qos = tinyengine::qos_window(baseline, slack);
            let seq = optimize_sequence(&model, qos, &config).unwrap();
            assert!(seq.predicted_latency_secs <= qos + 1e-12);
            let grid = optimize(&model, qos, &config).unwrap();
            let window = |p: &DeploymentPlan| {
                p.predicted_energy.as_f64() + gated * (qos - p.predicted_latency_secs)
            };
            // The sequence DP prices re-locks exactly; allow only the DP
            // discretization wobble in the other direction.
            assert!(
                window(&seq) <= window(&grid) * 1.01,
                "slack {slack}: seq {} vs grid {}",
                window(&seq),
                window(&grid)
            );
        }
    }

    #[test]
    fn plan_display_lists_every_layer() {
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let plan = optimize(&model, tinyengine::qos_window(baseline, 0.3), &cfg()).unwrap();
        let rendered = plan.to_string();
        for d in &plan.decisions {
            assert!(rendered.contains(&d.name), "missing {}", d.name);
        }
        assert!(rendered.contains("QoS"));
    }

    #[test]
    fn sequence_dp_infeasible_window_rejected() {
        let model = vww();
        assert!(matches!(
            optimize_sequence(&model, 1e-6, &cfg()),
            Err(DaeDvfsError::Qos(_))
        ));
    }

    #[test]
    fn infeasible_qos_rejected() {
        let model = vww();
        let err = optimize(&model, 1e-6, &cfg()).unwrap_err();
        assert!(matches!(err, DaeDvfsError::Qos(_)));
    }

    #[test]
    fn empty_model_is_an_error_not_a_panic() {
        // Regression: the replay path used to index `decisions[0]` and
        // panic on zero-layer models.
        let model = Model::new("hollow", tinynn::Shape::new(4, 4, 1), Vec::new());
        assert!(matches!(
            optimize(&model, 1.0, &cfg()),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
        assert!(matches!(
            optimize_sequence(&model, 1.0, &cfg()),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
        assert!(matches!(
            run_dae_dvfs(&model, 0.3, &cfg()),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
        let hollow_plan = DeploymentPlan {
            model: "hollow".into(),
            qos_secs: 1.0,
            decisions: Vec::new(),
            predicted_latency_secs: 0.0,
            predicted_energy: Joules::ZERO,
        };
        assert!(matches!(
            deploy(&model, &hollow_plan, &cfg()),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
    }

    #[test]
    fn dp_resolution_is_ablatable() {
        // Coarser resolutions still produce feasible plans; the knob rides
        // in the config instead of a hard-coded constant.
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);
        for resolution in [250usize, 2000] {
            let cfg = DseConfig::paper().with_dp_resolution(resolution);
            let plan = optimize(&model, qos, &cfg).unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "res {resolution}"
            );
        }
    }

    #[test]
    fn beats_tinyengine_baselines() {
        // The headline comparison at moderate slack.
        let model = vww();
        let engine = TinyEngine::new();
        let baseline = engine.run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);

        let ours = run_dae_dvfs(&model, 0.3, &cfg()).unwrap();
        let te = tinyengine::run_iso_latency(&engine, &model, qos, tinyengine::IdlePolicy::Busy216)
            .unwrap();
        let te_gated =
            tinyengine::run_iso_latency(&engine, &model, qos, tinyengine::IdlePolicy::ClockGated)
                .unwrap();

        assert!(
            ours.total_energy < te.total_energy,
            "must beat plain TinyEngine: {} vs {}",
            ours.total_energy,
            te.total_energy
        );
        assert!(
            ours.total_energy < te_gated.total_energy,
            "must beat TinyEngine+gating: {} vs {}",
            ours.total_energy,
            te_gated.total_energy
        );
    }
}
