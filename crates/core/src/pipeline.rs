//! The methodology's data types (paper Fig. 3): the lowering every
//! planner starts from, the deployable plan it produces, and the report
//! of executing that plan over its iso-latency window. Plans are made
//! and deployed by [`crate::Planner`].

use stm32_power::Joules;
use tinynn::{LayerKind, Model};

use crate::dse::DsePoint;
use crate::error::DaeDvfsError;

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

#[cfg(test)]
mod tests {
    use super::*;
    use tinyengine::{qos_window, run_iso_latency, IdlePolicy, TinyEngine};
    use tinynn::models::vww;

    use crate::dse::DseConfig;
    use crate::request::{PlanRequest, Solver};
    use crate::target::Stm32F767Target;
    use crate::Planner;

    const SOLVERS: [Solver; 2] = [Solver::ReserveGrid, Solver::SequenceDp];

    fn vww_planner() -> Planner {
        Planner::new(&vww(), &DseConfig::paper()).unwrap()
    }

    /// Inference energy plus clock-gated idling to the end of the window:
    /// the objective both solvers minimize.
    fn window_energy(planner: &Planner, plan: &DeploymentPlan) -> f64 {
        let gated = planner.config().power.clock_gated_power.as_f64();
        plan.predicted_energy.as_f64() + gated * (plan.qos_secs - plan.predicted_latency_secs)
    }

    #[test]
    fn optimize_respects_qos() {
        let planner = vww_planner();
        for slack in [0.1, 0.3, 0.5] {
            let qos = qos_window(planner.baseline_latency().unwrap(), slack);
            let plan = planner.plan(&PlanRequest::qos(qos)).unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "slack {slack}: predicted {} > qos {qos}",
                plan.predicted_latency_secs
            );
            assert_eq!(plan.decisions.len(), planner.model().layer_count());
        }
    }

    #[test]
    fn deploy_reproduces_prediction_exactly() {
        // Both solvers predict by folding the schedule's cost streams with
        // full switching costs; deploy() replays it on the machine, so the
        // numbers must agree to floating-point accuracy.
        let planner = vww_planner();
        let qos = qos_window(planner.baseline_latency().unwrap(), 0.3);
        for solver in SOLVERS {
            let plan = planner
                .plan(&PlanRequest::qos(qos).with_solver(solver))
                .unwrap();
            let report = planner.deploy(&plan).unwrap();
            assert!(
                (report.inference_secs - plan.predicted_latency_secs).abs() < 1e-12,
                "{solver:?}: deployment {} vs prediction {}",
                report.inference_secs,
                plan.predicted_latency_secs
            );
            assert!(
                (report.inference_energy.as_f64() - plan.predicted_energy.as_f64()).abs() < 1e-12,
                "{solver:?}"
            );
            assert!(report.inference_secs <= qos + 1e-12, "{solver:?}");
        }
    }

    #[test]
    fn relaxed_qos_saves_energy() {
        let planner = vww_planner();
        let tight = planner.run(0.1).unwrap();
        let relaxed = planner.run(0.5).unwrap();
        assert!(
            relaxed.inference_energy < tight.inference_energy,
            "relaxed {} vs tight {}",
            relaxed.inference_energy,
            tight.inference_energy
        );
    }

    #[test]
    fn sequence_dp_meets_qos_and_matches_or_beats_grid_search() {
        let planner = vww_planner();
        for slack in [0.1, 0.3, 0.5] {
            let qos = qos_window(planner.baseline_latency().unwrap(), slack);
            let request = PlanRequest::qos(qos);
            let seq = planner
                .plan(&request.clone().with_solver(Solver::SequenceDp))
                .unwrap();
            assert!(seq.predicted_latency_secs <= qos + 1e-12);
            let grid = planner.plan(&request).unwrap();
            // The sequence DP prices re-locks exactly; allow only the DP
            // discretization wobble in the other direction.
            assert!(
                window_energy(&planner, &seq) <= window_energy(&planner, &grid) * 1.01,
                "slack {slack}: seq {} vs grid {}",
                window_energy(&planner, &seq),
                window_energy(&planner, &grid)
            );
        }
    }

    #[test]
    fn plan_display_lists_every_layer() {
        let plan = vww_planner().plan(&PlanRequest::slack(0.3)).unwrap();
        let rendered = plan.to_string();
        for d in &plan.decisions {
            assert!(rendered.contains(&d.name), "missing {}", d.name);
        }
        assert!(rendered.contains("QoS"));
    }

    #[test]
    fn sequence_dp_infeasible_window_rejected() {
        let request = PlanRequest::qos(1e-6).with_solver(Solver::SequenceDp);
        assert!(matches!(
            vww_planner().plan(&request),
            Err(DaeDvfsError::Qos(_))
        ));
    }

    #[test]
    fn infeasible_qos_rejected() {
        let err = vww_planner().plan(&PlanRequest::qos(1e-6)).unwrap_err();
        assert!(matches!(err, DaeDvfsError::Qos(_)));
    }

    #[test]
    fn empty_model_is_an_error_not_a_panic() {
        // Regression: the replay path used to index `decisions[0]` and
        // panic on zero-layer models. Every way into plan / run / deploy
        // goes through a planner constructor, and each one rejects the
        // model with a typed error.
        let model = Model::new("hollow", tinynn::Shape::new(4, 4, 1), Vec::new());
        assert!(matches!(
            Planner::new(&model, &DseConfig::paper()),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
        assert!(matches!(
            Planner::for_target(Stm32F767Target::paper(), &model),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
        assert!(lower_model(&model).unwrap().is_empty());
    }

    #[test]
    fn dp_resolution_is_ablatable() {
        // Coarser resolutions still produce feasible plans; the knob rides
        // in the config instead of a hard-coded constant, and the
        // per-request override is the same knob.
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let qos = qos_window(planner.baseline_latency().unwrap(), 0.3);
        for resolution in [250usize, 2000] {
            let config = DseConfig::paper().with_dp_resolution(resolution);
            let plan = Planner::new(&model, &config)
                .unwrap()
                .plan(&PlanRequest::qos(qos))
                .unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "res {resolution}"
            );
            let request = PlanRequest::qos(qos).with_dp_resolution(resolution);
            assert_eq!(plan, planner.plan(&request).unwrap(), "res {resolution}");
        }
    }

    #[test]
    fn beats_tinyengine_baselines() {
        // The headline comparison at moderate slack.
        let planner = vww_planner();
        let ours = planner.run(0.3).unwrap();
        let qos = ours.plan.qos_secs;
        let engine = TinyEngine::new();
        let te = run_iso_latency(&engine, planner.model(), qos, IdlePolicy::Busy216).unwrap();
        let te_gated =
            run_iso_latency(&engine, planner.model(), qos, IdlePolicy::ClockGated).unwrap();
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
