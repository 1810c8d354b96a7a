//! The planners the workloads serve, the generated requests, and the
//! paper's energy metric over the plans actually answered.

use std::sync::Arc;

use dae_dvfs::{
    DeploymentPlan, GenericCortexMTarget, OperatingModes, PlanArtifact, PlanRequest, Planner,
    Stm32F767Target, Target,
};
use stm32_rcc::Hertz;
use tinyengine::{qos_window, IdlePolicy};
use tinynn::Model;

/// One `(model, target)` planner and its baseline latency.
pub struct Tenant {
    pub name: String,
    pub planner: Arc<Planner>,
    pub baseline: f64,
}

fn tenant(target: impl Target + 'static, model: &Model) -> Tenant {
    let name = format!("{}@{}", model.name, target.id());
    let planner = Planner::for_target(target, model).expect("planner builds");
    let baseline = planner.baseline_latency().expect("baseline lowers");
    Tenant {
        name,
        planner: Arc::new(planner),
        baseline,
    }
}

/// The serving tenants: VWW and PD (32×32 inputs) on the F767 and on a
/// leaner Cortex-M clock ladder.
pub fn serve_tenants() -> Vec<Tenant> {
    let lean = GenericCortexMTarget::new("cortex-m-lean").with_modes(
        OperatingModes::from_sysclks(
            Hertz::mhz(50),
            Hertz::mhz(50),
            &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
        )
        .expect("lean ladder reachable"),
    );
    let vww = tinynn::models::vww_sized(32);
    let pd = tinynn::models::person_detection_sized(32);
    vec![
        tenant(Stm32F767Target::paper(), &vww),
        tenant(lean.clone(), &vww),
        tenant(Stm32F767Target::paper(), &pd),
        tenant(lean, &pd),
    ]
}

#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Slack(f64),
    Qos(f64),
}

/// One generated request (reserve-grid solver).
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub tenant: usize,
    pub budget: Budget,
}

impl Req {
    pub fn slack(tenant: usize, slack: f64) -> Self {
        Req {
            tenant,
            budget: Budget::Slack(slack),
        }
    }

    pub fn request(&self) -> PlanRequest {
        match self.budget {
            Budget::Slack(s) => PlanRequest::slack(s),
            Budget::Qos(q) => PlanRequest::qos(q),
        }
    }

    /// The canonical window the service keys and solves this request at
    /// (no QoS quantum is configured, so it is the resolved window).
    pub fn window(&self, tenants: &[Tenant]) -> f64 {
        match self.budget {
            Budget::Slack(s) => qos_window(tenants[self.tenant].baseline, s),
            Budget::Qos(q) => q,
        }
    }

    /// The `POST /v1/plan` body. `f64` `Display` is the shortest exact
    /// round-trip form, so the server parses the identical budget.
    pub fn body(&self, tenants: &[Tenant]) -> String {
        let budget = match self.budget {
            Budget::Slack(s) => format!("\"slack\": {s}"),
            Budget::Qos(q) => format!("\"qos_secs\": {q}"),
        };
        format!(
            "{{\"planner\": \"{}\", {budget}}}",
            tenants[self.tenant].name
        )
    }

    /// Benchmark-side identity of the canonical request.
    pub fn key(&self, tenants: &[Tenant]) -> (usize, u64) {
        (self.tenant, self.window(tenants).to_bits())
    }
}

/// The energy-relevant facts of one answered plan.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub tenant: usize,
    pub qos: f64,
    pub latency: f64,
    pub energy_j: f64,
}

impl Answer {
    pub fn of_plan(tenant: usize, plan: &DeploymentPlan) -> Self {
        Answer {
            tenant,
            qos: plan.qos_secs,
            latency: plan.predicted_latency_secs,
            energy_j: plan.predicted_energy.as_f64(),
        }
    }

    pub fn of_artifact(tenant: usize, artifact: &PlanArtifact) -> Self {
        Answer {
            tenant,
            qos: artifact.qos_secs,
            latency: artifact.predicted_latency_secs,
            energy_j: artifact.predicted_energy_j,
        }
    }

    pub fn meets_window(&self) -> bool {
        self.latency <= self.qos && self.latency > 0.0 && self.energy_j > 0.0
    }
}

/// Mean energy gain in percent over TinyEngine (WFI at 216 MHz) and over
/// TinyEngine with clock gating, across `answers` (one per distinct key):
/// each plan's window energy (predicted energy plus clock-gated idle
/// power over the slack) against the baseline's iso-latency energy in the
/// same window.
pub fn energy_gains(tenants: &[Tenant], answers: &[Answer]) -> (f64, f64) {
    let (mut wfi, mut gated) = (0.0, 0.0);
    for a in answers {
        let planner = &tenants[a.tenant].planner;
        let idle_w = planner.config().power.clock_gated_power.as_f64();
        let ours = a.energy_j + idle_w * (a.qos - a.latency);
        let baseline = planner.baseline().expect("baseline lowers");
        let window = |policy| {
            baseline
                .run_iso_latency_on(
                    &mut planner.target().baseline_machine(*baseline.clock()),
                    a.qos,
                    policy,
                )
                .total_energy
                .as_f64()
        };
        let te = window(IdlePolicy::Wfi216);
        let te_gated = window(IdlePolicy::ClockGated);
        wfi += (te - ours) / te * 100.0;
        gated += (te_gated - ours) / te_gated * 100.0;
    }
    let n = answers.len().max(1) as f64;
    (wfi / n, gated / n)
}
