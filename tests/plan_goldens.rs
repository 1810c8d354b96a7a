//! Golden plan hashes.
//!
//! Every entry is `obs::plan_hash` of `plan.to_artifact(planner).to_json()`
//! for one answer, recorded once and asserted exactly. A change to how
//! candidates are priced, to the clock rules, or to the solvers that
//! moves a single bit of any served plan breaks this test — including a
//! drift in rules that every in-process reference shares, which an
//! equivalence test between two code paths over the same substrate
//! cannot see.
//!
//! The answers cover `Planner::sweep` (singleton windows) and
//! `Planner::plan` with both solvers at 10/30/50 % slack. A reserve-grid
//! `plan` is the singleton sweep, so each `plan` row equals its `sweep`
//! row. The planners are:
//!
//! * VWW, person detection and MobileNet-V2 on the paper's F767;
//! * VWW-32 and PD-32 on a lean Cortex-M ladder (50 MHz LFO; 80, 120
//!   and 160 MHz HFOs);
//! * VWW-32 on the F767 with a 1 ms PLL re-lock, which outlasts the
//!   staging segments, so every HFO change stalls on the re-lock.

use dae_dvfs::obs::plan_hash;
use dae_dvfs::{
    DseConfig, GenericCortexMTarget, OperatingModes, PlanRequest, Planner, Solver, Stm32F767Target,
};
use stm32_rcc::{Hertz, SwitchCostModel};
use tinyengine::qos_window;
use tinynn::models;
use tinynn::Model;

const SLACKS: [f64; 3] = [0.1, 0.3, 0.5];

/// `(answer, hash)` for every pinned answer of `planner`: the singleton
/// sweep, the reserve-grid plan and the sequence-DP plan at each slack.
fn answers(label: &str, planner: &Planner) -> Vec<(String, u64)> {
    let baseline = planner.baseline_latency().expect("baseline lowers");
    let hash =
        |plan: dae_dvfs::DeploymentPlan| plan_hash(plan.to_artifact(planner).to_json().as_bytes());
    let mut out = Vec::new();
    for slack in SLACKS {
        let window = qos_window(baseline, slack);
        let swept = planner.sweep([window]).expect("sweep solves").remove(0);
        out.push((format!("{label} sweep {slack}"), hash(swept)));
        let request = PlanRequest::slack(slack);
        let planned = planner.plan(&request).expect("plan solves");
        out.push((format!("{label} plan {slack}"), hash(planned)));
        let sequenced = planner
            .plan(&request.with_solver(Solver::SequenceDp))
            .expect("sequence plan solves");
        out.push((format!("{label} plan-seq {slack}"), hash(sequenced)));
    }
    out
}

/// Asserts every answer against `golden`, printing the full actual table
/// on any mismatch.
fn check(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    let got: Vec<(&str, u64)> = actual.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, golden, "plan hashes moved; actual table:\n{table}");
}

fn f767(model: &Model) -> Planner {
    Planner::new(model, &DseConfig::paper()).expect("planner builds")
}

fn lean(model: &Model) -> Planner {
    let modes = OperatingModes::from_sysclks(
        Hertz::mhz(50),
        Hertz::mhz(50),
        &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
    )
    .expect("lean ladder reachable");
    let target = GenericCortexMTarget::new("cortex-m-lean").with_modes(modes);
    Planner::for_target(target, model).expect("planner builds")
}

#[test]
fn paper_models_on_f767() {
    let mut actual = answers("vww", &f767(&models::vww()));
    actual.extend(answers("pd", &f767(&models::person_detection())));
    actual.extend(answers("mbv2", &f767(&models::mobilenet_v2())));
    check(
        &actual,
        &[
            ("vww sweep 0.1", 0x6b125a35cebae064),
            ("vww plan 0.1", 0x6b125a35cebae064),
            ("vww plan-seq 0.1", 0x99003cc9b0011a0f),
            ("vww sweep 0.3", 0xdbfbbe03446f2c46),
            ("vww plan 0.3", 0xdbfbbe03446f2c46),
            ("vww plan-seq 0.3", 0xa21013da19ed0095),
            ("vww sweep 0.5", 0xcc980032f83ed709),
            ("vww plan 0.5", 0xcc980032f83ed709),
            ("vww plan-seq 0.5", 0xddbccccbdc1f456c),
            ("pd sweep 0.1", 0x4ab8f21fa8ff1ae4),
            ("pd plan 0.1", 0x4ab8f21fa8ff1ae4),
            ("pd plan-seq 0.1", 0x21d7db35bda1b974),
            ("pd sweep 0.3", 0xf538b7436612d8c6),
            ("pd plan 0.3", 0xf538b7436612d8c6),
            ("pd plan-seq 0.3", 0xa552722e3d18961a),
            ("pd sweep 0.5", 0x1e090616a8ae96de),
            ("pd plan 0.5", 0x1e090616a8ae96de),
            ("pd plan-seq 0.5", 0x3fc06b7c2893f74e),
            ("mbv2 sweep 0.1", 0x8ea65c22ac4c9196),
            ("mbv2 plan 0.1", 0x8ea65c22ac4c9196),
            ("mbv2 plan-seq 0.1", 0x0299b1ca17ac2dc3),
            ("mbv2 sweep 0.3", 0xbdbec09b93c42cdf),
            ("mbv2 plan 0.3", 0xbdbec09b93c42cdf),
            ("mbv2 plan-seq 0.3", 0xd3e7f62f5ba57839),
            ("mbv2 sweep 0.5", 0xaf92bfad16a67d27),
            ("mbv2 plan 0.5", 0xaf92bfad16a67d27),
            ("mbv2 plan-seq 0.5", 0x9ed4e29720396aab),
        ],
    );
}

#[test]
fn lean_ladder() {
    let mut actual = answers("vww32", &lean(&models::vww_sized(32)));
    actual.extend(answers("pd32", &lean(&models::person_detection_sized(32))));
    check(
        &actual,
        &[
            ("vww32 sweep 0.1", 0x6ff5f81bfffd7ea2),
            ("vww32 plan 0.1", 0x6ff5f81bfffd7ea2),
            ("vww32 plan-seq 0.1", 0x13e63775b0dbde73),
            ("vww32 sweep 0.3", 0x6f686bff781009d7),
            ("vww32 plan 0.3", 0x6f686bff781009d7),
            ("vww32 plan-seq 0.3", 0x6f686bff781009d7),
            ("vww32 sweep 0.5", 0x7316050b4088d863),
            ("vww32 plan 0.5", 0x7316050b4088d863),
            ("vww32 plan-seq 0.5", 0x7316050b4088d863),
            ("pd32 sweep 0.1", 0xb16ea0d22ecaf4f7),
            ("pd32 plan 0.1", 0xb16ea0d22ecaf4f7),
            ("pd32 plan-seq 0.1", 0xb16ea0d22ecaf4f7),
            ("pd32 sweep 0.3", 0x41f81a3aca3218d0),
            ("pd32 plan 0.3", 0x41f81a3aca3218d0),
            ("pd32 plan-seq 0.3", 0x26fb62d55162fdc1),
            ("pd32 sweep 0.5", 0xd48b1b2e33022375),
            ("pd32 plan 0.5", 0xd48b1b2e33022375),
            ("pd32 plan-seq 0.5", 0xd48b1b2e33022375),
        ],
    );
}

#[test]
fn long_relock_stalls() {
    let config = DseConfig::paper().with_switch_model(SwitchCostModel::new(1e-3, 1e-6));
    let planner = Planner::for_target(Stm32F767Target::with_config(config), &models::vww_sized(32))
        .expect("planner builds");
    check(
        &answers("vww32-relock1ms", &planner),
        &[
            ("vww32-relock1ms sweep 0.1", 0x4d2e25ca9a5458bf),
            ("vww32-relock1ms plan 0.1", 0x4d2e25ca9a5458bf),
            ("vww32-relock1ms plan-seq 0.1", 0xcaad3157912287a2),
            ("vww32-relock1ms sweep 0.3", 0x312dbe0af5fba7a9),
            ("vww32-relock1ms plan 0.3", 0x312dbe0af5fba7a9),
            ("vww32-relock1ms plan-seq 0.3", 0x9d17f0c9a6900d51),
            ("vww32-relock1ms sweep 0.5", 0xf879933104be3971),
            ("vww32-relock1ms plan 0.5", 0xf879933104be3971),
            ("vww32-relock1ms plan-seq 0.5", 0x4dbcaa767874f799),
        ],
    );
}
