//! ABLATION — Sensitivity to the PLL re-lock cost.
//!
//! Sweeps the re-lock penalty from 0 to 1 ms and reports the energy of the
//! optimized deployment for VWW at 30 % slack. Large re-lock costs push
//! the optimizer toward coarser granularities and uniform frequencies.
//!
//! Run with: `cargo run --release -p repro-bench --bin ablation_switch_cost`

use dae_dvfs::{DseConfig, FrequencyMap, PlanRequest, Planner};
use stm32_rcc::SwitchCostModel;
use tinyengine::{qos_window, TinyEngine};
use tinynn::models::vww;

fn main() {
    let model = vww();
    let baseline = TinyEngine::new()
        .run(&model)
        .expect("baseline")
        .total_time_secs;
    let qos = qos_window(baseline, 0.30);

    println!("ABLATION: PLL re-lock cost sensitivity (VWW, 30% slack)");
    println!(
        "{:>12} | {:>12} | {:>12} | {:>10} | {:>8}",
        "re-lock", "latency", "energy", "avg g>0", "distinct f"
    );
    repro_bench::rule(68);

    for relock_us in [0.0, 50.0, 100.0, 200.0, 500.0, 1000.0] {
        let mut cfg = DseConfig::paper();
        cfg.switch_model = SwitchCostModel::new(relock_us * 1e-6, 1e-6);
        // Switch costs are priced at replay time, but they feed the DSE
        // points too, so each cost level gets its own planner.
        let plan = Planner::new(&model, &cfg)
            .expect("planner builds")
            .plan(&PlanRequest::qos(qos))
            .expect("optimize succeeds");
        let map = FrequencyMap::from_plan(&plan, 0.30);
        let dae_layers: Vec<_> = map.rows.iter().filter(|r| r.granularity > 0).collect();
        let avg_g = if dae_layers.is_empty() {
            0.0
        } else {
            dae_layers
                .iter()
                .map(|r| f64::from(r.granularity))
                .sum::<f64>()
                / dae_layers.len() as f64
        };
        let distinct: std::collections::BTreeSet<_> = map.rows.iter().map(|r| r.hfo).collect();
        println!(
            "{:>9.0} µs | {:>9.3} ms | {:>9.3} mJ | {:>10.1} | {:>8}",
            relock_us,
            plan.predicted_latency_secs * 1e3,
            plan.predicted_energy.as_mj(),
            avg_g,
            distinct.len()
        );
    }
    println!("expectation: energy weakly increases with the re-lock cost");
}
