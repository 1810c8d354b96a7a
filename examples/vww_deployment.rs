//! Full deployment walk-through for Visual Wake Words: profile the model
//! like the paper's runtime monitor, inspect the per-layer plan, verify the
//! DAE transform is bit-exact, and execute the deployment.
//!
//! Run with: `cargo run --release --example vww_deployment`

use dae_dvfs::{
    dae_forward_depthwise, FrequencyMap, Granularity, PlanRequest, Planner, Stm32F767Target,
};
use tinyengine::{profile_model, qos_window, TinyEngine};
use tinynn::models::{vww, vww_sized};
use tinynn::{Layer, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = vww();
    let engine = TinyEngine::new();

    // Step 1A of the paper: identify the most time-consuming layers with
    // the on-board-timer profiler.
    let profile = profile_model(&engine, &model)?;
    println!("five hottest layers (timer-quantized, INA219-sampled):");
    for l in profile.hottest_layers(5) {
        println!(
            "  {:>16} ({:>9}): {:.3} ms @ {:.0} mW",
            l.name,
            l.kind.to_string(),
            l.measured_secs * 1e3,
            l.measured_power.as_mw()
        );
    }

    // Verify DAE bit-exactness on a real layer with real data (the paper:
    // "DAE-enabled CNNs entail no accuracy drops"). Use the small variant
    // so the functional check is instant.
    let small = vww_sized(32);
    let input = Tensor::from_fn(small.input_shape, |y, x, c| ((y * 7 + x + c) % 120) as i8);
    let mut checked = 0;
    for nl in small.layers() {
        if let Layer::Depthwise(dw) = &nl.layer {
            // The layer consumes the activation at its own depth; feed a
            // matching tensor (zeros suffice for an equivalence check).
            let shape = tinynn::Shape::new(8, 8, dw.channels);
            let act = Tensor::from_fn(shape, |y, x, c| ((y * 13 + x * 3 + c * 5) % 200) as i8);
            let baseline = dw.forward(&act)?;
            for g in Granularity::PAPER_SET {
                assert_eq!(dae_forward_depthwise(dw, &act, g)?, baseline);
            }
            checked += 1;
        }
    }
    let _ = input;
    println!("\nDAE bit-exactness verified on {checked} depthwise layers x 6 granularities");

    // Steps 2-3: optimize for a 30% slack window and deploy. The planner
    // compiles schedules + Pareto fronts once; plan and deploy are
    // solver runs and replays against that cache.
    let planner = Planner::for_target(Stm32F767Target::paper(), &model)?;
    let qos = qos_window(planner.baseline_latency()?, 0.30);
    let plan = planner.plan(&PlanRequest::qos(qos))?;
    println!(
        "\nplan: {:.2} ms predicted (QoS {:.2} ms), {:.3} mJ predicted",
        plan.predicted_latency_secs * 1e3,
        qos * 1e3,
        plan.predicted_energy.as_mj()
    );

    let map = FrequencyMap::from_plan(&plan, 0.30);
    println!("\nper-layer decisions (granularity @ HFO MHz):");
    for row in &map.rows {
        println!(
            "  {:>16} ({:>9}): g={:<2} @ {} MHz",
            row.name,
            row.kind.to_string(),
            row.granularity,
            row.hfo.as_u64() / 1_000_000
        );
    }

    let report = planner.deploy(&plan)?;
    println!(
        "\ndeployed: {:.2} ms inference + {:.2} ms gated idle = {:.3} mJ window energy",
        report.inference_secs * 1e3,
        (qos - report.inference_secs) * 1e3,
        report.total_energy.as_mj()
    );
    Ok(())
}
