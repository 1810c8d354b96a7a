//! ABLATION — MCKP-DP vs greedy heuristic vs uniform-frequency selection.
//!
//! Quantifies what the dynamic program buys over (a) the greedy
//! energy-per-time heuristic and (b) the naive policy of running the whole
//! model at a single frequency chosen to meet the QoS.
//!
//! Run with: `cargo run --release -p repro-bench --bin ablation_solver`

use dae_dvfs::{solve_dp_sweep, solve_greedy, Granularity, MckpItem, PlanRequest, Planner, Solver};
use repro_bench::{config, models, SLACKS};
use tinyengine::qos_window;

fn main() {
    let cfg = config();
    println!("ABLATION: solver quality (inference energy, mJ — lower is better)");
    println!(
        "{:>18} | {:>5} | {:>9} | {:>9} | {:>9} | {:>12}",
        "model", "QoS", "seq-DP", "DP", "greedy", "uniform-freq"
    );
    repro_bench::rule(78);

    for model in models() {
        // One planner per model: fronts, compiled schedules and the
        // baseline lowering feed every solver under comparison.
        let planner = Planner::new(&model, &cfg).expect("planner builds");
        let baseline = planner.baseline_latency().expect("baseline");
        let classes: Vec<Vec<MckpItem>> = planner
            .fronts()
            .iter()
            .map(|f| {
                f.iter()
                    .map(|pt| MckpItem {
                        time_secs: pt.latency_secs,
                        energy: pt.energy.as_f64(),
                    })
                    .collect()
            })
            .collect();

        // One shared-grid DP table answers all three QoS levels.
        let windows: Vec<f64> = SLACKS.iter().map(|&s| qos_window(baseline, s)).collect();
        let dp_solutions =
            solve_dp_sweep(&classes, &windows, cfg.dp_resolution).expect("dp sweep solves");

        for ((slack, &qos), dp) in SLACKS.iter().copied().zip(&windows).zip(dp_solutions) {
            let dp = dp.expect("dp budget feasible");
            let greedy = solve_greedy(&classes, qos).expect("greedy solves");

            // Uniform frequency: per HFO candidate, take every layer's
            // best-energy point at that frequency; keep the cheapest
            // frequency that fits the QoS.
            let mut uniform = f64::INFINITY;
            for hfo in &cfg.modes.hfo {
                let mut t = 0.0;
                let mut e = 0.0;
                for layer in planner.layers() {
                    let best = Granularity::PAPER_SET
                        .iter()
                        .map(|&g| layer.evaluate(g, hfo, &cfg, planner.power()))
                        .min_by(|a, b| a.energy.partial_cmp(&b.energy).expect("finite"))
                        .expect("non-empty granularity set");
                    t += best.latency_secs;
                    e += best.energy.as_f64();
                }
                if t <= qos {
                    uniform = uniform.min(e);
                }
            }

            let seq = planner
                .plan(&PlanRequest::qos(qos).with_solver(Solver::SequenceDp))
                .expect("sequence DP solves");
            println!(
                "{:>18} | {:>4.0}% | {:>9.3} | {:>9.3} | {:>9.3} | {:>12.3}",
                model.name,
                slack * 100.0,
                seq.predicted_energy.as_mj(),
                dp.total_energy * 1e3,
                greedy.total_energy * 1e3,
                uniform * 1e3
            );
        }
        repro_bench::rule(78);
    }
    println!("expectation: seq-DP <= DP <= greedy <= uniform on window energy");
    println!("(plain DP/greedy/uniform ignore inter-layer re-locks; seq-DP prices them)");
}
