//! FIG6 — Per-layer HFO frequency and granularity maps for tight vs
//! relaxed QoS.
//!
//! Reproduces Fig. 6 of the paper: for each model and QoS ∈ {10 %, 50 %},
//! the chosen HFO frequency and DAE granularity per layer, plus the
//! aggregate observations the paper reports (pointwise layers get the
//! maximum frequency more often than depthwise; tight QoS pushes more
//! layers to 216 MHz; relaxed QoS pushes granularities toward 16).
//!
//! Run with: `cargo run --release -p repro-bench --bin fig6_frequency_map`

use dae_dvfs::{FrequencyMap, PlanRequest, Planner};
use repro_bench::{fig6_stats, models};
use tinyengine::qos_window;

fn main() {
    for model in models() {
        // One planner per model: both QoS maps reuse the same DSE sweep.
        let planner = Planner::for_target(repro_bench::target(), &model).expect("planner builds");
        let baseline = planner.baseline_latency().expect("baseline runs");
        let mut maps = Vec::new();
        for slack in [0.10, 0.50] {
            let plan = planner
                .plan(&PlanRequest::qos(qos_window(baseline, slack)))
                .expect("optimization succeeds");
            maps.push(FrequencyMap::from_plan(&plan, slack));
        }
        let (tight, relaxed) = (&maps[0], &maps[1]);

        println!("\nFIG6: {} — per-layer map (granularity@MHz)", model.name);
        println!(
            "{:>16} | {:>10} | {:>12} | {:>12}",
            "layer", "type", "QoS 10%", "QoS 50%"
        );
        repro_bench::rule(60);
        for (t, r) in tight.rows.iter().zip(&relaxed.rows) {
            println!(
                "{:>16} | {:>10} | {:>4}@{:>6} | {:>4}@{:>6}",
                t.name,
                t.kind.to_string(),
                t.granularity,
                repro_bench::mhz(t.hfo),
                r.granularity,
                repro_bench::mhz(r.hfo)
            );
        }

        let st = fig6_stats(tight);
        let sr = fig6_stats(relaxed);
        println!("\n  observations ({}):", model.name);
        println!(
            "  pointwise at 216 MHz: {:.1}% vs depthwise {:.1}% (paper: 58.8% vs 21.4%)",
            st.pw_at_max * 100.0,
            st.dw_at_max * 100.0
        );
        println!(
            "  at <=100 MHz: pointwise {:.1}%, depthwise {:.1}% (paper: 46.1% / 43.4%)",
            sr.pw_low * 100.0,
            sr.dw_low * 100.0
        );
        println!(
            "  layers at 216 MHz, tight vs relaxed: {:.1}% vs {:.1}% (paper: +18.6% when tight)",
            st.all_at_max * 100.0,
            sr.all_at_max * 100.0
        );
        println!(
            "  granularity 16 share, relaxed vs tight: {:.1}% vs {:.1}% (paper: +22.3% when relaxed)",
            sr.g16_share * 100.0,
            st.g16_share * 100.0
        );
    }
}
