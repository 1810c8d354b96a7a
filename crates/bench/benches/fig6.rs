//! FIG6 bench: frequency-map construction and statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use dae_dvfs::{FrequencyMap, PlanRequest, Planner};
use repro_bench::fig6_stats;
use std::hint::black_box;
use tinyengine::qos_window;
use tinynn::models::vww;

fn bench_fig6(c: &mut Criterion) {
    let model = vww();
    let planner = Planner::for_target(repro_bench::target(), &model).expect("planner builds");
    let baseline = planner.baseline_latency().expect("baseline");
    let plan = planner
        .plan(&PlanRequest::qos(qos_window(baseline, 0.30)))
        .expect("optimizes");

    let mut group = c.benchmark_group("fig6");

    group.bench_function("frequency_map_from_plan", |b| {
        b.iter(|| black_box(FrequencyMap::from_plan(&plan, 0.30)).rows.len())
    });

    let map = FrequencyMap::from_plan(&plan, 0.30);
    group.bench_function("fig6_statistics", |b| {
        b.iter(|| black_box(fig6_stats(&map)))
    });

    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
