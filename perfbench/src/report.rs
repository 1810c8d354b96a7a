//! Assembles the metric sets every workload reports.

use dae_dvfs::{PlanService, ServiceConfig, ServiceStats};

use crate::common::{
    is_solve, median, pct, trace_overhead_pct, Latency, Metrics, Rec, INLINE_HIT, NO_PATH,
    REGISTRY_HIT,
};
use crate::probe::PathProbe;

/// The end-to-end figures of one untraced run.
pub struct E2e {
    pub setups_s: Vec<f64>,
    pub latency: Latency,
    pub throughput_rps: f64,
    pub peak_rss_mb: f64,
    pub sweep10_ms: f64,
    pub solve_path_ms: f64,
    pub registry_path_ms: f64,
    pub energy: (f64, f64),
}

impl E2e {
    pub fn metrics(self) -> Metrics {
        vec![
            ("setup_s", median(self.setups_s)),
            ("latency_p50_ms", self.latency.p50_ms),
            ("latency_p99_ms", self.latency.p99_ms),
            ("throughput_rps", self.throughput_rps),
            ("peak_rss_mb", self.peak_rss_mb),
            ("sweep10_p50_ms", self.sweep10_ms),
            ("solve_path_p50_ms", self.solve_path_ms),
            ("registry_path_p50_ms", self.registry_path_ms),
            ("slo_met_frac", self.latency.slo_met_frac),
            ("energy_gain_pct", self.energy.0),
            ("energy_gain_gated_pct", self.energy.1),
        ]
    }
}

/// Median of `f` over the records matching `on`, in microseconds. Taken
/// from the workload's own receipted answers when it has any on that
/// path, otherwise from the serving-path probe's.
fn receipt_p50_us(
    own: &[Rec],
    probe: &PathProbe,
    on: impl Fn(&Rec) -> bool,
    f: impl Fn(&Rec) -> f64,
) -> f64 {
    let pick = |recs: &[Rec]| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.ok && r.path != NO_PATH && on(r))
            .map(&f)
            .collect()
    };
    let mine = pick(own);
    let values = if mine.is_empty() {
        pick(&probe.recs)
    } else {
        mine
    };
    pct(&values, 0.5) / 1e3
}

/// The service, server and registry metrics of a traced run: receipt
/// timings, `ServiceStats` deltas over the measured phase (`before` →
/// `after`; `None` when the workload runs no service), and the registry
/// probes.
pub fn serving_layers(
    own: &[Rec],
    probe: &PathProbe,
    stats: Option<(ServiceStats, ServiceStats)>,
    revalidate_s: f64,
) -> Metrics {
    let inline = receipt_p50_us(
        own,
        probe,
        |r| r.path == INLINE_HIT,
        |r| f64::from(r.total_ns),
    );
    let registry = receipt_p50_us(
        own,
        probe,
        |r| r.path == REGISTRY_HIT,
        |r| f64::from(r.total_ns),
    );
    let solve = receipt_p50_us(own, probe, |r| is_solve(r.path), |r| f64::from(r.solve_ns));
    let wait = receipt_p50_us(
        own,
        probe,
        |r| is_solve(r.path) || r.path == 2,
        |r| f64::from(r.total_ns.saturating_sub(r.solve_ns)),
    );
    let wire = receipt_p50_us(
        own,
        probe,
        |_| true,
        |r| f64::from(r.lat_ns.saturating_sub(r.total_ns)),
    );
    // A workload without a service reports the counters of an idle one.
    let (b, a) = stats.unwrap_or_else(|| {
        let idle = PlanService::new(ServiceConfig::default())
            .expect("default config validates")
            .stats();
        (idle, idle)
    });
    let d = |f: fn(&ServiceStats) -> u64| f(&a).saturating_sub(f(&b)) as f64;
    let submitted = d(|s| s.submitted);
    let batches = d(|s| s.batches);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("registry.store_us", pct(&probe.store_us, 0.5)),
        ("registry.revalidate_ms", revalidate_s * 1e3),
        ("registry.hits", probe.registry_hits as f64),
        ("registry.writes", probe.registry_writes as f64),
        ("registry.quarantined", probe.quarantined as f64),
        ("service.inline_hit_us", inline),
        ("service.registry_hit_us", registry),
        ("service.solve_us", solve),
        ("service.wait_us", wait),
        ("service.submitted", submitted),
        ("service.batches", batches),
        (
            "service.mean_batch",
            ratio(d(|s| s.batched_requests), batches),
        ),
        ("service.max_queue_depth", a.max_queue_depth as f64),
        ("service.enqueued", d(|s| s.enqueued)),
        ("service.hit_rate", ratio(d(|s| s.cache.hits), submitted)),
        (
            "service.inline_hit_rate",
            ratio(d(|s| s.inline_hits), submitted),
        ),
        ("service.evictions", d(|s| s.cache.evicted)),
        ("server.wire_us", wire),
        ("trace.overhead_p50_pct", trace_overhead_pct(own)),
    ]
}
