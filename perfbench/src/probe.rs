//! Probes that re-run layers on a workload's own inputs after its
//! measured phase: the serving-path probe (solve, registry and inline
//! paths over loopback HTTP), the 10-window sweep probe, and, in traced
//! runs, timed calls into each layer's public functions.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use dae_dvfs::obs::plan_hash;
use dae_dvfs::pareto::pareto_front;
use dae_dvfs::pipeline::lower_model;
use dae_dvfs::schedule::{explore_model, replay_decisions, CompiledLayer};
use dae_dvfs::{
    mckp_resweep, mckp_sweep, sequence_sweep, DeploymentPlan, MckpItem, PlanArtifact, PlanRegistry,
    PlanRequest, Planner, SolverWorkspace,
};
use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;

use crate::common::{
    is_solve, median, pct, unit, Checks, Ctx, Metrics, Rec, INLINE_HIT, REGISTRY_HIT,
};
use crate::stack::{merge, serve, service_config, Conn};
use crate::tenants::{serve_tenants, Req, Tenant};
use crate::trace::{durations_us, Recorder};

/// Keys per tenant the serving-path probe sends in each round.
pub const PROBE_KEYS_PER_TENANT: usize = 8;

/// Records of the serving-path probe.
#[derive(Default)]
pub struct PathProbe {
    /// Solve, registry-hit and inline-hit answers, one per key each per
    /// round.
    pub recs: Vec<Rec>,
    /// Tenant and round of each record.
    origin: Vec<(usize, usize)>,
    /// Registry open plus re-validation on each restarted service, seconds.
    revalidate_s: Vec<f64>,
    /// `PlanRegistry::store` calls, microseconds (traced runs only).
    pub store_us: Vec<f64>,
    /// Registry counters of the probe's services, summed over rounds.
    pub registry_hits: u64,
    pub registry_writes: u64,
    pub quarantined: u64,
}

impl PathProbe {
    /// Latency on the selected paths in milliseconds: per round, the mean
    /// over tenants of each tenant's median (so the tenant mix does not
    /// move it); reported as the median over rounds.
    pub fn p50_ms(&self, on: impl Fn(u8) -> bool) -> f64 {
        let mut cells: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for (r, &(tenant, round)) in self.recs.iter().zip(&self.origin) {
            if r.ok && on(r.path) {
                cells
                    .entry((round, tenant))
                    .or_default()
                    .push(f64::from(r.lat_ns) / 1e6);
            }
        }
        let mut by_round: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for ((round, _), v) in &cells {
            by_round.entry(*round).or_default().push(pct(v, 0.5));
        }
        let rounds: Vec<f64> = by_round
            .values()
            .map(|m| m.iter().sum::<f64>() / m.len() as f64)
            .collect();
        if rounds.is_empty() {
            f64::NAN
        } else {
            median(rounds)
        }
    }

    /// Median registry open plus re-validation time, seconds.
    pub fn revalidate_s(&self) -> f64 {
        if self.revalidate_s.is_empty() {
            f64::NAN
        } else {
            median(self.revalidate_s.clone())
        }
    }
}

/// `per_tenant` distinct keys of each tenant, evenly spaced over the
/// tenant's candidate windows, so the probe's window mix (and with it the
/// solve cost) does not depend on which keys the seed drew.
pub fn balanced(tenants: &[Tenant], reqs: &[Req], per_tenant: usize) -> Vec<Req> {
    let mut seen = HashSet::new();
    let mut by_tenant: Vec<Vec<Req>> = vec![Vec::new(); tenants.len()];
    for r in reqs {
        if seen.insert(r.key(tenants)) {
            by_tenant[r.tenant].push(*r);
        }
    }
    let mut sample = Vec::with_capacity(per_tenant * tenants.len());
    for mut candidates in by_tenant {
        candidates.sort_by(|a, b| a.window(tenants).total_cmp(&b.window(tenants)));
        let n = candidates.len();
        let take = per_tenant.min(n);
        sample.extend((0..take).map(|i| candidates[(2 * i + 1) * n / (2 * take)]));
    }
    sample
}

/// Ten windows over 5–95% slack, one drawn in each tenth of the range.
fn windows10(tenant: &Tenant, rng: &mut SplitMix64) -> Vec<f64> {
    (0..10)
        .map(|i| qos_window(tenant.baseline, 0.05 + 0.09 * (i as f64 + unit(rng))))
        .collect()
}

/// `sweep10_p50_ms` from `(tenant, milliseconds)` samples: the mean over
/// tenants of each tenant's median ten-window sweep time, so the tenant
/// mix of a sample does not move it.
fn sweep10_p50(samples: &[(usize, f64)]) -> f64 {
    let mut by_tenant: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(t, ms) in samples {
        by_tenant.entry(t).or_default().push(ms);
    }
    by_tenant.values().map(|v| pct(v, 0.5)).sum::<f64>() / by_tenant.len() as f64
}

/// What a workload's [`Probes`] measured.
pub struct ProbeResults {
    /// The probe keys (the workload's own inputs the layer probes re-run).
    pub keys: Vec<Req>,
    pub path: PathProbe,
    pub sweep10_p50_ms: f64,
    pub checks: Checks,
}

/// The probes a workload runs between the time slices of its measured
/// phase, so they sample the same stretch of time as its traffic: per
/// slice, one serving-path round and one ten-window sweep per planner.
/// The probes build their own planners for the serving tenants, so
/// solver state the workload leaves behind cannot change what they
/// measure.
pub struct Probes<'a> {
    ctx: &'a Ctx,
    tenants: Vec<Tenant>,
    tag: &'static str,
    keys: Vec<Req>,
    bodies: Vec<String>,
    rng: SplitMix64,
    pub path: PathProbe,
    pub sweep_ms: Vec<(usize, f64)>,
    pub checks: Checks,
}

impl<'a> Probes<'a> {
    pub fn new(ctx: &'a Ctx, tag: &'static str, keys: Vec<Req>) -> Self {
        let tenants = serve_tenants();
        let bodies = keys.iter().map(|k| k.body(&tenants)).collect();
        Probes {
            ctx,
            tenants,
            tag,
            keys,
            bodies,
            rng: ctx.rng("sweep-probe"),
            path: PathProbe::default(),
            sweep_ms: Vec::new(),
            checks: Checks::default(),
        }
    }

    /// What the probes measured, detached from the tenants they borrowed.
    pub fn finish(self) -> ProbeResults {
        ProbeResults {
            keys: self.keys,
            path: self.path,
            sweep10_p50_ms: sweep10_p50(&self.sweep_ms),
            checks: self.checks,
        }
    }

    /// Runs the probes due after slice `round`.
    pub fn round(&mut self, round: usize) {
        self.path_round(round);
        for (t, tenant) in self.tenants.iter().enumerate() {
            let windows = windows10(tenant, &mut self.rng);
            let start = Instant::now();
            let plans = tenant.planner.sweep(windows.iter().copied());
            self.sweep_ms.push((t, start.elapsed().as_secs_f64() * 1e3));
            match plans {
                Ok(plans) => self.checks.check(
                    plans
                        .iter()
                        .zip(&windows)
                        .all(|(p, w)| p.predicted_latency_secs <= *w),
                    || "sweep probe: plan misses its window".into(),
                ),
                Err(e) => self
                    .checks
                    .check(false, || format!("sweep probe failed: {e}")),
            }
        }
    }

    /// One serving-path round with one keep-alive client: a cold service
    /// over an empty registry solves every key and writes it through, a
    /// restarted service loads every key from disk, then answers it
    /// inline. Bytes must agree across the three paths.
    fn path_round(&mut self, round: usize) {
        let (ctx, tenants, keys, bodies) = (self.ctx, &self.tenants, &self.keys, &self.bodies);
        let checks = &mut self.checks;
        let probe = &mut self.path;
        let dir = ctx.work.join(format!("probe-{}-{round}", self.tag));
        let _ = std::fs::remove_dir_all(&dir);
        let store_probe = ctx.trace && round == 0;
        let cold = serve(tenants, service_config(), Some(&dir), |svc, addr, pkeys| {
            let mut conn = Conn::connect(addr);
            let recs: Vec<Rec> = keys
                .iter()
                .zip(bodies)
                .map(|(k, b)| conn.post(k, b))
                .collect();
            // The registry keys of the answers, for the store probe.
            let plan_keys: Vec<_> = if store_probe {
                keys.iter()
                    .filter_map(|k| svc.plan_receipted(pkeys[k.tenant], &k.request()).ok())
                    .map(|(served, receipt)| (receipt.key, served.bytes().clone()))
                    .collect()
            } else {
                Vec::new()
            };
            conn.close();
            (recs, conn, plan_keys)
        });
        let (cold_recs, cold_conn, plan_keys) = cold.out;
        for (r, k) in cold_recs.into_iter().zip(keys) {
            checks.check(r.ok && is_solve(r.path), || {
                format!("path probe: cold answer on path {} (ok {})", r.path, r.ok)
            });
            probe.recs.push(r);
            probe.origin.push((k.tenant, round));
        }

        if !plan_keys.is_empty() {
            let store_dir = ctx.work.join(format!("probe-{}-store", self.tag));
            let _ = std::fs::remove_dir_all(&store_dir);
            let registry = PlanRegistry::open(&store_dir).expect("registry opens");
            for (key, bytes) in &plan_keys {
                let artifact = PlanArtifact::from_json(&String::from_utf8_lossy(bytes))
                    .expect("served bytes parse");
                let t = Instant::now();
                let stored = registry.store(*key, &artifact);
                probe.store_us.push(t.elapsed().as_secs_f64() * 1e6);
                checks.check(stored.is_ok(), || "registry store failed".into());
            }
        }

        let warm = serve(tenants, service_config(), Some(&dir), |_, addr, _| {
            let mut conn = Conn::connect(addr);
            let mut recs = Vec::with_capacity(2 * keys.len());
            for pass in [REGISTRY_HIT, INLINE_HIT] {
                for (k, b) in keys.iter().zip(bodies) {
                    let r = conn.post(k, b);
                    conn.checks.check(r.ok && r.path == pass, || {
                        format!("path probe: expected path {pass}, got {}", r.path)
                    });
                    recs.push(r);
                }
            }
            conn.close();
            (recs, conn)
        });
        let (warm_recs, warm_conn) = warm.out;
        probe
            .origin
            .extend(keys.iter().chain(keys).map(|k| (k.tenant, round)));
        probe.recs.extend(warm_recs);
        merge(vec![cold_conn, warm_conn], checks);
        checks.check(
            cold.stats.registry_writes == keys.len() as u64
                && warm.stats.registry_hits == keys.len() as u64,
            || "path probe: a key was not written through, or not loaded back from disk".into(),
        );
        for stats in [&cold.stats, &warm.stats] {
            checks.check(
                stats.cache.inserted == stats.registry_hits + stats.registry_writes
                    && stats.quarantined == 0,
                || format!("path probe: registry counters do not reconcile: {stats:?}"),
            );
            probe.registry_hits += stats.registry_hits;
            probe.registry_writes += stats.registry_writes;
            probe.quarantined += stats.quarantined;
        }
        probe.revalidate_s.push(warm.attach_s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The planner's MCKP classes under the window-energy objective (items
/// valued `E − P_idle·t`), as the planner builds them.
fn classes(planner: &Planner) -> Vec<Vec<MckpItem>> {
    let idle = planner.config().power.clock_gated_power.as_f64();
    planner
        .fronts()
        .iter()
        .map(|front| {
            front
                .iter()
                .map(|pt| MckpItem {
                    time_secs: pt.latency_secs,
                    energy: pt.energy.as_f64() - idle * pt.latency_secs,
                })
                .collect()
        })
        .collect()
}

/// The deepest budget the planner's reserve-grid search solves for (the
/// floor of its shared grid).
fn qos_floor(classes: &[Vec<MckpItem>], resolution: usize) -> f64 {
    let min_time: f64 = classes
        .iter()
        .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
        .sum();
    min_time * (1.0 + (classes.len() + 1) as f64 / resolution as f64)
}

/// Layer samples taken per traced run.
const LAYER_SAMPLES: usize = 16;

/// Times each layer's public functions on the workload's own inputs and
/// returns the per-layer metrics they give (construction stages summed
/// over the tenants; per-request stages as medians).
pub fn layer_probes(
    tenants: &[Tenant],
    sample: &[Req],
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Metrics {
    let root = rec.open();
    let parent = root.0;
    let (mut dse_points, mut front_points) = (0usize, 0usize);
    for tenant in tenants {
        let planner = &tenant.planner;
        let config = planner.config();
        let profiles = rec.time("pipeline.lower", parent, || {
            lower_model(planner.model()).expect("model lowers")
        });
        let layers: Vec<CompiledLayer> = rec.time("schedule.compile", parent, || {
            profiles
                .into_iter()
                .map(|p| CompiledLayer::compile(p, config))
                .collect()
        });
        let points = rec.time("schedule.explore", parent, || {
            explore_model(&layers, config, planner.power())
        });
        dse_points += points.iter().map(Vec::len).sum::<usize>();
        let fronts: Vec<_> = rec.time("pareto.front", parent, || {
            points.into_iter().map(pareto_front).collect()
        });
        front_points += fronts.iter().map(Vec::len).sum::<usize>();
        checks.check(fronts == planner.fronts(), || {
            format!(
                "{}: re-run DSE disagrees with the planner's fronts",
                tenant.name
            )
        });
        let baseline = rec.time("tinyengine.baseline", parent, || {
            planner.target().compile_baseline(planner.model())
        });
        checks.check(baseline.is_ok(), || "baseline lowering failed".into());
    }

    // Tenants in turn, so every planner is sampled.
    let mut seen_per_tenant = vec![0usize; tenants.len()];
    let mut order: Vec<(usize, usize, &Req)> = sample
        .iter()
        .map(|r| {
            seen_per_tenant[r.tenant] += 1;
            (seen_per_tenant[r.tenant], r.tenant, r)
        })
        .collect();
    order.sort_by_key(|&(nth, tenant, _)| (nth, tenant));

    let mut warm_ws: Vec<Option<SolverWorkspace>> = tenants.iter().map(|_| None).collect();
    let mut refilled = Vec::new();
    let mut bytes = Vec::new();
    for &(_, _, req) in order.iter().take(LAYER_SAMPLES) {
        let tenant = &tenants[req.tenant];
        let planner = &tenant.planner;
        let config = planner.config();
        let resolution = config.dp_resolution;
        let classes = classes(planner);
        let w = req.window(tenants);
        let floor = qos_floor(&classes, resolution);
        let budgets = if w >= floor { vec![w, floor] } else { vec![w] };

        let mut ws = SolverWorkspace::new();
        let opened = rec.open();
        let table = mckp_sweep(&classes, &budgets, resolution, &mut ws).expect("fill succeeds");
        rec.close(opened, "solver.fill", parent, 0);
        let best = rec.time("solver.extract", parent, || table.best_for(w));
        checks.check(best.is_ok(), || "extraction found no selection".into());

        match warm_ws[req.tenant].as_mut() {
            Some(ws) => {
                let opened = rec.open();
                let table = mckp_resweep(&classes, &budgets, resolution, ws).expect("refill");
                rec.close(opened, "solver.resweep", parent, 0);
                refilled.push(table.refilled_classes() as f64);
            }
            None => {
                let mut ws = SolverWorkspace::new();
                mckp_resweep(&classes, &budgets, resolution, &mut ws).expect("fill succeeds");
                warm_ws[req.tenant] = Some(ws);
            }
        }

        let idle = config.power.clock_gated_power.as_f64();
        let mut seq_ws = SolverWorkspace::new();
        let opened = rec.open();
        let seq = sequence_sweep(
            planner.fronts(),
            &[w],
            resolution,
            config,
            idle,
            &mut seq_ws,
        );
        rec.close(opened, "solver.seq_fill", parent, 0);
        checks.check(seq.is_ok(), || "sequence fill failed".into());

        let planned = rec.time("planner.plan", parent, || {
            planner.plan(&PlanRequest::qos(w))
        });
        checks.check(planned.is_ok(), || "planner.plan failed".into());
        let swept = rec.time("planner.sweep1", parent, || planner.sweep([w]));
        let Some(plan) = swept.ok().and_then(|mut p| p.pop()) else {
            checks.check(false, || "singleton sweep failed".into());
            continue;
        };
        let (latency, _) = rec.time("schedule.replay", parent, || {
            replay_decisions(planner.layers(), &plan.decisions, config, planner.power())
        });
        checks.check(latency == plan.predicted_latency_secs, || {
            "replay disagrees with the plan's predicted latency".into()
        });
        let json = rec.time("artifact.render", parent, || {
            plan.to_artifact(planner).to_json()
        });
        rec.time("obs.hash", parent, || plan_hash(json.as_bytes()));
        let artifact = rec.time("artifact.parse", parent, || PlanArtifact::from_json(&json));
        let Ok(artifact) = artifact else {
            checks.check(false, || "rendered artifact does not parse".into());
            continue;
        };
        let decoded = rec.time("artifact.validate", parent, || {
            DeploymentPlan::from_artifact(&artifact, planner)
        });
        checks.check(decoded.as_ref() == Ok(&plan), || {
            "artifact round trip changed the plan".into()
        });
        bytes.push(json.len() as f64);
    }

    let mut rng = SplitMix64::new(0x5eed);
    for tenant in tenants {
        let windows = windows10(tenant, &mut rng);
        let swept = rec.time("planner.sweep10", parent, || {
            tenant.planner.sweep(windows.iter().copied())
        });
        checks.check(swept.is_ok(), || "ten-window sweep failed".into());
    }
    rec.close(root, "probe.layers", 0, 0);

    let by_name = durations_us(&rec.spans);
    let p50 = |name: &str| by_name.get(name).map_or(0.0, |v| pct(v, 0.5));
    let total_ms = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e3)
    };
    let fill = p50("solver.fill");
    let extract = p50("solver.extract");
    let sweep1 = p50("planner.sweep1");
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    vec![
        ("pipeline.lower_ms", total_ms("pipeline.lower")),
        ("schedule.compile_ms", total_ms("schedule.compile")),
        ("schedule.explore_ms", total_ms("schedule.explore")),
        ("pareto.front_ms", total_ms("pareto.front")),
        ("tinyengine.baseline_ms", total_ms("tinyengine.baseline")),
        ("schedule.dse_points", dse_points as f64),
        ("pareto.front_points", front_points as f64),
        ("solver.fill_us", fill),
        ("solver.extract_us", extract),
        ("solver.seq_fill_us", p50("solver.seq_fill")),
        ("solver.resweep_us", p50("solver.resweep")),
        ("solver.refilled_classes", mean(&refilled)),
        ("planner.plan_us", p50("planner.plan")),
        ("planner.sweep1_us", sweep1),
        ("planner.sweep10_us", p50("planner.sweep10")),
        ("planner.kernel_share", (fill + extract) / sweep1),
        ("schedule.replay_us", p50("schedule.replay")),
        ("artifact.render_us", p50("artifact.render")),
        ("obs.hash_us", p50("obs.hash")),
        ("artifact.parse_us", p50("artifact.parse")),
        ("artifact.validate_us", p50("artifact.validate")),
        ("artifact.bytes", mean(&bytes)),
    ]
}
