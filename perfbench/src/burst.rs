//! `burst-replan`: a fleet re-planning after drift. Open loop on a fixed
//! schedule: every [`PERIOD_MS`] a burst of [`BURST`] requests for one
//! `(model, target)` group is due and submitted in-process through
//! `PlanService::submit`; groups rotate so hot groups recur, and a few
//! windows repeat inside each burst. One thread submits, one waits, and
//! latency is timed from each request's due time.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dae_dvfs::obs::plan_hash;
use dae_dvfs::{PlanService, PlanTicket, ServiceError};
use tinyengine::qos_window;

use crate::common::{
    is_solve, latency, ns32, pct, peak_rss_mb, sleep_until, unit, Ctx, Outcome, Rec, NO_PATH,
    REGISTRY_HIT, SEGMENTS, SETUPS,
};
use crate::probe::{balanced, layer_probes, Probes, PROBE_KEYS_PER_TENANT};
use crate::report::{serving_layers, E2e};
use crate::stack::service_config;
use crate::tenants::{energy_gains, serve_tenants, Answer, Budget, Req, Tenant};
use crate::trace::Recorder;

/// Requests per burst, of which [`DUPLICATES`] repeat another window of
/// the same burst.
const BURST: usize = 12;
const DUPLICATES: usize = 2;

/// Time between burst due times.
const PERIOD_MS: u64 = 20;

/// Group rotation: group 0 is the hottest.
const ROTATION: [usize; 7] = [0, 1, 0, 2, 0, 1, 3];

/// Latency limit (from the due time) for `slo_met_frac`.
const SLO_MS: f64 = 15.0;

/// A burst is late when it is submitted more than half a period after its
/// due time. The generator has fallen behind, and the run is invalid and
/// fails its checks, when more than [`LATE_SHARE`] of the bursts are late
/// (a single late burst is a scheduling hiccup of the host, not a
/// generator that cannot keep up).
const LATE_MS: f64 = PERIOD_MS as f64 / 2.0;
const LATE_SHARE: f64 = 0.01;

fn bursts(ctx: &Ctx, tenants: &[Tenant], count: usize) -> Vec<Vec<Req>> {
    let mut rng = ctx.rng("burst-replan/bursts");
    (0..count)
        .map(|b| {
            let t = ROTATION[b % ROTATION.len()];
            let mut burst: Vec<Req> = (0..BURST - DUPLICATES)
                .map(|_| {
                    let slack = 0.05 + 0.9 * unit(&mut rng);
                    let mut req = Req::slack(t, slack);
                    req.budget = Budget::Qos(qos_window(tenants[t].baseline, slack));
                    req
                })
                .collect();
            for _ in 0..DUPLICATES {
                let j = (rng.next_u64() % burst.len() as u64) as usize;
                let at = (rng.next_u64() % (burst.len() as u64 + 1)) as usize;
                burst.insert(at, burst[j]);
            }
            burst
        })
        .collect()
}

/// What the submitter hands the waiter.
enum Msg {
    Sent {
        req: Req,
        due: Instant,
        seg: u8,
        ticket: Result<PlanTicket, ServiceError>,
        traced: bool,
        id: u64,
    },
    /// The slice's last request was sent: acknowledge once it is answered.
    SliceEnd(mpsc::Sender<()>),
}

/// What the waiter saw for one request.
struct Seen {
    rec: Rec,
    req: Req,
    answer: Option<(Answer, u64)>,
}

/// The open-loop phase's results.
struct OpenLoop {
    seen: Vec<Seen>,
    lateness_ms: Vec<f64>,
    spans: Vec<crate::trace::Span>,
    /// Seconds from each burst's due time to its last answer, summed.
    busy_s: f64,
}

/// Submits `bursts` on schedule in [`SEGMENTS`] slices, waits for every
/// answer, and runs `probes` between slices (after the slice drained).
fn open_loop(
    ctx: &Ctx,
    svc: &PlanService,
    pkeys: &[dae_dvfs::PlannerKey],
    bursts: &[Vec<Req>],
    probes: &mut Probes,
) -> OpenLoop {
    let period = Duration::from_millis(PERIOD_MS);
    let slice = Duration::from_secs_f64(ctx.seconds / SEGMENTS as f64);
    let per_slice = bursts.len().div_ceil(SEGMENTS);
    let epoch = Instant::now();
    let (tx, rx) = mpsc::channel::<Msg>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut rec = Recorder::new(false, epoch, 2);
            let mut seen = Vec::new();
            // Bursts are answered in submission order, so a burst ends
            // where the next due time starts.
            let (mut busy_s, mut burst_due, mut burst_ns) = (0.0, None, 0u32);
            for msg in rx {
                let (req, due, seg, ticket, traced, id) = match msg {
                    Msg::Sent {
                        req,
                        due,
                        seg,
                        ticket,
                        traced,
                        id,
                    } => (req, due, seg, ticket, traced, id),
                    Msg::SliceEnd(ack) => {
                        let _ = ack.send(());
                        continue;
                    }
                };
                rec.set_on(traced);
                let opened = rec.open();
                let mut r = Rec {
                    path: NO_PATH,
                    traced,
                    seg,
                    ..Rec::default()
                };
                let answer = match ticket.and_then(PlanTicket::wait_served) {
                    Ok(served) => {
                        r.ok = true;
                        let answer = Answer::of_plan(req.tenant, served.plan());
                        Some((answer, plan_hash(served.bytes())))
                    }
                    Err(_) => None,
                };
                r.lat_ns = ns32(due.elapsed());
                if burst_due != Some(due) {
                    busy_s += f64::from(burst_ns) / 1e9;
                    (burst_due, burst_ns) = (Some(due), 0);
                }
                burst_ns = burst_ns.max(r.lat_ns);
                rec.close(opened, "request.wait", 0, id);
                seen.push(Seen {
                    rec: r,
                    req,
                    answer,
                });
            }
            (seen, rec, busy_s + f64::from(burst_ns) / 1e9)
        });
        let mut rec = Recorder::new(false, epoch, 1);
        let mut lateness_ms = Vec::with_capacity(bursts.len());
        let mut id = 0u64;
        for (seg, chunk) in bursts.chunks(per_slice).enumerate() {
            let start = Instant::now() + Duration::from_millis(1);
            for (b, burst) in chunk.iter().enumerate() {
                let offset = period * b as u32;
                let due = start + offset;
                sleep_until(due);
                lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let traced = ctx.traced_at(slice * seg as u32 + offset);
                rec.set_on(traced);
                let opened = rec.open();
                for req in burst {
                    id += 1;
                    let ticket = svc.submit(pkeys[req.tenant], &req.request());
                    let msg = Msg::Sent {
                        req: *req,
                        due,
                        seg: seg as u8,
                        ticket,
                        traced,
                        id,
                    };
                    tx.send(msg).expect("waiter is alive");
                }
                rec.close(opened, "request.burst", 0, (seg * per_slice + b) as u64 + 1);
            }
            let (ack_tx, ack_rx) = mpsc::channel();
            tx.send(Msg::SliceEnd(ack_tx)).expect("waiter is alive");
            ack_rx.recv().expect("waiter acknowledges the slice");
            rec.set_on(false);
            probes.round(seg);
        }
        drop(tx);
        let (seen, wait_rec, busy_s) = waiter.join().expect("waiter thread panicked");
        let mut spans = rec.spans;
        spans.extend(wait_rec.spans);
        OpenLoop {
            seen,
            lateness_ms,
            spans,
            busy_s,
        }
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let count = (ctx.seconds * 1e3 / PERIOD_MS as f64).ceil() as usize;
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        // The measured session comes first, so its peak memory is not
        // that of the set-ups repeated only for timing.
        let measure = i == 0;
        let t0 = Instant::now();
        let tenants = serve_tenants();
        let plan = bursts(ctx, &tenants, count);
        let mut service = PlanService::new(service_config()).expect("service config validates");
        let pkeys: Vec<_> = tenants
            .iter()
            .map(|t| service.register(t.planner.clone()))
            .collect();
        let result = service.run(|svc| {
            // Warm-up: one burst per group, so every group has solved once.
            let warm_ok = tenants.iter().enumerate().all(|(t, tenant)| {
                let tickets: Vec<_> = (0..BURST)
                    .map(|j| {
                        let w = qos_window(tenant.baseline, 0.1 + 0.8 * j as f64 / BURST as f64);
                        svc.submit(pkeys[t], &dae_dvfs::PlanRequest::qos(w))
                    })
                    .collect();
                tickets
                    .into_iter()
                    .all(|t| t.and_then(PlanTicket::wait).is_ok())
            });
            let setup_s = t0.elapsed().as_secs_f64();
            if !measure {
                return (setup_s, warm_ok, None);
            }
            let reqs: Vec<Req> = plan.iter().flatten().copied().collect();
            let sample = balanced(&tenants, &reqs, PROBE_KEYS_PER_TENANT);
            let mut probes = Probes::new(ctx, "burst", sample);
            let before = svc.stats();
            let measured = open_loop(ctx, svc, &pkeys, &plan, &mut probes);
            let after = svc.stats();
            (
                setup_s,
                warm_ok,
                Some((measured, before, after, probes.finish())),
            )
        });
        let (setup_s, warm_ok, measured) = result;
        setups_s.push(setup_s);
        out.checks.check(warm_ok, || "warm-up burst failed".into());
        if let Some(m) = measured {
            last = Some((tenants, m, service.stats(), peak_rss_mb()));
        }
    }
    let (tenants, (measured, before, after, probes), drained, rss_mb) =
        last.expect("a measured session ran");
    let OpenLoop {
        seen,
        lateness_ms,
        spans,
        busy_s,
    } = measured;
    out.checks.absorb(probes.checks);

    let recs: Vec<Rec> = seen.iter().map(|s| s.rec).collect();
    out.attempted = recs.len() as u64;
    let ok = recs.iter().filter(|r| r.ok).count() as u64;
    out.failed = out.attempted - ok;
    let mut bytes: HashMap<(usize, u64), u64> = HashMap::new();
    let mut answers = Vec::new();
    for s in &seen {
        if let Some((answer, hash)) = s.answer {
            out.checks
                .check(answer.meets_window(), || "a plan misses its window".into());
            out.checks.check(
                answer.qos.to_bits() == s.req.window(&tenants).to_bits(),
                || "a plan answers a different window".into(),
            );
            let first = *bytes.entry(s.req.key(&tenants)).or_insert_with(|| {
                answers.push(answer);
                hash
            });
            out.checks.check(first == hash, || {
                "one key answered with different bytes".into()
            });
        }
    }
    out.checks.check(
        drained.cache.hits + drained.cache.misses == drained.submitted
            && drained.submitted == drained.completed,
        || format!("service counters do not reconcile: {drained:?}"),
    );
    let late = lateness_ms.iter().filter(|&&l| l > LATE_MS).count();
    let valid = late as f64 <= LATE_SHARE * lateness_ms.len() as f64;
    out.meta("requests", out.attempted);
    out.meta("bursts", lateness_ms.len());
    out.meta("distinct_keys", answers.len());
    out.meta("generator_lateness_p99_ms", pct(&lateness_ms, 0.99));
    out.meta(
        "generator_lateness_max_ms",
        lateness_ms.iter().copied().fold(0.0, f64::max),
    );
    out.meta("late_bursts", late);
    out.meta("valid", valid);
    out.checks.check(valid, || {
        format!(
            "the generator fell behind: {late} of {} bursts were submitted over {LATE_MS} ms late",
            lateness_ms.len()
        )
    });

    if ctx.trace {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        let mut layers = layer_probes(&tenants, &probes.keys, &mut rec, &mut out.checks);
        layers.extend(serving_layers(
            &recs,
            &probes.path,
            Some((before, after)),
            probes.path.revalidate_s(),
        ));
        out.layers = layers;
        out.spans = spans;
        out.spans.extend(rec.spans);
    } else {
        let met = recs
            .iter()
            .filter(|r| r.ok && f64::from(r.lat_ns) / 1e6 <= SLO_MS)
            .count() as u64;
        let lat = latency(&recs, met, out.attempted);
        out.meta("latency_samples", lat.samples);
        out.meta("busy_s", busy_s);
        out.e2e = E2e {
            setups_s,
            latency: lat,
            throughput_rps: ok as f64 / busy_s,
            peak_rss_mb: rss_mb,
            sweep10_ms: probes.sweep10_p50_ms,
            solve_path_ms: probes.path.p50_ms(is_solve),
            registry_path_ms: probes.path.p50_ms(|p| p == REGISTRY_HIT),
            energy: energy_gains(&tenants, &answers),
        }
        .metrics();
    }
    out
}
