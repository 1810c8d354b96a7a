//! `serve-hot`: the warm path tenants mostly see. Two keep-alive clients
//! send seeded Zipf traffic over 64 keys (VWW and PD on the F767 and the
//! lean Cortex-M) to the HTTP server; every key is answered once before
//! timing, so each measured request is an inline cache hit.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;

use crate::common::{
    is_solve, latency, peak_rss_mb, segmented_rate, unit, Ctx, Outcome, Rec, INLINE_HIT,
    REGISTRY_HIT, SEGMENTS, SETUPS,
};
use crate::probe::{balanced, layer_probes, Probes, PROBE_KEYS_PER_TENANT};
use crate::report::{serving_layers, E2e};
use crate::stack::{check_plans, merge, serve, service_config, Conn, CLIENTS};
use crate::tenants::{energy_gains, serve_tenants, Budget, Req, Tenant};
use crate::trace::{Recorder, Span};

/// Keys per tenant (4 tenants, so 64 keys).
const KEYS_PER_TENANT: usize = 16;

/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;

/// Latency limit for `slo_met_frac`.
const SLO_MS: f64 = 1.0;

/// The key set: slack stratified over 5–95% per tenant, odd keys sent as
/// absolute `qos_secs` windows and even keys as `slack`.
fn keys(ctx: &Ctx, tenants: &[Tenant]) -> Vec<Req> {
    let mut rng = ctx.rng("serve-hot/keys");
    let mut keys = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for j in 0..KEYS_PER_TENANT {
            let slack = 0.05 + 0.9 * (j as f64 + unit(&mut rng)) / KEYS_PER_TENANT as f64;
            let mut req = Req::slack(t, slack);
            if j % 2 == 1 {
                req.budget = Budget::Qos(qos_window(tenant.baseline, slack));
            }
            keys.push(req);
        }
    }
    keys
}

/// Zipf(`s`) over `n` keys, popularity ranks assigned by a seeded shuffle.
struct Zipf {
    cdf: Vec<f64>,
    rank_to_key: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut SplitMix64) -> Self {
        let mut rank_to_key: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            rank_to_key.swap(i, j);
        }
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf, rank_to_key }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = unit(rng);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_key[rank]
    }
}

/// Records kept per client and slice: a uniform sample (reservoir) of the
/// slice's requests, so the benchmark's own memory is fixed whatever the
/// request rate.
const SAMPLE_PER_SLICE: usize = 4096;

/// What the clients of the measured phase saw.
#[derive(Default)]
struct Phase {
    /// The sampled records of every client and slice.
    recs: Vec<Rec>,
    attempted: u64,
    /// Successful requests per slice.
    ok: [u64; SEGMENTS],
    /// Successful requests answered within [`SLO_MS`].
    met: u64,
    conns: Vec<Conn>,
    spans: Vec<Span>,
}

/// Runs the measured phase as [`SEGMENTS`] equal slices of traffic: one
/// thread per connection sends Zipf-drawn keys until the slice ends and
/// closes its connection, then every client waits while `probes` runs its
/// round for that slice.
fn closed_loop(
    ctx: &Ctx,
    conns: Vec<Conn>,
    zipf: &Zipf,
    keys: &[Req],
    bodies: &[String],
    probes: &mut Probes,
) -> Phase {
    let slice = Duration::from_secs_f64(ctx.seconds / SEGMENTS as f64);
    let slo_ns = (SLO_MS * 1e6) as u32;
    let epoch = Instant::now();
    let barrier = Barrier::new(conns.len() + 1);
    let barrier = &barrier;
    let done: Vec<(Phase, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let mut rng = ctx.rng(&format!("serve-hot/client{c}"));
                    let mut sampler = ctx.rng(&format!("serve-hot/sample{c}"));
                    let mut rec = Recorder::new(false, epoch, c as u64 + 1);
                    let mut out = Phase {
                        recs: vec![Rec::default(); SEGMENTS * SAMPLE_PER_SLICE],
                        ..Phase::default()
                    };
                    out.recs.clear();
                    let mut id = (c as u64) << 40;
                    for seg in 0..SEGMENTS {
                        barrier.wait();
                        let (base, mut seen) = (out.recs.len(), 0u64);
                        let start = Instant::now();
                        loop {
                            let now = Instant::now();
                            if now >= start + slice {
                                break;
                            }
                            let traced = ctx.traced_at(slice * seg as u32 + (now - start));
                            rec.set_on(traced);
                            let k = zipf.sample(&mut rng);
                            id += 1;
                            let opened = rec.open();
                            let mut r = conn.post(&keys[k], &bodies[k]);
                            rec.close(opened, "request.http", 0, id);
                            r.traced = traced;
                            r.seg = seg as u8;
                            out.attempted += 1;
                            if r.ok {
                                out.ok[seg] += 1;
                                out.met += u64::from(r.lat_ns <= slo_ns);
                            }
                            seen += 1;
                            if seen <= SAMPLE_PER_SLICE as u64 {
                                out.recs.push(r);
                            } else {
                                let j = (sampler.next_u64() % seen) as usize;
                                if j < SAMPLE_PER_SLICE {
                                    out.recs[base + j] = r;
                                }
                            }
                        }
                        conn.close();
                        barrier.wait();
                    }
                    out.conns.push(conn);
                    (out, rec)
                })
            })
            .collect();
        for seg in 0..SEGMENTS {
            barrier.wait();
            barrier.wait();
            probes.round(seg);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for (client, rec) in done {
        phase.recs.extend(client.recs);
        phase.attempted += client.attempted;
        for (total, n) in phase.ok.iter_mut().zip(client.ok) {
            *total += n;
        }
        phase.met += client.met;
        phase.conns.extend(client.conns);
        phase.spans.extend(rec.spans);
    }
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        // The measured session comes first, so its peak memory is not
        // that of the set-ups repeated only for timing.
        let measure = i == 0;
        let t0 = Instant::now();
        let tenants = serve_tenants();
        let keys = keys(ctx, &tenants);
        let bodies: Vec<String> = keys.iter().map(|k| k.body(&tenants)).collect();
        let served = serve(&tenants, service_config(), None, |svc, addr, _| {
            let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::connect(addr)).collect();
            let warm_ok = keys
                .iter()
                .zip(&bodies)
                .enumerate()
                .all(|(j, (k, b))| conns[j % CLIENTS].post(k, b).ok);
            let setup_s = t0.elapsed().as_secs_f64();
            if !measure {
                return (setup_s, warm_ok, None);
            }
            let zipf = Zipf::new(keys.len(), ZIPF_S, &mut ctx.rng("serve-hot/zipf"));
            let sample = balanced(&tenants, &keys, PROBE_KEYS_PER_TENANT);
            let mut probes = Probes::new(ctx, "hot", sample);
            let before = svc.stats();
            let phase = closed_loop(ctx, conns, &zipf, &keys, &bodies, &mut probes);
            let after = svc.stats();
            (
                setup_s,
                warm_ok,
                Some((phase, before, after, probes.finish())),
            )
        });
        let (setup_s, warm_ok, phase) = served.out;
        setups_s.push(setup_s);
        out.checks
            .check(warm_ok, || "warm-up request failed".into());
        if let Some(measured) = phase {
            last = Some((tenants, keys, measured, served.stats, peak_rss_mb()));
        }
    }
    let (tenants, keys, (phase, before, after, probes), drained, rss_mb) =
        last.expect("a measured session ran");

    out.attempted = phase.attempted;
    let ok: u64 = phase.ok.iter().sum();
    out.failed = out.attempted - ok;
    let not_inline = phase
        .recs
        .iter()
        .filter(|r| r.ok && r.path != INLINE_HIT)
        .count();
    out.checks.check(not_inline == 0, || {
        format!("{not_inline} measured answers were not inline hits")
    });
    out.checks.check(
        after.batches == before.batches
            && after.enqueued == before.enqueued
            && after.inline_hits - before.inline_hits == ok,
        || "the measured phase solved, queued or missed the inline path".into(),
    );
    out.checks.check(
        drained.cache.hits + drained.cache.misses == drained.submitted
            && drained.submitted == drained.completed,
        || format!("service counters do not reconcile: {drained:?}"),
    );
    let known = merge(phase.conns, &mut out.checks);
    out.checks.check(known.len() == keys.len(), || {
        format!("{} distinct answers for {} keys", known.len(), keys.len())
    });
    let answers = check_plans(&known, &tenants, &mut out.checks);
    out.checks.absorb(probes.checks);
    out.meta("requests", out.attempted);
    out.meta("sampled_records", phase.recs.len());
    out.meta("distinct_keys", known.len());
    if ctx.trace {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        let mut layers = layer_probes(&tenants, &probes.keys, &mut rec, &mut out.checks);
        layers.extend(serving_layers(
            &phase.recs,
            &probes.path,
            Some((before, after)),
            probes.path.revalidate_s(),
        ));
        out.layers = layers;
        out.spans = phase.spans;
        out.spans.extend(rec.spans);
    } else {
        let lat = latency(&phase.recs, phase.met, out.attempted);
        out.meta("latency_samples", lat.samples);
        out.e2e = E2e {
            setups_s,
            latency: lat,
            throughput_rps: segmented_rate(&phase.ok, ctx.seconds),
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
