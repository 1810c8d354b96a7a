//! Shared plumbing: the run context, request records and percentiles,
//! correctness checks, receipts, and the result every workload returns.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tinynn::models::synth::SplitMix64;

use crate::trace::Span;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for registries (removed at exit).
    pub work: PathBuf,
    /// Where span files and run records are written.
    pub out: PathBuf,
}

impl Ctx {
    /// A generator for one named input stream of this run: the same seed
    /// and stream name always give the same sequence.
    pub fn rng(&self, stream: &str) -> SplitMix64 {
        let salt = SplitMix64::from_name(stream).next_u64();
        SplitMix64::new(self.seed ^ salt)
    }

    /// Whether tracing is on at `elapsed` into the measured phase. A traced
    /// run alternates 100 ms traced and untraced epochs, so the tracing
    /// overhead is measured inside one run on the same state.
    pub fn traced_at(&self, elapsed: Duration) -> bool {
        self.trace && (elapsed.as_millis() / 100) % 2 == 1
    }
}

/// Uniform draw in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// How many times each workload repeats its whole set-up; `setup_s` is
/// the median.
pub const SETUPS: usize = 15;

/// Median of the given set-up times.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; NaN for
/// an empty one.
pub fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nanoseconds, saturated into a `u32` (4.29 s) to keep records small.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One measured request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    /// Client-side latency (closed loop: round trip; open loop: from the
    /// due time).
    pub lat_ns: u32,
    /// Receipt `total_ns` (0 without a receipt).
    pub total_ns: u32,
    /// Receipt `solve_ns` (0 without a receipt).
    pub solve_ns: u32,
    /// Index into [`PATHS`] (`NO_PATH` without a receipt).
    pub path: u8,
    pub ok: bool,
    pub traced: bool,
    /// Time segment of the measured phase the request started in.
    pub seg: u8,
}

/// Receipt path labels, in `ServePath::LABELS` order.
pub const PATHS: [&str; 6] = [
    "inline-hit",
    "cache-hit",
    "flight-join",
    "coalesced",
    "registry-hit",
    "solved",
];
pub const INLINE_HIT: u8 = 0;
pub const REGISTRY_HIT: u8 = 4;
pub const NO_PATH: u8 = u8::MAX;

/// Whether a path ran a solve.
pub fn is_solve(path: u8) -> bool {
    path == 3 || path == 5
}

/// The fields of an `X-Plan-Receipt` header the benchmark checks.
#[derive(Debug, Clone, Copy)]
pub struct Receipt {
    pub fp: u64,
    pub path: u8,
    pub hash: u64,
    pub solve_ns: u64,
    pub total_ns: u64,
}

/// Parses `fp=…;path=…;…;hash=…;solve_ns=…;total_ns=…`.
pub fn parse_receipt(header: &str) -> Option<Receipt> {
    let (mut fp, mut path, mut hash, mut solve_ns, mut total_ns) = (None, None, None, None, None);
    for field in header.split(';') {
        let (k, v) = field.split_once('=')?;
        match k {
            "fp" => fp = u64::from_str_radix(v, 16).ok(),
            "path" => path = PATHS.iter().position(|p| *p == v).map(|i| i as u8),
            "hash" => hash = u64::from_str_radix(v, 16).ok(),
            "solve_ns" => solve_ns = v.parse().ok(),
            "total_ns" => total_ns = v.parse().ok(),
            _ => {}
        }
    }
    Some(Receipt {
        fp: fp?,
        path: path?,
        hash: hash?,
        solve_ns: solve_ns?,
        total_ns: total_ns?,
    })
}

/// Collects correctness-check failures; a run with any failure reports
/// `correct: false` and no metrics.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: u64,
    pub first: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.first.len() < 8 {
                self.first.push(what());
            }
        }
    }

    /// Takes over another collector's failures.
    pub fn absorb(&mut self, other: Checks) {
        self.failures += other.failures;
        let room = 8usize.saturating_sub(self.first.len());
        self.first.extend(other.first.into_iter().take(room));
    }
}

/// Equal time segments of the measured phase. Timing figures are the
/// median over segments of the per-segment figure, so a burst of
/// interference from outside the program moves one segment, not the run.
pub const SEGMENTS: usize = 20;

/// The `q`-quantile of `value` over the records `keep` selects, taken per
/// group of consecutive segments and reported as the median over groups.
/// Segments are merged into as many equal groups (at most [`SEGMENTS`])
/// as leave `min_per_group` samples to each.
pub fn segmented(
    recs: &[Rec],
    q: f64,
    min_per_group: usize,
    keep: impl Fn(&Rec) -> bool,
    value: impl Fn(&Rec) -> f64,
) -> (f64, usize) {
    let mut by_seg: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    for r in recs.iter().filter(|r| keep(r)) {
        by_seg[usize::from(r.seg)].push(value(r));
    }
    let n: usize = by_seg.iter().map(Vec::len).sum();
    let groups = (n / min_per_group.max(1)).clamp(1, SEGMENTS);
    let per_group: Vec<f64> = (0..groups)
        .map(|g| by_seg[g * SEGMENTS / groups..(g + 1) * SEGMENTS / groups].concat())
        .map(|v| pct(&v, q))
        .filter(|v| v.is_finite())
        .collect();
    if per_group.is_empty() {
        (f64::NAN, n)
    } else {
        (median(per_group), n)
    }
}

/// Median over segments of the per-segment rate of `counts[segment]`
/// completions, per second.
pub fn segmented_rate(counts: &[u64; SEGMENTS], seconds: f64) -> f64 {
    let width = seconds / SEGMENTS as f64;
    median(counts.iter().map(|&c| c as f64 / width).collect())
}

/// Latency limit, share met, and the end-to-end latency figures of a set
/// of records.
pub struct Latency {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub slo_met_frac: f64,
    pub samples: usize,
}

/// Latency over the successful records (p50 from groups of at least 100
/// samples, p99 from groups of at least 1000, so at least ten lie beyond
/// it); `met` of the `attempted` requests were answered within the limit,
/// so failures count as misses.
pub fn latency(recs: &[Rec], met: u64, attempted: u64) -> Latency {
    let ms = |r: &Rec| f64::from(r.lat_ns) / 1e6;
    let (p50_ms, samples) = segmented(recs, 0.5, 100, |r| r.ok, ms);
    let (p99_ms, _) = segmented(recs, 0.99, 1000, |r| r.ok, ms);
    Latency {
        p50_ms,
        p99_ms,
        slo_met_frac: met as f64 / attempted.max(1) as f64,
        samples,
    }
}

/// Tracing overhead of a traced run: how much the traced epochs' median
/// latency exceeds the untraced epochs', in percent.
pub fn trace_overhead_pct(recs: &[Rec]) -> f64 {
    let half = |traced: bool| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.ok && r.traced == traced)
            .map(|r| f64::from(r.lat_ns))
            .collect()
    };
    let (on, off) = (pct(&half(true), 0.5), pct(&half(false), 0.5));
    (on - off) / off * 100.0
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metric values, in insertion order.
pub type Metrics = Vec<(&'static str, f64)>;

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Run metadata: sample counts, configurations, generator lateness.
    pub meta: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }
}

/// Spins until `deadline`, sleeping while it is more than a millisecond
/// away (the open-loop generator's clock).
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::hint::spin_loop();
        }
    }
}
