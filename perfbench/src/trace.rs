//! In-memory spans recorded from the benchmark's own code, around calls
//! into the layers' public functions. Each thread owns a [`Recorder`];
//! spans are merged and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per recorder; later spans are not stored, so a traced
/// hot-path run stays within memory.
const SPAN_CAP: usize = 20_000;

/// One timed call: name, start and end (ns since the run's epoch), the
/// span that caused it (0: none) and the request it belongs to (0: a
/// probe call outside any request).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span sink; does nothing when tracing is off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `lane` keeps span ids unique across threads sharing one epoch.
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Self {
        Recorder {
            on,
            epoch,
            next_id: (lane << 40) | 1,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the epoch (0 when tracing is off).
    fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Reserves the id of a span that will be closed with [`Recorder::close`]
    /// (so children can name it as their parent before it ends).
    pub fn open(&mut self) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now())
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, opened: (u64, u64), name: &'static str, parent: u64, req: u64) {
        if !self.on || self.spans.len() >= SPAN_CAP {
            return;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            id: opened.0,
            parent,
            req,
            name,
            start_ns: opened.1,
            end_ns,
        });
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let opened = self.open();
        let out = f();
        self.close(opened, name, parent, 0);
        out
    }
}

/// Per-name span durations in microseconds.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
    }
    by_name
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
