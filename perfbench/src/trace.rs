//! Spans around the harness's calls into each layer. They are kept in
//! memory, summarised by self time and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call: `parent` 0 means a root span; `op` is the op id
/// (0 outside the timed ops).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves an id, so children can name their parent before it ends.
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Builds a finished span without storing it (for thread-local buffers).
    pub fn make(&self, id: u64, parent: u64, name: &'static str, op: u64, start: Instant) -> Span {
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        Span {
            id,
            parent,
            name,
            op,
            start_ns: ns(start),
            end_ns: ns(Instant::now()),
        }
    }

    /// Stores a span that started at `start` and ends now.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, op: u64, start: Instant) {
        if self.on {
            let span = self.make(id, parent, name, op, start);
            self.absorb(vec![span]);
        }
    }

    /// Runs `body` inside a root-or-child span and returns its result.
    pub fn scope<T>(&self, parent: u64, name: &'static str, body: impl FnOnce(u64) -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = body(id);
        self.record(id, parent, name, 0, start);
        out
    }

    pub fn absorb(&self, spans: Vec<Span>) {
        if self.on && !spans.is_empty() {
            self.spans
                .lock()
                .expect("span buffer lock is never held across a panic")
                .extend(spans);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock is never held across a panic")
            .clone()
    }
}

/// Per span name: call count, total and self time in ms. Self time is a
/// span's duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    (lo, hi) = (a, b);
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total as f64 / 1e6;
        entry.2 += total.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Writes every span as one CSV line: id,parent,op,name,start_ns,end_ns.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
