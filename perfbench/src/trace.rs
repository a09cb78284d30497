//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around one call into a layer's
//! public function: name, start, end, parent span and request id. Spans
//! stay in memory and are written out once, when the run ends, so the
//! file system is not touched while anything is being timed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `trustd.wire.request_decode`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (stream sequence number) the span belongs to.
    pub request: u64,
}

/// A span id: the span's index in the tracer.
pub type SpanId = usize;

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Close a span.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("tracer poisoned")[id].end = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Durations (ns) of every closed span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer poisoned")
            .iter()
            .filter(|s| s.name == name && s.end >= s.start && s.end > 0)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Per span name: (count, total self time in ns). A span's self time
    /// is its duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = s.end.saturating_sub(s.start).saturating_sub(child_ns[i]);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64;
        }
        out
    }

    /// Per request id, the summed duration (ns) of the named spans
    /// recorded at or after index `first`, in request order.
    pub fn request_sums(&self, names: &[&str], first: usize) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().skip(first).filter(|s| names.contains(&s.name)) {
            *sums.entry(s.request).or_default() += s.end.saturating_sub(s.start) as f64;
        }
        sums.into_values().collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self
            .spans
            .lock()
            .expect("tracer poisoned")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let root = t.open("root", None, 0);
        t.span("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let st = t.self_times();
        let (_, root_self) = st["root"];
        let (_, child_self) = st["child"];
        assert!(child_self >= 2e6);
        assert!(root_self < child_self);
    }
}
