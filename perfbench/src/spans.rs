//! In-memory span recorder.
//!
//! The benchmark wraps its calls into each layer's public functions in
//! spans. A span carries a name, start and end (nanoseconds since the
//! recorder was created), the span that caused it, and the id of the
//! request it belongs to. Spans stay in memory while the benchmark runs and
//! are written out once, when it ends. A span's self time is its duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request this span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    name: String,
    start: u64,
    parent: Option<u64>,
    request: u64,
}

impl Open {
    /// Id of this span, to pass as the parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    spans: Vec<Span>,
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn start(&self, name: &str, parent: Option<u64>, request: u64) -> Open {
        let id = {
            let mut inner = self.inner.lock().expect("span recorder poisoned");
            inner.next_id += 1;
            inner.next_id
        };
        Open {
            id,
            name: name.to_owned(),
            start: self.now(),
            parent,
            request,
        }
    }

    /// Close a span and keep it; returns its duration in microseconds.
    pub fn end(&self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            name: open.name,
            start: open.start,
            end: self.now().max(open.start),
            parent: open.parent,
            request: open.request,
        };
        let micros = span.micros();
        self.push(span);
        micros
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in microseconds.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.start(name, parent, request);
        let out = f();
        (out, self.end(open))
    }

    fn push(&self, span: Span) {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .spans
            .push(span);
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .spans
            .clone()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Render every span as one JSON object per line, with its self time.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans();
        let self_times = self_times(&spans);
        let mut out = String::new();
        for s in &spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"self_us\": {:.3}}}",
                s.id, s.name, s.start, s.end, s.request, self_times[&s.id]
            );
        }
        out
    }
}

/// Self time of every span, in microseconds: its duration minus the union
/// of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_within(kids, s.start, s.end));
            (s.id, (s.end - s.start - covered) as f64 / 1e3)
        })
        .collect()
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            start,
            end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent 0..100 ns; children 10..40 and 30..60 overlap, so they
        // cover 10..60 = 50 ns; a grandchild does not count against the
        // parent, only against its own parent.
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 30, 60, Some(1)),
            span(4, 12, 20, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 0.050);
        assert_eq!(t[&2], 0.022);
        assert_eq!(t[&3], 0.030);
        assert_eq!(t[&4], 0.008);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, 100, 200, None),
            span(2, 50, 150, Some(1)),
            span(3, 190, 400, Some(1)),
            span(4, 500, 600, Some(1)),
        ];
        assert_eq!(self_times(&spans)[&1], 0.040);
    }

    #[test]
    fn recorder_keeps_ids_parents_and_requests() {
        let rec = Recorder::new();
        let root = rec.start("request", None, 42);
        let ((), child_us) = rec.time("sql.parse", Some(root.id()), 42, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let root_us = rec.end(root);
        assert!(child_us >= 2_000.0 && root_us >= child_us);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!((child.request, root.request), (42, 42));
        assert!(root.start <= child.start && child.end <= root.end);
        assert_eq!(rec.durations("sql.parse").len(), 1);
        let lines = rec.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\": \"sql.parse\""));
        assert!(lines.contains(&format!("\"parent\": {}", root.id)));
    }
}
