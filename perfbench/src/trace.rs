//! The traced run's recorder: spans with name, start, end, parent span
//! and request id, kept in memory and written out when the run ends.
//! Spans are recorded only from the benchmark's own code, around its
//! calls into the workspace crates; the program itself is not touched.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.loss_batch`.
    pub name: &'static str,
    /// Start, µs.
    pub start: f64,
    /// End, µs (`>= start`).
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0: none).
    pub req: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When off, every call is a no-op and records nothing,
/// so the untraced run carries no tracing cost beyond a branch.
pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of a span opened with [`Trace::begin`].
#[must_use = "a begun span must be ended"]
pub struct Open(Option<usize>);

impl Trace {
    /// A recorder, recording only when `on`.
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Trace::begin`] (and any spans opened
    /// inside it that were left open).
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.us(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, req);
        let out = f();
        self.end(span);
        out
    }

    /// Records an already finished interval (e.g. a request timed by the
    /// load generator's threads) under `parent`, or under the innermost
    /// open span when `parent` is `None`.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let parent = parent.or_else(|| self.open.last().copied());
        let (start, end) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_us = self_times(&self.spans);
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"req\":{},\"self_us\":{own:.3}}}",
                s.name, s.start, s.end, s.req
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span in µs: its duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// and a child's time outside its parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(50.0, 60.0, Some(0)),
            span(12.0, 20.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70.0, 12.0, 10.0, 8.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 40.0, Some(0)),
            span(30.0, 50.0, Some(0)),
            span(90.0, 130.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100.0 - 40.0 - 10.0);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut t = Trace::new(true);
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || std::hint::black_box(3));
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let own = self_times(s);
        assert!((own[0] + s[1].dur() - s[0].dur()).abs() < 1e-9);

        let mut off = Trace::new(false);
        let o = off.begin("outer", 1);
        off.time("inner", 1, || ());
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
