//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions; nothing inside the program is
//! instrumented. A span's self time is its duration minus the part of
//! it that its child spans cover, so the per-layer self times of one
//! thread add up to the time its spans cover, and the rest of the wall
//! time is reported as unattributed.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's call lands in (the repository's module names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Data,
    Views,
    Methods,
    Kernels,
    Serve,
    Durable,
    /// The open-loop generator waiting for its next due event.
    Idle,
    /// The benchmark's own structure (setup, pass); its self time is the
    /// benchmark's own work (scoring, checks) and counts as unattributed.
    Bench,
}

impl Layer {
    /// The layers whose self time is attributed (every layer but
    /// [`Layer::Bench`]).
    pub const ALL: [Layer; 7] = [
        Layer::Data,
        Layer::Views,
        Layer::Methods,
        Layer::Kernels,
        Layer::Serve,
        Layer::Durable,
        Layer::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Data => "data",
            Layer::Views => "views",
            Layer::Methods => "methods",
            Layer::Kernels => "kernels",
            Layer::Serve => "serve",
            Layer::Durable => "durable",
            Layer::Idle => "idle",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: Layer,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Ids of the answer batches this span handled (serve workload).
    pub batches: Vec<u64>,
}

/// Records spans while active. An inactive tracer records nothing and
/// adds one branch per call; time spent inactive is left out of the
/// traced wall time.
pub struct Tracer {
    t0: Instant,
    active_since: Option<Instant>,
    active_wall: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_batch: u64,
}

impl Tracer {
    pub fn new(active: bool) -> Self {
        let t0 = Instant::now();
        Self {
            t0,
            active_since: active.then_some(t0),
            active_wall: 0.0,
            spans: Vec::new(),
            open: Vec::new(),
            next_batch: 0,
        }
    }

    pub fn active(&self) -> bool {
        self.active_since.is_some()
    }

    /// Start or stop recording; only active time counts as traced wall.
    pub fn set_active(&mut self, on: bool) {
        match (self.active_since, on) {
            (None, true) => self.active_since = Some(Instant::now()),
            (Some(since), false) => {
                self.active_wall += since.elapsed().as_secs_f64();
                self.active_since = None;
            }
            _ => {}
        }
    }

    /// Wall time spent active so far.
    pub fn active_wall(&self) -> f64 {
        self.active_wall + self.active_since.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }

    /// Open a span; later spans are its children until [`Tracer::end`].
    pub fn begin(&mut self, layer: Layer, name: &str) -> Option<usize> {
        if !self.active() {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            batches: Vec::new(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::begin`] returned (and any left open
    /// inside it).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(idx) = id else { return };
        let now = self.t0.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a leaf span.
    pub fn span<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Record an interval the caller already timed, as a child of the
    /// innermost open span.
    pub fn record(
        &mut self,
        layer: Layer,
        name: &str,
        start: Instant,
        end: Instant,
        batches: Vec<u64>,
    ) {
        if !self.active() {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            batches,
        });
    }

    /// A fresh answer-batch id, unique within the run.
    pub fn batch_id(&mut self) -> u64 {
        self.next_batch += 1;
        self.next_batch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every layer, in [`Layer::ALL`] order.
    pub fn layer_self_times(&self) -> Vec<(Layer, f64)> {
        let selfs = self_times(&self.spans);
        Layer::ALL
            .iter()
            .map(|&l| {
                let total = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.layer == l)
                    .map(|(_, t)| t)
                    .sum();
                (l, total)
            })
            .collect()
    }

    /// The spans as JSON lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, st)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let batches: Vec<String> = s.batches.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"self_s\": {st}, \"parent\": {parent}, \"batches\": [{}]}}",
                s.name,
                s.layer.name(),
                s.start,
                s.end,
                batches.join(", ")
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.max(lo), s.end.min(hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            layer: Layer::Serve,
            start,
            end,
            parent,
            batches: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // 0: [0, 10] with children [1, 3] and [2, 5] (overlapping: union
        // 4) and [9, 12] (clipped to [9, 10]); 3: [1, 3] has child [1.5, 2].
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 3.0, Some(0)),
            span(2.0, 5.0, Some(0)),
            span(9.0, 12.0, Some(0)),
            span(1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 5.0).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 1.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 3.0).abs() < 1e-12);
        assert!((st[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Layer::Data, "x", || 7), 7);
        let now = Instant::now();
        t.record(Layer::Idle, "wait", now, now, vec![1]);
        assert!(t.spans().is_empty());
        assert_eq!(t.active_wall(), 0.0);
    }

    #[test]
    fn nested_spans_attribute_to_layers() {
        let mut t = Tracer::new(true);
        let pass = t.begin(Layer::Bench, "pass");
        assert_eq!(t.span(Layer::Methods, "m", || 1), 1);
        let now = Instant::now();
        t.record(Layer::Idle, "wait", now, now, vec![3, 4]);
        t.end(pass);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let st = self_times(spans);
        let pass_len = spans[0].end - spans[0].start;
        assert!((st[0] + st[1] + st[2] - pass_len).abs() < 1e-9);
        let by_layer = t.layer_self_times();
        assert_eq!(by_layer.len(), Layer::ALL.len());
        assert!(by_layer.iter().all(|(l, _)| *l != Layer::Bench));
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
