//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! A disabled [`Tracer`] records nothing, so untraced runs pay one branch
//! per span. Spans nest by call order: `begin` pushes onto a stack and the
//! span it opens is the child of whatever was open.

use std::path::Path;
use std::time::Instant;

use maps_obs::Json;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.engine` or `proc.fig2`.
    pub name: String,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// Duration in µs (0 for instant events).
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// A point-in-time event (a campaign point completing) rather than an
    /// interval.
    pub instant: bool,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        self.begin_at(name, Instant::now());
    }

    /// Opens a span that started at `start` (observed from outside, such
    /// as a child process's launch).
    pub fn begin_at(&mut self, name: &str, start: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            dur_us: 0.0,
            parent: self.open.last().copied(),
            instant: false,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        self.end_at(Instant::now());
    }

    /// Closes the innermost open span as of `end`.
    pub fn end_at(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        let end_us = self.us(end);
        if let Some(i) = self.open.pop() {
            self.spans[i].dur_us = end_us - self.spans[i].start_us;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Records an instant event at `at` under the innermost open span.
    pub fn instant(&mut self, name: &str, at: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us(at),
            dur_us: 0.0,
            parent: self.open.last().copied(),
            instant: true,
        };
        self.spans.push(span);
    }

    /// Self time per span name in ms: each span's duration minus the part
    /// of its interval that child spans cover (overlapping children, such
    /// as two campaign workers, are merged first), summed by name.
    pub fn self_ms(&self) -> Vec<(String, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.instant) {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.start_us + s.dur_us));
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            if s.instant {
                continue;
            }
            let self_us = s.dur_us - covered(kids);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += self_us / 1e3,
                None => by_name.push((s.name.clone(), self_us / 1e3)),
            }
        }
        by_name
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events carry `dur`, every event names its
    /// parent span in `args`.
    pub fn to_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s
                    .parent
                    .map_or(Json::Null, |p| Json::Str(self.spans[p].name.clone()));
                let mut fields = vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    (
                        "ph".to_string(),
                        Json::Str(if s.instant { "i" } else { "X" }.to_string()),
                    ),
                    ("ts".to_string(), Json::Float(s.start_us)),
                    ("pid".to_string(), Json::UInt(1)),
                    ("tid".to_string(), Json::UInt(1)),
                ];
                if s.instant {
                    fields.push(("s".to_string(), Json::Str("t".to_string())));
                } else {
                    fields.push(("dur".to_string(), Json::Float(s.dur_us)));
                }
                fields.push((
                    "args".to_string(),
                    Json::Obj(vec![
                        ("id".to_string(), Json::UInt(i as u64)),
                        ("parent".to_string(), parent),
                        (
                            "parent_id".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                    ]),
                ));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
    }

    /// Writes the trace file atomically.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        maps_obs::write_atomic(path, self.to_json().to_pretty().as_bytes())
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Tracer::new(true);
        let span = |name: &str, start_us: f64, dur_us: f64, parent| Span {
            name: name.to_string(),
            start_us,
            dur_us,
            parent,
            instant: false,
        };
        t.spans = vec![
            span("campaign", 0.0, 10_000.0, None),
            span("point", 1_000.0, 3_000.0, Some(0)),
            span("point", 2_000.0, 3_000.0, Some(0)),
            span("point", 8_000.0, 1_000.0, Some(0)),
        ];
        let self_ms = t.self_ms();
        // Children cover [1, 5) and [8, 9) ms: 5 of the 10 ms.
        assert_eq!(self_ms[0], ("campaign".to_string(), 5.0));
        assert_eq!(self_ms[1], ("point".to_string(), 7.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        t.instant("y", Instant::now());
        assert!(t.spans.is_empty());
        let mut on = Tracer::new(true);
        on.span("outer", || ());
        on.begin("a");
        on.begin("b");
        on.end();
        on.end();
        assert_eq!(on.spans.len(), 3);
        assert_eq!(on.spans[2].parent, Some(1));
        assert!(matches!(on.to_json().get("traceEvents"), Some(Json::Arr(e)) if e.len() == 3));
    }
}
