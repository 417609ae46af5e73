//! The benchmark's own span recorder. Spans are taken around each call the
//! benchmark makes into a layer, kept in memory, and written out as JSON
//! lines when the run ends. A recorder that is off records nothing and
//! reads no clock, so untraced runs measure the calls alone.

use crate::json::Json;
use crate::sys;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

struct Span {
    id: usize,
    parent: Option<usize>,
    /// Spans of one job (one repetition) share a run id.
    run: u32,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    /// Process CPU seconds consumed between start and end.
    cpu_s: f64,
    cpu_start: f64,
}

impl Span {
    fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new run id; returns it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run: self.run,
            name,
            start_s: now,
            end_s: now,
            cpu_s: 0.0,
            cpu_start: sys::cpu_seconds(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_s = self.origin.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds();
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.cpu_s = cpu - span.cpu_start;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// One call into a layer, under a span named `name`. A panic is caught
    /// and returned as an error, so that it fails only the operations of
    /// this call.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Result<T, String> {
        let open = self.begin(name);
        let out = catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("{name} panicked: {msg}")
        });
        self.end(open);
        out
    }

    fn spans(&self, run: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.run == run)
    }

    /// A span's duration minus the part its direct children cover (children
    /// of one caller never overlap).
    fn self_s(&self, span: &Span) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(Span::wall_s)
            .sum();
        span.wall_s() - children
    }

    /// Total self time and CPU seconds of the spans named `name` in `run`.
    pub fn totals(&self, run: u32, name: &str) -> (f64, f64) {
        self.spans(run)
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(w, c), s| (w + self.self_s(s), c + s.cpu_s))
    }

    /// Wall times of the spans named `name` in `run`, in order.
    pub fn walls(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans(run)
            .filter(|s| s.name == name)
            .map(Span::wall_s)
            .collect()
    }

    /// Every span as one JSON object per line, tagged with `label`.
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let obj = Json::obj()
                .field("label", label)
                .field("run", s.run as u64)
                .field("id", s.id as u64)
                .field("parent", s.parent.map_or(Json::Null, |p| (p as u64).into()))
                .field("name", s.name)
                .field("start_s", s.start_s)
                .field("end_s", s.end_s)
                .field("self_s", self.self_s(s))
                .field("cpu_s", s.cpu_s);
            out.push_str(&obj.to_string());
            out.push('\n');
        }
        out
    }
}
