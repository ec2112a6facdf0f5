//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, start and end (seconds since the run's origin), the
//! span that caused it, and a trace id shared by every span of one job.
//! Spans stay in memory and are written out with the run's results; self
//! time is derived from them.

use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub trace_id: u64,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder of one thread. Spans nest: `enter` opens a child of the
/// innermost open span, `exit` closes it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub trace_id: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            trace_id: self.trace_id,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns
    /// its duration.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
        self.spans[id].secs()
    }

    /// Closes every open span down to and including `id`.
    pub fn close_to(&mut self, id: usize) {
        while let Some(top) = self.open.last().copied() {
            self.exit(top);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Duration of span `id` minus the time its children cover. Children
    /// of one span run one after another on the recording thread, so
    /// their durations add up without overlap.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Moves another thread's spans in (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"trace_id\": {}, \"start\": {}, \"end\": {}, \"parent\": {}}}",
                    json::string(s.name),
                    s.trace_id,
                    json::num(s.start),
                    json::num(s.end),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let inner = t.total("inner");
        assert!(inner >= 0.005);
        assert!((t.self_time(outer) - (t.total("outer") - inner)).abs() < 1e-12);
    }
}
