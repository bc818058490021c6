//! In-memory span recorder for the traced run, with a hand-written Chrome
//! trace-event export (opens in Perfetto and chrome://tracing).
//!
//! Spans wrap the benchmark's own calls into the library's public API, so
//! they measure each layer from outside: a span's self time is its
//! duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers the benchmark calls into, one trace track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself: rounds, referees, correctness gates.
    Bench,
    /// `alpha_pim_sparse`: generation, transposition, mutation batches.
    Sparse,
    /// `PreparedSpmv` / `PreparedSpmspv`: prepare and launch.
    Kernel,
    /// `AlphaPim` application calls.
    Apps,
    /// `ServeEngine` batches.
    Serve,
    /// `ServiceEngine` runs.
    Service,
    /// Checkpoint resume.
    Recover,
}

impl Layer {
    /// Every layer, in track order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Sparse,
        Layer::Kernel,
        Layer::Apps,
        Layer::Serve,
        Layer::Service,
        Layer::Recover,
    ];

    /// The layer's metric prefix and track name.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sparse => "sparse",
            Layer::Kernel => "kernel",
            Layer::Apps => "apps",
            Layer::Serve => "serve",
            Layer::Service => "service",
            Layer::Recover => "recover",
        }
    }

    fn track(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0) + 1
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (trace track) of the call.
    pub layer: Layer,
    /// Name of the public call.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the call served (a round, a query batch, an app call).
    pub op: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps nothing (the untraced, measured run).
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps every span in memory.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name` in `layer`.
    pub fn durations_ms(&self, layer: Layer, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// `(spans, busy seconds, self seconds)` of one layer. Busy time counts
    /// each outermost span of the layer once; self time subtracts every
    /// child span's duration from its parent's.
    pub fn layer_totals(&self, layer: Layer) -> (u64, f64, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut count, mut busy, mut own) = (0u64, 0u64, 0u64);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer)
        {
            let dur = s.end_ns - s.start_ns;
            count += 1;
            own += dur.saturating_sub(child_ns[i]);
            if s.parent.is_none_or(|p| self.spans[p].layer != layer) {
                busy += dur;
            }
        }
        (count, busy as f64 / 1e9, own as f64 / 1e9)
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph": "X"`) event per span on its layer's track, with the span's
    /// index, parent and op id in `args`, and `metadata` copied into
    /// `otherData`.
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"traceEvents\":[");
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                layer.track(),
                layer.label()
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                escape(s.name),
                s.layer.label(),
                s.layer.track(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut tr = Tracer::on();
        tr.span(Layer::Bench, "round", 0, |tr| {
            tr.span(Layer::Apps, "bfs", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let (count, busy, own) = tr.layer_totals(Layer::Bench);
        assert_eq!(count, 1);
        assert!(own < busy, "the child's time is not the parent's own time");
        let json = tr.chrome_json(&[("seed", "7".into())]);
        assert!(json.contains("\"parent\":0") && json.contains("\"name\":\"bfs\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span(Layer::Apps, "bfs", 0, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }
}
