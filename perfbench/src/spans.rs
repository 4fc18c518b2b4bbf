//! In-memory span recorder for the traced run.
//!
//! Spans are kept in a `Vec` while the benchmark runs and written once at
//! the end as Chrome trace-event JSON (complete `"ph": "X"` events), which
//! ui.perfetto.dev and chrome://tracing open directly. A disabled recorder
//! only runs the closure, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// The layer the span is charged to (`llc`, `engine`, `ckpt`, ...).
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    /// Microseconds spent in directly nested spans.
    child_us: f64,
}

/// Records nested spans on the benchmark's own thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    closed: Vec<Span>,
    /// Child time accumulated by each currently open span.
    open_child_us: Vec<f64>,
}

impl Spans {
    /// A recorder; `enabled == false` makes [`Spans::span`] a plain call.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            closed: Vec::new(),
            open_child_us: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, charged to `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        self.open_child_us.push(0.0);
        let out = f(self);
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let child_us = self.open_child_us.pop().unwrap_or(0.0);
        if let Some(parent) = self.open_child_us.last_mut() {
            *parent += dur_us;
        }
        self.closed.push(Span {
            name: name.to_string(),
            layer,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us,
            child_us,
        });
        out
    }

    /// Seconds of self time (span time minus nested spans) per layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for s in &self.closed {
            *by_layer.entry(s.layer).or_insert(0.0) += (s.dur_us - s.child_us).max(0.0) / 1e6;
        }
        by_layer
    }

    /// The spans as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"perfbench\"}}}}"
        );
        for s in &self.closed {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"self_us\":{:.3}}}}}",
                escape(&s.name),
                s.layer,
                s.start_us,
                s.dur_us,
                (s.dur_us - s.child_us).max(0.0)
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write [`Spans::to_chrome_json`] to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.span("engine", "outer", |s| {
            s.span("llc", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = spans.self_seconds();
        assert!(own["llc"] >= 0.019, "{own:?}");
        assert!(own["engine"] < own["llc"], "{own:?}");
        let json = spans.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("llc", "x", |_| 7), 7);
        assert!(spans.self_seconds().is_empty());
    }
}
