//! The traced run's span log: wall-clock spans recorded by the benchmark
//! around its own calls into each layer, kept in memory and written out
//! once the run ends.
//!
//! A span's `parent` is the span whose work it accounts for. Usually the
//! child runs inside the parent's interval, but the serve workloads time
//! the daemon's `handle_line` as one opaque span and then replay the same
//! batch layer by layer; the replay spans name the `handle_line` span as
//! their parent although they run after it. Self time is therefore a
//! span's duration minus the *durations* of its children, not minus the
//! part of its interval they overlap — identical for nested spans, and
//! for the replay it is the `handle_line` time the four replayed layers do
//! not explain.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// Parent span index, if any.
    pub parent: Option<usize>,
    /// The batch (serve) or solve (sparse) the span belongs to.
    pub batch: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log. Disabled logs record nothing, so untraced runs
/// pay one branch per call site.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Closes the span `index` returned by [`SpanLog::open`].
    pub fn close(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, batch);
        let value = f();
        self.close(index);
        value
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// Self time (ms) of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes one JSON object per span (`name`, `start_ns`, `end_ns`,
    /// `id`, `parent`, `batch`) to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns a message on any I/O failure.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"id":{id},"parent":{parent},"batch":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.batch
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_durations() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            Span {
                name: "served.handle_line",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                batch: 0,
            },
            Span {
                name: "serve.solve",
                start_ns: 10_000_000,
                end_ns: 16_000_000,
                parent: Some(0),
                batch: 0,
            },
            Span {
                name: "cli.parse",
                start_ns: 16_000_000,
                end_ns: 17_000_000,
                parent: Some(0),
                batch: 0,
            },
        ];
        assert_eq!(log.self_times(), vec![3.0, 6.0, 1.0]);
        assert_eq!(log.self_times_of("served.handle_line"), vec![3.0]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let v = log.time("cli.parse", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }
}
