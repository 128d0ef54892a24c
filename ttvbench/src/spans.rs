//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span that encloses it. Spans
//! stay in memory while the benchmark runs and are written out once, at
//! exit. A layer's self time is its spans' durations minus the parts of
//! them that child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. [`Spans::off`] records nothing, so the untimed and
/// timed paths can share code.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn on() -> Spans {
        Spans {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self nanoseconds of every span, by index.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self seconds of every span named `name`, summed.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// For each span named `root`: its duration and the summed self time
    /// of the spans nested inside it, in seconds.
    #[cfg(test)]
    pub fn nested_self_s(&self, root: &str) -> Vec<(f64, f64)> {
        let own = self.self_ns();
        let mut inside = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let mut up = s.parent;
            while let Some(j) = up {
                if self.spans[j].name == root {
                    inside[j] += own[i];
                    break;
                }
                up = self.spans[j].parent;
            }
        }
        self.spans
            .iter()
            .zip(inside)
            .filter(|(s, _)| s.name == root)
            .map(|(s, ns)| (s.dur_ns() as f64 * 1e-9, ns as f64 * 1e-9))
            .collect()
    }

    /// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent` index or `null`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
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
        let mut s = Spans::on();
        s.enter("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer = s.exit();
        let inner = s.self_s("inner");
        assert!(inner >= 0.005);
        assert!((s.self_s("outer") + inner - outer).abs() < 1e-9);
        assert_eq!(s.nested_self_s("outer"), vec![(outer, inner)]);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        s.time("x", || ());
        assert_eq!(s.self_s("x"), 0.0);
    }
}
