//! Harness-side spans: one record per call into a public layer function,
//! taken from outside the program under test. Kept in memory while the
//! run measures and written out once at the end of a traced run.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Span recorder of one run (single-threaded: the serve leg's client
/// threads keep their own latency samples).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Off in the untraced pass: `time` still times, nothing is kept.
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Run `f` as span `name`, nested under whatever span is open, and
    /// return its result with its wall time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, Duration) {
        let start = self.origin.elapsed();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start,
                end: start,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.origin.elapsed();
        if let Some(id) = id {
            self.spans[id].end = end;
            self.open.pop();
        }
        (out, end - start)
    }

    /// Wall times of every recorded span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Write `{"name","id","parent","start_us","end_us"}` lines.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_recording_switch() {
        let mut s = Spans::new();
        let (v, _) = s.time("dropped", |_| 1);
        assert_eq!(v, 1);
        assert!(s.durations_ms("dropped").is_empty(), "not recording yet");
        s.set_recording(true);
        s.time("outer", |s| {
            s.time("inner", |_| ());
            s.time("inner", |_| ());
        });
        assert_eq!(s.durations_ms("outer").len(), 1);
        assert_eq!(s.durations_ms("inner").len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        assert!(s.spans[0].end >= s.spans[2].end);
    }
}
