//! The benchmark's own spans, recorded around calls into each layer's
//! public entry point and kept in memory until the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`nat.call`, `wire.encode_request`, ...).
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch; `None` while open.
    pub end_ns: Option<u64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The job the span worked on; every span of one job shares it.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// An append-only span store.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
    }

    /// Runs `f` inside a span and returns its result and the span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// A recorded span.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of its
    /// interval that its direct children cover (overlapping children
    /// count once, children are clipped to the parent's interval).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let (Some(p), Some(end)) = (c.parent, c.end_ns) {
                children[p].push((c.start_ns, end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                let Some(end) = span.end_ns else { return 0 };
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(reach), e.min(end));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Writes every span as CSV: `id,parent,request,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let end = s.end_ns.map_or(String::new(), |e| e.to_string());
            writeln!(
                out,
                "{id},{parent},{},{},{},{end}",
                s.request, s.name, s.start_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns: Some(end_ns),
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let log = SpanLog {
            spans: vec![
                closed("root", 100, 200, None),
                closed("a", 110, 130, Some(0)),
                // Overlaps `a` by 5 ns: covered once.
                closed("b", 125, 150, Some(0)),
                // Grandchild: covered by `b`, not by the root's direct children.
                closed("b.inner", 126, 140, Some(2)),
                // Runs past the root's end: clipped to the root's interval.
                closed("c", 190, 230, Some(0)),
            ],
            ..SpanLog::default()
        };
        // Root: 100 ns − (110..150 = 40) − (190..200 = 10) = 50.
        assert_eq!(log.self_times_ns(), vec![50, 20, 25 - 14, 14, 40]);
    }

    #[test]
    fn nested_timing_is_monotone() {
        let mut log = SpanLog::default();
        let root = log.open("root", None, 7);
        let ((), child) = log.time("child", Some(root), 7, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        log.close(root);
        let (r, c) = (log.get(root), log.get(child));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(log.self_times_ns()[root] + c.duration_ns(), r.duration_ns());
    }
}
