//! In-memory spans around calls into each layer's public functions.
//!
//! A span records its layer, start, end and parent. Spans stay in memory
//! while the traced run executes and are written out when it ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's spans. Tracers of concurrent threads share an origin and
/// are combined with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`; spans opened inside are its
    /// children. Returns `f`'s value and the span's index.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        (out, idx)
    }

    /// Record a span whose interval was measured elsewhere.
    #[cfg(test)]
    pub fn record(&mut self, layer: &'static str, start: u64, end: u64, parent: Option<usize>) {
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Append another thread's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span of `layer`.
    pub fn durations(&self, layer: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur)
            .collect()
    }

    /// Self time (ns) of every span, index-aligned with [`spans`].
    ///
    /// [`spans`]: Tracer::spans
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.dur().saturating_sub(covered(s.start, s.end, &mut kids)))
            .collect()
    }

    /// Total self time (ns) per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer).or_insert(0) += t;
        }
        out
    }

    /// Write every span as `index layer start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tlayer\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.layer, s.start, s.end)?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` clipped to `[start, end]`.
fn covered(start: u64, end: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        for &(layer, start, end, parent) in spans {
            t.record(layer, start, end, parent);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // stmt [0,100] ⊃ apply [10,90] ⊃ exec [20,60] ⊃ check [50,60];
        // plus flush [90,100] directly under stmt.
        let t = tracer(&[
            ("stmt", 0, 100, None),
            ("apply", 10, 90, Some(0)),
            ("exec", 20, 60, Some(1)),
            ("check", 50, 60, Some(2)),
            ("flush", 90, 100, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![10, 40, 30, 10, 10]);
        let by = t.self_time_by_layer();
        assert_eq!(
            by.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(by["apply"], 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer(&[
            ("root", 0, 100, None),
            ("a", 10, 50, Some(0)),
            ("b", 40, 70, Some(0)),
            ("c", 90, 130, Some(0)),
        ]);
        assert_eq!(t.self_times()[0], 100 - 60 - 10);
    }

    #[test]
    fn closures_nest_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let ((), outer) = a.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(a.get(1).parent, Some(outer));
        assert!(a.get(0).dur() >= a.get(1).dur());
        let mut b = Tracer::new(origin);
        b.span("solo", |t| t.span("child", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.durations("inner").len(), 1);
    }
}
