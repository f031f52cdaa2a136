//! In-memory spans recorded around calls into each layer, with self time
//! per layer and Chrome trace-event export (Perfetto opens the file).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The root span of the operation this span belongs to.
    pub root: u64,
    /// Layer name (`packing.pack`, `sim.simulate`, ...).
    pub name: &'static str,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Small per-thread number for the trace viewer.
    pub tid: u64,
}

impl Span {
    fn end(&self) -> Duration {
        self.start + self.dur
    }
}

/// Handle of an open span, passed to the calls it causes.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    id: u64,
    root: u64,
}

/// Collects spans from any thread; written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: Cell<u64> = const { Cell::new(0) });
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// An empty tracer; span times are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanCtx>,
        f: impl FnOnce(SpanCtx) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let ctx = SpanCtx {
            id,
            root: parent.map_or(id, |p| p.root),
        };
        let start = Instant::now();
        let r = f(ctx);
        let dur = start.elapsed();
        let span = Span {
            id,
            parent: parent.map(|p| p.id),
            root: ctx.root,
            name,
            start: start.duration_since(self.origin),
            dur,
            tid: thread_number(),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        r
    }

    /// Every finished span, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start, s.id));
        v
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// Self time summed per span name: each span's duration minus the
    /// part of its interval its children cover (children running in
    /// parallel are merged, so covered time never exceeds the span).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end()));
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(Duration::ZERO, |iv| covered(iv, s.start, s.end()));
            *out.entry(s.name).or_default() += s.dur.saturating_sub(covered);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"root\": {}}}}}",
                s.name,
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.parent.unwrap_or(0),
                s.root
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut iv: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn overlapping_children_are_merged() {
        let iv = [(ms(1), ms(4)), (ms(2), ms(6)), (ms(8), ms(20))];
        assert_eq!(covered(&iv, ms(0), ms(10)), ms(7));
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("root", None, |root| {
            t.span("child", Some(root), |_| {
                std::thread::sleep(ms(20));
            });
            std::thread::sleep(ms(5));
        });
        let selfs = t.self_times();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.root == spans[0].id));
        assert!(selfs["child"] >= ms(20));
        assert!(selfs["root"] >= ms(5) && selfs["root"] < ms(20));
        assert!(t.chrome_json().contains("\"name\": \"child\""));
    }
}
