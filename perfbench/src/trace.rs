//! The traced run's span recorder and its report step.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions. Each client thread owns a
//! [`Recorder`]: spans stay in its memory (no locks, no I/O on the hot
//! path) and are merged and written out when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use crate::stats::{json_num, json_str, median};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within a run (the recorder's stream in the high bits).
    pub id: u64,
    /// Enclosing span, or 0 for a root.
    pub parent: u64,
    /// The request (statement) this span serves; shared by its tree.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A still-open span (index into the recorder's buffer).
#[must_use]
pub struct Open(usize);

/// An in-memory span buffer for one thread.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span ids live in `stream` (one per thread).
    pub fn new(epoch: Instant, stream: u64) -> Self {
        Recorder {
            epoch,
            next: (stream << 40) | 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; its id is [`Recorder::id`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
    ) -> Open {
        let id = self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    /// The id of an open span (the parent of spans opened inside it).
    pub fn id(&self, open: &Open) -> u64 {
        self.spans[open.0].id
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[open.0];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Run `f` inside a leaf span; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let open = self.begin(name, parent, req);
        let r = f();
        let ns = self.end(open);
        (r, ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What the report step derives for one span name.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_total_ns: u64,
    /// Per-span self time, nanoseconds.
    pub self_ns: Vec<f64>,
    /// Per-span duration, nanoseconds.
    pub dur_ns: Vec<f64>,
}

impl LayerTime {
    pub fn median_self_us(&self) -> f64 {
        median(&self.self_ns) / 1_000.0
    }

    pub fn median_dur_us(&self) -> f64 {
        median(&self.dur_ns) / 1_000.0
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_s, mut cur_e) = (0, 0, 0);
    let mut open = false;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        if open && s <= cur_e {
            cur_e = cur_e.max(e);
        } else {
            if open {
                total += cur_e - cur_s;
            }
            (cur_s, cur_e, open) = (s, e, true);
        }
    }
    if open {
        total += cur_e - cur_s;
    }
    total
}

/// Per-name totals and self times of a run's spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let cover = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let own = s.dur_ns() - cover;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_total_ns += own;
        e.self_ns.push(own as f64);
        e.dur_ns.push(s.dur_ns() as f64);
    }
    out
}

/// Write the span artifact: the per-name summary and the first
/// `max_spans` spans, as one JSON object.
pub fn write_artifact(
    path: &Path,
    workload: &str,
    seed: u64,
    layers: &BTreeMap<&'static str, LayerTime>,
    spans: &[Span],
    max_spans: usize,
) -> std::io::Result<()> {
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"spans_recorded\": {}, \"layers\": {{",
        json_str(workload),
        spans.len()
    );
    for (i, (name, t)) in layers.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"count\": {}, \"total_us\": {}, \"self_us\": {}, \
             \"median_us\": {}, \"median_self_us\": {}}}",
            json_str(name),
            t.count,
            json_num(t.total_ns as f64 / 1e3),
            json_num(t.self_total_ns as f64 / 1e3),
            json_num(t.median_dur_us()),
            json_num(t.median_self_us()),
        );
    }
    s.push_str("}, \"spans\": [\n");
    for (i, sp) in spans.iter().take(max_spans).enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "[{}, {}, {}, {}, {}, {}]",
            sp.id,
            sp.parent,
            sp.req,
            json_str(sp.name),
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Overlapping children cover [10, 40) and [50, 60).
            span(2, 1, "a", 10, 30),
            span(3, 1, "a", 20, 40),
            span(4, 1, "b", 50, 60),
            // A grandchild does not count against the root.
            span(5, 4, "c", 52, 58),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_total_ns, 60);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_total_ns, 40);
        assert_eq!(t["b"].self_total_ns, 4);
        assert_eq!(t["c"].self_total_ns, 6);
    }

    #[test]
    fn recorder_nests_and_numbers_spans() {
        let mut r = Recorder::new(Instant::now(), 3);
        let root = r.begin("root", 0, 9);
        let rid = r.id(&root);
        let ((), _) = r.time("leaf", rid, 9, || ());
        r.end(root);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].id >> 40, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
