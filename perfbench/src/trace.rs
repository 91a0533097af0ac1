//! The benchmark's own tracer and the per-layer tables built from it.
//!
//! Spans are recorded around calls into each layer: name, start, end,
//! parent, and a request id shared by the spans of one request. They
//! stay in memory and are written out when the run ends. A layer's
//! self time is its span's duration minus its direct children's; a
//! [`LayerTable`] adds an explicit `unattributed` row so its rows sum
//! to the wall they were measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use amjs_obs::json::ObjWriter;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a call that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, parents by index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = ObjWriter::new();
            o.u64("id", id as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("request", s.request);
            match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// One row of a layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-name rows over recorded spans: count, total duration, and self
/// time (duration minus the durations of direct children).
pub fn span_rows(spans: &[Span]) -> Vec<Row> {
    let mut child_secs = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_secs) {
        let row = rows.entry(s.name).or_insert_with(|| Row {
            name: s.name.to_string(),
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += s.secs();
        row.self_s += s.secs() - children;
    }
    rows.into_values().collect()
}

/// Self times of profiler paths (`outer/inner` aggregates with count
/// and total seconds): each path's total minus its direct children's.
pub fn path_rows(paths: &[(String, u64, f64)]) -> Vec<Row> {
    paths
        .iter()
        .map(|(path, count, total)| {
            let children: f64 = paths
                .iter()
                .filter(|(p, _, _)| {
                    p.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|leaf| !leaf.contains('/'))
                })
                .map(|(_, _, t)| t)
                .sum();
            Row {
                name: path.clone(),
                count: *count,
                total_s: *total,
                self_s: total - children,
            }
        })
        .collect()
}

/// Rows whose self times, plus `unattributed`, sum to `wall_s`.
#[derive(Clone, Debug)]
pub struct LayerTable {
    pub title: String,
    pub wall_s: f64,
    pub rows: Vec<Row>,
}

impl LayerTable {
    pub fn new(title: impl Into<String>, wall_s: f64) -> LayerTable {
        LayerTable {
            title: title.into(),
            wall_s,
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// A row measured as one interval (its own time is all self time).
    pub fn push_interval(&mut self, name: &str, count: u64, secs: f64) {
        self.push(Row {
            name: name.to_string(),
            count,
            total_s: secs,
            self_s: secs,
        });
    }

    /// The wall the rows do not account for.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.rows.iter().map(|r| r.self_s).sum::<f64>()
    }

    pub fn render(&self) -> String {
        let mut out = format!("# {} (wall {:.6} s)\n", self.title, self.wall_s);
        let _ = writeln!(
            out,
            "{:<36} {:>9} {:>12} {:>12} {:>7}",
            "layer", "count", "total_s", "self_s", "share"
        );
        let share = |s: f64| 100.0 * s / self.wall_s.max(f64::MIN_POSITIVE);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<36} {:>9} {:>12.6} {:>12.6} {:>6.1}%",
                r.name,
                r.count,
                r.total_s,
                r.self_s,
                share(r.self_s)
            );
        }
        let un = self.unattributed_s();
        let _ = writeln!(
            out,
            "{:<36} {:>9} {:>12.6} {:>12.6} {:>6.1}%",
            "unattributed",
            "-",
            un,
            un,
            share(un)
        );
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut o = ObjWriter::new();
                o.str("layer", &r.name)
                    .u64("count", r.count)
                    .f64("total_s", r.total_s)
                    .f64("self_s", r.self_s);
                o.finish()
            })
            .collect();
        let mut o = ObjWriter::new();
        o.str("table", &self.title)
            .f64("wall_s", self.wall_s)
            .raw("rows", &format!("[{}]", rows.join(",")))
            .f64("unattributed_s", self.unattributed_s());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, two children 10..40 and 50..70, a grandchild 15..25.
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 70, Some(0)),
            span("grand", 15, 25, Some(1)),
        ];
        let rows = span_rows(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        let ns = 1e-9;
        assert_eq!(get("root").count, 1);
        assert!((get("root").self_s - 50.0 * ns).abs() < 1e-15);
        assert_eq!(get("child").count, 2);
        assert!((get("child").total_s - 50.0 * ns).abs() < 1e-15);
        assert!((get("child").self_s - 40.0 * ns).abs() < 1e-15);
        assert!((get("grand").self_s - 10.0 * ns).abs() < 1e-15);
        // Self times of a tree sum to its root's duration.
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - 100.0 * ns).abs() < 1e-15);
    }

    #[test]
    fn path_rows_subtract_direct_children() {
        let paths = vec![
            ("fair_start".to_string(), 3, 2.0),
            ("schedule_pass".to_string(), 5, 10.0),
            ("schedule_pass/window_search".to_string(), 5, 6.0),
            ("schedule_pass/window_search/inner".to_string(), 5, 1.0),
            ("schedule_pass/score_sort".to_string(), 5, 1.5),
            ("schedule_pass_other".to_string(), 1, 0.5),
        ];
        let rows = path_rows(&paths);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().self_s;
        assert_eq!(get("fair_start"), 2.0);
        assert_eq!(get("schedule_pass"), 2.5); // 10 − 6 − 1.5, not the grandchild
        assert_eq!(get("schedule_pass/window_search"), 5.0);
        assert_eq!(get("schedule_pass_other"), 0.5); // a prefix is not a parent
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert_eq!(sum, 2.0 + 10.0 + 0.5); // the top-level totals
    }

    #[test]
    fn rows_plus_unattributed_sum_to_wall() {
        let mut t = LayerTable::new("t", 10.0);
        t.push_interval("a", 1, 3.0);
        t.push(Row {
            name: "b".into(),
            count: 2,
            total_s: 5.0,
            self_s: 4.5,
        });
        assert_eq!(t.unattributed_s(), 2.5);
        let sum: f64 = t.rows.iter().map(|r| r.self_s).sum::<f64>() + t.unattributed_s();
        assert_eq!(sum, t.wall_s);
        assert!(t.render().contains("unattributed"));
        let json = amjs_obs::json::parse(&t.to_json()).unwrap();
        assert_eq!(json.get("unattributed_s").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let mut tr = Tracer::new();
        let root = tr.open("root", None, 1);
        let v = tr.time("leaf", Some(root), 1, || 41 + 1);
        tr.close(root);
        assert_eq!(v, 42);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(root));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }
}
