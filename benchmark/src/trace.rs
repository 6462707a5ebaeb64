//! Spans and counters recorded by the harness around its calls into the
//! engine. Everything stays in memory until the run ends; `write_jsonl` dumps
//! it. The harness is single-threaded where it records, so the open-span
//! stack gives each span its parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Name of the span that wraps one whole operation.
pub const OP_SPAN: &str = "op";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Host-speed factor of each operation (see `crate::calib`); 1 if unset.
    factors: BTreeMap<u64, f64>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            factors: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// The operation number stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record the host-speed factor that held during operation `op`. Spans
    /// keep raw nanoseconds; the per-op millisecond views are scaled by it.
    pub fn scale_op(&mut self, op: u64, factor: f64) {
        if self.enabled {
            self.factors.insert(op, factor);
        }
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close innermost-first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Set a counter (last write wins: counters here are per-op quantities
    /// that repeat exactly, or run totals written once).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.insert(name, value);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Per operation, the summed duration of the spans called `name`, in
    /// milliseconds at the nominal host speed (an op that never opened one
    /// contributes nothing).
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.duration_ns();
        }
        per_op
            .iter()
            .map(|(op, ns)| *ns as f64 / 1e6 * self.factors.get(op).copied().unwrap_or(1.0))
            .collect()
    }

    /// Median over operations of [`Self::per_op_ms`]; 0 when no such span.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.per_op_ms(name))
    }

    /// Write every span, then every counter, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj([
                ("id", Json::from(span.id)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(span.name)),
                ("workload", Json::from(workload)),
                ("op", Json::from(span.op)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        for (op, factor) in &self.factors {
            let line = Json::obj([
                ("op", Json::from(*op)),
                ("workload", Json::from(workload)),
                ("speed_factor", Json::from(*factor)),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        for (name, value) in &self.counters {
            let line = Json::obj([
                ("counter", Json::from(*name)),
                ("workload", Json::from(workload)),
                ("value", Json::from(*value)),
            ]);
            writeln!(out, "{}", line.line())?;
        }
        out.flush()
    }
}

/// Total and self time per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by direct children.
    pub self_ns: u64,
}

/// A layer's self time is its span minus its children: aggregate that per name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(child_ns[span.id]);
    }
    out
}

/// Share of the operations' wall time no child span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    match self_times(spans).get(OP_SPAN) {
        Some(op) if op.total_ns > 0 => op.self_ns as f64 / op.total_ns as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            op,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span(0, None, OP_SPAN, 0, 0, 100),
            span(1, Some(0), "a", 0, 10, 60),
            span(2, Some(1), "b", 0, 20, 50),
            span(3, Some(0), "a", 0, 60, 90),
        ];
        let times = self_times(&spans);
        assert_eq!(
            times[OP_SPAN],
            NameTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        // `a` ran twice (50 + 30); only the first has a child (30).
        assert_eq!(
            times["a"],
            NameTime {
                count: 2,
                total_ns: 80,
                self_ns: 50
            }
        );
        assert_eq!(times["b"].self_ns, 30);
        assert!((unattributed_share(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_by_open_stack_and_groups_by_op() {
        let mut tr = Tracer::new(true);
        for op in 0..3u64 {
            tr.set_op(op);
            let root = tr.begin(OP_SPAN);
            tr.span("stage", || std::hint::black_box(op));
            tr.span("stage", || std::hint::black_box(op));
            tr.end(root);
        }
        assert_eq!(tr.spans().len(), 9);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(0));
        assert_eq!(tr.spans()[3].parent, None);
        assert_eq!(tr.per_op_ms("stage").len(), 3);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin(OP_SPAN);
        tr.count("x", 1.0);
        tr.end(open);
        assert!(tr.spans().is_empty());
        assert!(tr.counters().is_empty());
        assert_eq!(tr.median_ms(OP_SPAN), 0.0);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_span_fields() {
        let mut tr = Tracer::new(true);
        tr.set_op(4);
        let root = tr.begin(OP_SPAN);
        tr.span("child", || ());
        tr.end(root);
        tr.count("rows", 12.0);
        let dir = std::env::temp_dir().join(format!("wolbench-trace-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        tr.write_jsonl(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("name").and_then(Json::as_str), Some("child"));
        assert_eq!(lines[1].get("op").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            lines[1].get("workload").and_then(Json::as_str),
            Some("unit")
        );
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[2].get("counter").and_then(Json::as_str), Some("rows"));
    }
}
