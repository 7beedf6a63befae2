//! The benchmark's own span recorder. Spans are taken around calls into a
//! layer's public functions (and imported from the engine's public
//! `ForceTimers` report), kept in memory, and written out as a Chrome trace
//! when the run ends. Timestamps share `sdfg_profile::process_epoch`, so
//! imported engine spans line up with the benchmark's.

use std::collections::BTreeMap;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share this id.
    pub op: u64,
    /// Lane in the trace viewer (client thread or engine worker).
    pub tid: u32,
}

/// Aggregate of all spans with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

pub fn now_ns() -> u64 {
    sdfg_profile::epoch_ns()
}

impl Recorder {
    /// Records a finished interval and returns its index (for use as a
    /// child's `parent`).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
        tid: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
            tid,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        self.push(name, t0, t1, parent, op, 0);
        (r, (t1 - t0) as f64 / 1e6)
    }

    /// Appends another recorder's spans (e.g. a client thread's), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover. Children may overlap each other
    /// (parallel workers) and may stick out of the parent (clock skew); the
    /// union is clipped to the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if lo < hi {
                    kids[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut iv)| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut end = 0u64;
                for (lo, hi) in iv {
                    let lo = lo.max(end);
                    if hi > lo {
                        covered += hi - lo;
                        end = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<String, Layer> {
        self.layers_since(0)
    }

    /// [`layers`](Self::layers) over the spans recorded from index `from` on.
    pub fn layers_since(&self, from: usize) -> BTreeMap<String, Layer> {
        let mut out: BTreeMap<String, Layer> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()).skip(from) {
            let l = out.entry(s.name.clone()).or_default();
            l.count += 1;
            l.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
            l.self_ms += self_ns as f64 / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`ph:"X"`) event per span, microsecond timestamps. Spans of ops
    /// beyond `max_op` are left out to keep the file small.
    pub fn chrome_trace(&self, max_op: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op > max_op {
                continue;
            }
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                crate::json::quote(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut r = Recorder::default();
        let op = r.push("op", 0, 100, None, 1, 0);
        let run = r.push("run", 10, 90, Some(op), 1, 0);
        r.push("map", 20, 50, Some(run), 1, 0);
        let s = r.self_ns();
        // op: 100 - 80 (run); run: 80 - 30 (map); the grandchild does not
        // count against op a second time.
        assert_eq!(s, vec![20, 50, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let mut r = Recorder::default();
        let run = r.push("run", 100, 200, None, 1, 0);
        // Two workers overlap on [120,150); one child overhangs the end.
        r.push("map", 110, 150, Some(run), 1, 1);
        r.push("map", 120, 160, Some(run), 1, 2);
        r.push("map", 190, 250, Some(run), 1, 1);
        // Entirely outside the parent: ignored.
        r.push("map", 300, 400, Some(run), 1, 2);
        // Covered: [110,160) + [190,200) = 60.
        assert_eq!(r.self_ns()[run], 40);
    }

    #[test]
    fn layers_aggregate_by_name_and_merge_keeps_parents() {
        let mut a = Recorder::default();
        let op = a.push("op", 0, 10_000_000, None, 1, 0);
        a.push("run", 0, 4_000_000, Some(op), 1, 0);
        let mut b = Recorder::default();
        let op2 = b.push("op", 0, 6_000_000, None, 2, 1);
        b.push("run", 1_000_000, 2_000_000, Some(op2), 2, 1);
        a.merge(b);
        assert_eq!(a.len(), 4);
        let l = a.layers();
        assert_eq!(l["op"].count, 2);
        assert!((l["op"].total_ms - 16.0).abs() < 1e-9);
        assert!((l["op"].self_ms - 11.0).abs() < 1e-9);
        assert!((l["run"].self_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_json() {
        let mut r = Recorder::default();
        let op = r.push("a \"quoted\" op", 1_000, 3_000, None, 7, 0);
        r.push("child", 1_500, 2_000, Some(op), 7, 3);
        r.push("late", 5_000, 6_000, None, 99, 0);
        let doc = sdfg_core::serialize::parse_json(&r.chrome_trace(8)).expect("valid JSON");
        let events = doc.arr_field("traceEvents").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].str_field("name").unwrap(), "child");
        assert_eq!(events[0].num_field("dur").unwrap(), 2.0);
    }
}
