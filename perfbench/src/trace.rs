//! In-memory wall-clock spans recorded by the benchmark around its calls
//! into each layer's public functions.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), a parent span and an operation id shared by every span
//! of one operation. Spans are kept in memory and written out once, when
//! the run ends. A disabled tracer records nothing: `enter` returns a
//! guard that does no work beyond one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name, e.g. `fleet.shard`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<usize>,
}

/// Records spans for one thread of the benchmark. Spans opened on the
/// same tracer nest by lexical scope.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            let mut st = self.tracer.state.borrow_mut();
            st.spans[id].end_ns = end;
            let popped = st.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for operation `op`, nested in the
    /// innermost open span.
    pub fn enter(&self, name: &'static str, op: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now_ns();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: start,
        });
        st.open.push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name, op);
        f()
    }

    /// Appends spans recorded elsewhere (another thread's tracer) under
    /// this tracer's ids. Their times must share this tracer's epoch,
    /// which [`Tracer::child`] guarantees.
    pub fn absorb(&self, other: Tracer) {
        let mut st = self.state.borrow_mut();
        let offset = st.spans.len();
        for mut s in other.state.into_inner().spans {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            st.spans.push(s);
        }
    }

    /// A tracer for another thread that shares this tracer's epoch, so
    /// its spans can be [`Tracer::absorb`]ed afterwards.
    pub fn child(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            state: RefCell::new(State::default()),
        }
    }

    /// Every closed span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Wall cost of recording one span on an enabled tracer, in
/// nanoseconds, measured over a burst of empty spans. Multiplied by a
/// trace's span count it bounds the time tracing added to the run.
pub fn calibrate_span_ns() -> f64 {
    const N: u64 = 200_000;
    let t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        let _g = t.enter("calibrate", i);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() as i64 - covered as i64
        })
        .collect()
}

/// Checks that the trace is well formed: every parent precedes its
/// child, shares its operation id and encloses it in time, and every
/// self time is non-negative. Returns the first violation.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} carries id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
            if parent.op != s.op {
                return Err(format!(
                    "span {i} ({}) leaves its parent's operation",
                    s.name
                ));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    if let Some((i, t)) = self_times_ns(spans)
        .into_iter()
        .enumerate()
        .find(|(_, t)| *t < 0)
    {
        return Err(format!(
            "span {i} ({}) has negative self time {t} ns",
            spans[i].name
        ));
    }
    Ok(())
}

/// Durations in seconds of every span named `name`, in record order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Total and self seconds per span name, for the trace summary.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns() as f64 * 1e-9;
        e.2 += own as f64 * 1e-9;
    }
    out
}

/// Renders the trace as JSON lines, one span per line, with its self
/// time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_validate_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.enter("outer", 1);
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 1, || ());
        }
        t.span("other", 2, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        validate(&spans).unwrap();
        let selfs = self_times_ns(&spans);
        assert!(selfs[0] >= 0 && (selfs[0] as u64) < spans[0].duration_ns());
    }

    #[test]
    fn validate_rejects_a_child_outside_its_parent() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                op: 0,
                name: "a",
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 1,
                parent: Some(0),
                op: 0,
                name: "b",
                start_ns: 15,
                end_ns: 25,
            },
        ];
        assert!(validate(&spans).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", 0, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_child_spans_keep_their_nesting() {
        let t = Tracer::new(true);
        t.span("main", 0, || ());
        let c = t.child();
        {
            let _p = c.enter("p", 3);
            c.span("k", 3, || ());
        }
        t.absorb(c);
        let spans = t.spans();
        assert_eq!(spans[2].parent, Some(1));
        validate(&spans).unwrap();
    }
}
