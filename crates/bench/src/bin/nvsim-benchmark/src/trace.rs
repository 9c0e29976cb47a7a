//! Host-time spans, recorded only in benchmark code around calls into
//! the program (the program itself is never instrumented).
//!
//! A span has a name, an id, the id of the span that caused it, and a
//! start and end on the host clock. Every span is aggregated per name
//! (count, total time, self time = total minus the time its child spans
//! cover); full span records are kept for one root span in
//! [`SAMPLE_EVERY`] per root name, together with all of its descendants,
//! plus every explicitly recorded [`phase`]. Nothing is written until
//! [`Tracer::write_jsonl`] runs at the end of a traced run.
//!
//! The recorder lives in a thread-local: traced runs drive the program on
//! one thread (the serve replay runs its server with one worker, which
//! spawns no threads).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One root span in this many is stored in full.
pub const SAMPLE_EVERY: u64 = 1024;

/// Per-name totals, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    child_ns: f64,
    stored: bool,
}

/// The in-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    root_seq: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
    next_id: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (replacing any recorder in place).
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            root_seq: BTreeMap::new(),
            spans: Vec::new(),
            next_id: 1,
        })
    });
}

/// Stops recording and hands back what was recorded.
pub fn finish() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Closes the span on drop. Inert when no recorder is installed.
#[must_use = "the span ends when the guard drops"]
#[derive(Debug)]
pub struct Guard {
    active: bool,
}

/// Opens a span named `name` as a child of the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    let active = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else {
            return false;
        };
        let (parent, stored) = match tr.stack.last() {
            Some(p) => (Some(p.id), p.stored),
            None => {
                let seq = tr.root_seq.entry(name).or_insert(0);
                let stored = *seq % SAMPLE_EVERY == 0;
                *seq += 1;
                (None, stored)
            }
        };
        let id = tr.next_id;
        tr.next_id += 1;
        tr.stack.push(Open {
            name,
            id,
            parent,
            start: Instant::now(),
            child_ns: 0.0,
            stored,
        });
        true
    });
    Guard { active }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(tr) = t.as_mut() else { return };
            let Some(open) = tr.stack.pop() else { return };
            let dur = end.duration_since(open.start).as_secs_f64() * 1e9;
            let agg = tr.aggs.entry(open.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur - open.child_ns;
            if let Some(parent) = tr.stack.last_mut() {
                parent.child_ns += dur;
            }
            if open.stored {
                let span = tr.span(open.name, open.id, open.parent, open.start, end);
                tr.spans.push(span);
            }
        });
    }
}

/// Records a finished phase (a whole replay pass, one configuration):
/// aggregated like any span and always stored in full.
pub fn phase(name: &'static str, start: Instant, end: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else { return };
        let dur = end.duration_since(start).as_secs_f64() * 1e9;
        let agg = tr.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur;
        let id = tr.next_id;
        tr.next_id += 1;
        let span = tr.span(name, id, None, start, end);
        tr.spans.push(span);
    });
}

impl Tracer {
    fn span(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }

    /// Totals of every span named `name` (zero if none ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the stored spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str("{\"name\":");
            crate::json::write_str(&mut out, s.name);
            let _ = write!(out, ",\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_are_sampled() {
        install();
        for _ in 0..(SAMPLE_EVERY + 1) {
            let _root = enter("root");
            let _child = enter("child");
        }
        let t = finish().unwrap();
        let (root, child) = (t.agg("root"), t.agg("child"));
        assert_eq!(root.count, SAMPLE_EVERY + 1);
        assert_eq!(child.count, SAMPLE_EVERY + 1);
        assert!(root.self_ns <= root.total_ns - child.total_ns + 1e-6);
        // Roots 0 and SAMPLE_EVERY are stored, each with its child.
        assert_eq!(t.spans().len(), 4);
        let stored_child = t.spans().iter().find(|s| s.name == "child").unwrap();
        let stored_root = t.spans().iter().find(|s| s.name == "root").unwrap();
        assert_eq!(stored_child.parent, Some(stored_root.id));
        assert!(stored_root.start_ns <= stored_child.start_ns);
        assert!(stored_child.end_ns <= stored_root.end_ns);
    }

    #[test]
    fn spans_are_inert_without_a_recorder() {
        let _ = finish();
        let g = enter("x");
        assert!(!g.active);
        drop(g);
        assert!(finish().is_none());
    }
}
