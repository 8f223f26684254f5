//! In-memory span recorder for the traced runs.
//!
//! Spans are opened and closed around calls into the program's public
//! functions, never inside the program. Each span records its name,
//! start, end, parent span and — where a symbol is known — the
//! `(cid, seq)` it belongs to. Per-name totals and *self* time (a
//! span's duration minus the time its child spans cover) are
//! aggregated as spans close, so they cover every span even after the
//! stored-span buffer is full. Storage is reserved up front: recording
//! a span never allocates.

use std::io::{self, Write};
use std::time::Instant;

/// Marks a span that carries no symbol key.
const NO_CID: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run (1-based).
    pub id: u64,
    /// Enclosing span's id, 0 for a root span.
    pub parent: u64,
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Connection id of the symbol, when known.
    pub cid: u32,
    /// Sequence number of the symbol, when known.
    pub seq: u64,
}

/// Per-name aggregate over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    parent: u64,
    name: u16,
    start_ns: u64,
    child_ns: u64,
    cid: u32,
    seq: u64,
}

/// Records nested spans against a fixed name table.
#[derive(Debug)]
pub struct Tracer {
    names: &'static [&'static str],
    epoch: Instant,
    stack: Vec<Open>,
    agg: Vec<Agg>,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_id: u64,
}

impl Tracer {
    /// A tracer storing at most `cap` spans, timed from `epoch`.
    #[must_use]
    pub fn new(names: &'static [&'static str], epoch: Instant, cap: usize) -> Self {
        Tracer {
            names,
            epoch,
            stack: Vec::with_capacity(64),
            agg: vec![Agg::default(); names.len()],
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
            next_id: 1,
        }
    }

    /// Nanoseconds since the tracer epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the tracer epoch to `t`.
    #[must_use]
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `names[name]`, nested in the innermost open
    /// span, keyed by `(cid, seq)` when given.
    pub fn begin(&mut self, name: usize, key: Option<(u32, u64)>) {
        self.begin_at(name, key, self.now_ns());
    }

    /// As [`begin`](Tracer::begin) with an explicit start time.
    pub fn begin_at(&mut self, name: usize, key: Option<(u32, u64)>, start_ns: u64) {
        let (cid, seq) = key.unwrap_or((NO_CID, 0));
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id,
            parent,
            name: name as u16,
            start_ns,
            child_ns: 0,
            cid,
            seq,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn end(&mut self) {
        self.end_at(self.now_ns());
    }

    /// As [`end`](Tracer::end) with an explicit end time.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn end_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("end without an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = &mut self.agg[open.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                cid: open.cid,
                seq: open.seq,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: usize, key: Option<(u32, u64)>, f: impl FnOnce() -> T) -> T {
        self.begin(name, key);
        let out = f();
        self.end();
        out
    }

    /// Aggregate for `names[name]`.
    #[must_use]
    pub fn agg(&self, name: usize) -> Agg {
        self.agg[name]
    }

    /// Folds another tracer over the same name table into this one:
    /// aggregates add, stored spans are appended (ids renumbered so
    /// they stay unique) while room remains.
    ///
    /// # Panics
    ///
    /// Panics if the name tables differ or `other` has open spans.
    pub fn absorb(&mut self, other: &Tracer) {
        assert!(std::ptr::eq(self.names, other.names), "name tables differ");
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        for (mine, theirs) in self.agg.iter_mut().zip(&other.agg) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
        let offset = self.next_id - 1;
        let shift = |id: u64| if id == 0 { 0 } else { id + offset };
        for span in &other.spans {
            if self.spans.len() < self.cap {
                self.spans.push(Span {
                    id: shift(span.id),
                    parent: shift(span.parent),
                    ..*span
                });
            } else {
                self.dropped += 1;
            }
        }
        self.dropped += other.dropped;
        self.next_id += other.next_id - 1;
    }

    /// Writes the aggregates and stored spans as a JSON object.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        write!(w, "{{\"aggregates\":{{")?;
        for (i, (name, agg)) in self.names.iter().zip(&self.agg).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                agg.count, agg.total_ns, agg.self_ns
            )?;
        }
        write!(w, "}},\"dropped_spans\":{},\"spans\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                w,
                "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
            if s.cid != NO_CID {
                write!(w, ",\"cid\":{},\"seq\":{}", s.cid, s.seq)?;
            }
            write!(w, "}}")?;
        }
        write!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static NAMES: &[&str] = &["root", "a", "b"];

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(NAMES, Instant::now(), 16);
        t.begin_at(0, Some((3, 9)), 100);
        t.begin_at(1, None, 110);
        t.end_at(140);
        t.begin_at(2, None, 150);
        t.begin_at(1, None, 155);
        t.end_at(165);
        t.end_at(170);
        t.end_at(200);
        assert_eq!(
            t.agg(0),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t.agg(1),
            Agg {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(
            t.agg(2),
            Agg {
                count: 1,
                total_ns: 20,
                self_ns: 10
            }
        );
        let root = t.spans.iter().find(|s| s.name == 0).unwrap();
        assert_eq!((root.parent, root.cid, root.seq), (0, 3, 9));
        let b = t.spans.iter().find(|s| s.name == 2).unwrap();
        assert_eq!(b.parent, root.id);
    }

    #[test]
    fn full_buffer_still_aggregates() {
        let mut t = Tracer::new(NAMES, Instant::now(), 1);
        for i in 0..3 {
            t.begin_at(1, None, i * 10);
            t.end_at(i * 10 + 5);
        }
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.agg(1).total_ns, 15);
    }

    #[test]
    fn absorb_renumbers_and_adds() {
        let epoch = Instant::now();
        let mut a = Tracer::new(NAMES, epoch, 8);
        a.begin_at(0, None, 0);
        a.end_at(10);
        let mut b = Tracer::new(NAMES, epoch, 8);
        b.begin_at(0, None, 0);
        b.begin_at(1, None, 1);
        b.end_at(2);
        b.end_at(10);
        a.absorb(&b);
        assert_eq!(a.agg(0).count, 2);
        let ids: Vec<u64> = a.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(a.spans[1].parent, 2);
        let mut json = Vec::new();
        a.write_json(&mut json).unwrap();
        assert!(String::from_utf8(json)
            .unwrap()
            .starts_with("{\"aggregates\""));
    }
}
