//! In-memory spans: name, start, end, parent and request id, recorded from
//! the benchmark's own code around calls into each layer, and written out
//! as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A single-threaded span store. Spans nest: a span opened while another
/// is open is its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Spans recorded so far; a mark for [`Spans::totals`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Per-name self nanoseconds over spans `from..to`.
    pub fn totals(&self, own: &[u64], from: usize, to: usize) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, &ns) in self.spans[from..to].iter().zip(&own[from..to]) {
            *totals.entry(span.name).or_insert(0) += ns;
        }
        totals
    }

    /// Self time of spans `from..to` that have a parent (that is, every
    /// span but the roots).
    pub fn child_self_ns(&self, own: &[u64], from: usize, to: usize) -> u64 {
        (from..to)
            .filter(|&i| self.spans[i].parent.is_some())
            .map(|i| own[i])
            .sum()
    }

    /// Chrome trace JSON: one complete event per span, one lane per request.
    pub fn chrome_trace(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request,
                own[i] as f64 / 1e3
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
