//! Spans around every call the benchmark makes into a layer, kept in a
//! preallocated buffer and written as Chrome-trace JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own files only; spans inside the
//! program are a later change (ROADMAP item 4).

use crate::clock::{now_ns, Calibrator, Timed};
use std::fmt::Write as _;

/// Spans the buffer holds before it stops recording (and says so).
pub const SPAN_CAPACITY: usize = 16_384;

const NO_SPAN: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the buffer.
    pub id: u32,
    /// The op span a stage row belongs to; `None` for every other span.
    pub parent: Option<u32>,
    /// What ran.
    pub name: &'static str,
    /// The module it ran in (`ff`, `msm`, …, or `bench` for the harness).
    pub layer: &'static str,
    /// The workload it belongs to.
    pub workload: &'static str,
    /// The timed op it belongs to; −1 for set-up, checks and probes.
    pub op_index: i64,
    /// Start, as [`now_ns`].
    pub start_ns: u64,
    /// End, as [`now_ns`].
    pub end_ns: u64,
    /// A stage row: only the duration was measured, and the start was placed
    /// after the previous sibling for display.
    pub duration_only: bool,
    /// Counts made at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span buffer. A disabled buffer records nothing and costs nothing.
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
    workload: &'static str,
    op_index: i64,
}

impl Spans {
    /// A buffer that records nothing (the untraced run).
    pub fn off() -> Self {
        Self {
            enabled: false,
            spans: Vec::new(),
            dropped: 0,
            workload: "",
            op_index: -1,
        }
    }

    /// A recording buffer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            spans: Vec::with_capacity(SPAN_CAPACITY),
            ..Self::off()
        }
    }

    /// Names the workload and op that following spans belong to.
    pub fn scope(&mut self, workload: &'static str, op_index: i64) {
        self.workload = workload;
        self.op_index = op_index;
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            workload: self.workload,
            op_index: self.op_index,
            start_ns,
            end_ns,
            duration_only: parent.is_some(),
            counts: Vec::new(),
        });
        id
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.push(None, name, layer, start_ns, end_ns)
    }

    /// Attaches a stage row to `parent`: a child of which only the duration is
    /// known, placed after `parent`'s previous duration-only child.
    pub fn stage(&mut self, parent: u32, name: &'static str, layer: &'static str, dur_ns: u64) {
        if parent == NO_SPAN {
            return;
        }
        let start = self
            .spans
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent) && s.duration_only)
            .map_or(self.spans[parent as usize].start_ns, |s| s.end_ns);
        self.push(Some(parent), name, layer, start, start + dur_ns);
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: u32, key: &'static str, value: u64) {
        if id != NO_SPAN {
            self.spans[id as usize].counts.push((key, value));
        }
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span, by id: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// The buffer as Chrome-trace JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per workload.
    pub fn to_chrome_json(&self) -> String {
        let own = self.self_ns();
        let mut workloads: Vec<&str> = Vec::new();
        let mut out = String::with_capacity(self.spans.len() * 200 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match workloads.iter().position(|w| *w == s.workload) {
                Some(p) => p,
                None => {
                    workloads.push(s.workload);
                    workloads.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
                 \"workload\":\"{}\",\"op_index\":{},\"self_us\":{:.3},\"duration_only\":{}",
                s.name,
                s.layer,
                tid + 1,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.workload,
                s.op_index,
                own[s.id as usize] as f64 / 1e3,
                s.duration_only,
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        for (i, w) in workloads.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{w}\"}}}}",
                i + 1
            );
        }
        let _ = write!(out, "\n],\"dropped_spans\":{}}}\n", self.dropped);
        out
    }
}

/// The calibrated clock and the span buffer together: what a workload or a
/// probe times its calls with.
pub struct Meter {
    /// The yardstick-bracketing clock.
    pub cal: Calibrator,
    /// The span buffer.
    pub spans: Spans,
}

impl Meter {
    /// A meter whose yardsticks run on `threads` threads and are mixed with
    /// `chain_share` (see [`crate::clock::calibrate`]).
    pub fn new(threads: usize, chain_share: f64, spans: Spans) -> Self {
        Self {
            cal: Calibrator::new(threads, chain_share),
            spans,
        }
    }

    /// Times one call into `layer` between two yardstick readings and records a
    /// span for the call and one for the reading after it. Returns the span's id
    /// for counts and stage rows.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Timed, u32) {
        let (out, t) = self.cal.time(f);
        let id = self.spans.record(name, layer, t.start_ns, t.end_ns);
        self.spans.record("yardstick", "bench", t.end_ns, now_ns());
        (out, t, id)
    }

    /// Runs one call outside every timed window (an output check) and records
    /// its span. The next timed call needs a fresh yardstick: see
    /// [`Calibrator::refresh`].
    pub fn untimed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now_ns();
        let out = f();
        self.spans.record(name, layer, start, now_ns());
        out
    }
}
