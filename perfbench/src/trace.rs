//! Spans and call aggregates recorded around calls into each crate.
//!
//! The benchmark times calls from its own loops; nothing inside the
//! program is instrumented. Loops are generic over [`Probe`]: the
//! untraced instantiation ([`Off`]) reads no clock, so end-to-end runs
//! pay nothing for it.
//!
//! Every call site is aggregated into a count, a total and a log2
//! histogram. Coarse calls (`clock`, the gap `clock_batch`, `drain`,
//! `submit`, `poll`) are also kept as spans in memory, each pointing at
//! the pass span that caused it; per-request calls (`try_issue`,
//! `send`, `recv`, `Packet::request`, a burst's one-cycle
//! `clock_batch`) are not. Everything is written out when the
//! benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    TryIssue,
    Clock,
    Drain,
    PacketRequest,
    Send,
    Recv,
    ClockBatchBurst,
    ClockBatchGap,
    Submit,
    Poll,
}

impl Call {
    pub const ALL: [Call; 10] = [
        Call::TryIssue,
        Call::Clock,
        Call::Drain,
        Call::PacketRequest,
        Call::Send,
        Call::Recv,
        Call::ClockBatchBurst,
        Call::ClockBatchGap,
        Call::Submit,
        Call::Poll,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::TryIssue => "host.try_issue",
            Call::Clock => "core.clock",
            Call::Drain => "host.drain",
            Call::PacketRequest => "types.packet_request",
            Call::Send => "core.send",
            Call::Recv => "core.recv",
            Call::ClockBatchBurst => "core.clock_batch.burst",
            Call::ClockBatchGap => "core.clock_batch.gap",
            Call::Submit => "serve.submit",
            Call::Poll => "serve.poll",
        }
    }

    /// Coarse calls are few enough to keep every span. The one-cycle
    /// `clock_batch` steps of a burst are as frequent as requests, so
    /// they are only aggregated.
    fn coarse(self) -> bool {
        !matches!(
            self,
            Call::TryIssue | Call::PacketRequest | Call::Send | Call::Recv | Call::ClockBatchBurst
        )
    }
}

/// Count, total and log2-ns histogram of one call site.
#[derive(Debug, Clone, Copy)]
pub struct CallStat {
    pub calls: u64,
    pub total_ns: u64,
    /// `hist[i]` counts calls that took `[2^i, 2^(i+1))` ns.
    pub hist: [u64; 40],
}

impl Default for CallStat {
    fn default() -> Self {
        CallStat {
            calls: 0,
            total_ns: 0,
            hist: [0; 40],
        }
    }
}

impl CallStat {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the causing span, `u32::MAX` for a root.
    parent: u32,
}

/// Where a loop reports its call timings.
pub trait Probe {
    /// The start of a timed call (`None` when tracing is off).
    fn start(&self) -> Option<Instant>;
    /// Close a call opened with [`Probe::start`].
    fn end(&mut self, call: Call, start: Option<Instant>);
}

/// Tracing off: no clock reads, no records.
#[derive(Debug, Clone, Copy)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn start(&self) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn end(&mut self, _call: Call, _start: Option<Instant>) {}
}

/// Time `f` as one `call`.
#[inline(always)]
pub fn timed<P: Probe, R>(probe: &mut P, call: Call, f: impl FnOnce() -> R) -> R {
    let start = probe.start();
    let out = f();
    probe.end(call, start);
    out
}

/// An in-memory trace.
pub struct Trace {
    epoch: Instant,
    stats: [CallStat; Call::ALL.len()],
    spans: Vec<Span>,
    pass: u32,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            stats: [CallStat::default(); Call::ALL.len()],
            spans: Vec::new(),
            pass: u32::MAX,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a root span (one pass of a workload); coarse spans recorded
    /// until [`Trace::end_pass`] point at it.
    pub fn begin_pass(&mut self, name: &'static str) {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: u32::MAX,
        });
        self.pass = (self.spans.len() - 1) as u32;
    }

    pub fn end_pass(&mut self) {
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(self.pass as usize) {
            span.end_ns = now;
        }
        self.pass = u32::MAX;
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Fold another trace with the same epoch (another load thread) in;
    /// its spans keep pointing at their own pass spans.
    pub fn absorb(&mut self, other: Trace) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats.iter()) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            for (a, b) in mine.hist.iter_mut().zip(theirs.hist.iter()) {
                *a += b;
            }
        }
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != u32::MAX {
                s.parent += base;
            }
            s
        }));
    }

    pub fn stat(&self, call: Call) -> &CallStat {
        &self.stats[call as usize]
    }

    /// Every span's duration for `call`, in ns.
    pub fn durations_ns(&self, call: Call) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == call.name())
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Render the whole trace as text: a header, one line per call
    /// site, one line per span.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# hmc-perfbench trace");
        let _ = writeln!(out, "# {header}");
        let _ = writeln!(
            out,
            "# call <name> <calls> <total_ns> <log2-ns histogram from 1 ns>"
        );
        for call in Call::ALL {
            let s = self.stat(call);
            let hist: Vec<String> = s.hist.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "call {} {} {} {}",
                call.name(),
                s.calls,
                s.total_ns,
                hist.join(",")
            );
        }
        let _ = writeln!(
            out,
            "# span <id> <name> <start_ns> <end_ns> <parent id or ->"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "span {i} {} {} {} {parent}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Probe for Trace {
    #[inline]
    fn start(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    #[inline]
    fn end(&mut self, call: Call, start: Option<Instant>) {
        let Some(start) = start else { return };
        let end = Instant::now();
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        let stat = &mut self.stats[call as usize];
        stat.calls += 1;
        stat.total_ns += ns;
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(39);
        stat.hist[bucket] += 1;
        if call.coarse() {
            let start_ns = self.ns(start);
            let end_ns = self.ns(end);
            self.spans.push(Span {
                name: call.name(),
                start_ns,
                end_ns,
                parent: self.pass,
            });
        }
    }
}
