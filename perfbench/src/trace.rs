//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, the session it belongs to, and the
//! ladder rung it ran on. Spans are kept in memory and written out as
//! JSONL when the run ends. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use disc_obs::Json;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Non-zero span id.
    pub id: u32,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    /// Layer call, e.g. `core.run_chunk`.
    pub name: &'static str,
    /// Rung the call ran on (`L0` .. `L3`, or a set-up phase).
    pub rung: &'static str,
    /// Script session index, or `u64::MAX` outside any session.
    pub session: u64,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Session id for spans outside any session.
pub const NO_SESSION: u64 = u64::MAX;

/// Collects spans from every thread of the run.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (for an untraced pass inside a traced
    /// run).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds since the epoch.
    pub fn secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; `f` gets the span id to pass as the
    /// parent of its own children (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        rung: &'static str,
        parent: u32,
        session: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.on() {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let r = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            rung,
            session,
            start,
            end,
        });
        r
    }

    /// Records a span whose ends were measured elsewhere (queue waits
    /// that start on one thread and end on another).
    pub fn record(
        &self,
        name: &'static str,
        rung: &'static str,
        parent: u32,
        session: u64,
        start: u64,
        end: u64,
    ) {
        if self.on() {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                name,
                rung,
                session,
                start,
                end: end.max(start),
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations in nanoseconds of the spans named `name` on `rung`.
    pub fn durations(&self, name: &str, rung: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name && s.rung == rung)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total nanoseconds of the spans named `name` on `rung`.
    pub fn total_ns(&self, name: &str, rung: &str) -> f64 {
        self.durations(name, rung).iter().sum()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            let line = Json::obj([
                ("id", Json::U64(u64::from(s.id))),
                ("parent", Json::U64(u64::from(s.parent))),
                ("name", Json::str(s.name)),
                ("rung", Json::str(s.rung)),
                (
                    "session",
                    if s.session == NO_SESSION {
                        Json::Null
                    } else {
                        Json::U64(s.session)
                    },
                ),
                ("start_ns", Json::U64(s.start)),
                ("end_ns", Json::U64(s.end)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Per `(rung, name)`: span count, total and self nanoseconds.
pub fn self_time_summary(
    spans: &[Span],
) -> BTreeMap<(&'static str, &'static str), (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<(&'static str, &'static str), (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = stats::self_time(
            s.start,
            s.end,
            children.get(&s.id).map_or(&[][..], Vec::as_slice),
        );
        let e = out.entry((s.rung, s.name)).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += own;
    }
    out
}
