//! The four rungs a session can run on, each executing a
//! [`SessionPlan`]'s ops:
//!
//! - L0: `Machine::run_chunk` alone, in the calling thread.
//! - L1: L0 + a `WireSink` into an in-memory writer, flushed after each
//!   step, + the `RunReport` and fingerprint the server builds at every
//!   `done`.
//! - L2: L1 driven through a `WorkerPool` the way the server drives it
//!   (session-affine `submit_to`, adaptive chunks, re-enqueue after
//!   each chunk). No sockets.
//! - L3: a spawned `disc_served` over TCP through `disc_serve::Client`.
//!
//! Every rung checks its final fingerprint (and, from L1 on, its sample
//! stream) against the template's [`Reference`].

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use disc_board::Board;
use disc_core::{Exit, Machine, MachineConfig, MachineStats, TraceSink};
use disc_isa::Program;
use disc_obs::{Json, RunReport, WireSink};
use disc_par::WorkerPool;
use disc_serve::{Client, ServeError};

use crate::script::{op_verb, Op, Script, SessionPlan, Source, Template};
use crate::trace::{Tracer, NO_SESSION};

/// A request or step slower than this counts as failed (timed out).
pub const LIMIT: Duration = Duration::from_secs(5);

/// The server's chunk baseline and latency budget (`ServerConfig`
/// defaults), mirrored by the L2 rung.
const CHUNK_BASE: u64 = 4096;
const CHUNK_LATENCY: Duration = Duration::from_millis(2);
const MAX_CHUNK_GROWTH: u64 = 256;

/// In-memory wire: what a `WireSink` writes at L1/L2.
pub type Wire = Arc<Mutex<Vec<u8>>>;

/// What a template's session must end with.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Fingerprint of the final report (the `done` event's).
    pub fingerprint: u64,
    /// `data` of every sample line, in order.
    pub samples: Vec<Json>,
    /// Simulated cycles of the whole session.
    pub cycles: u64,
    /// Instructions retired over the session.
    pub retired: u64,
}

/// Builds a template's machine, recording the layer calls as spans.
///
/// # Errors
///
/// Board or assembly errors, as text.
pub fn build(
    tpl: &Template,
    tr: &Tracer,
    rung: &'static str,
    parent: u32,
    session: u64,
) -> Result<Machine, String> {
    match tpl.source {
        Source::Board => {
            let board = tr
                .span("board.parse", rung, parent, session, |_| {
                    Board::parse(&tpl.text)
                })
                .map_err(|e| format!("{}: {e}", tpl.name))?;
            tr.span("board.machine", rung, parent, session, |_| board.machine())
                .map_err(|e| format!("{}: {e}", tpl.name))
        }
        Source::Program => {
            let program = tr
                .span("isa.assemble", rung, parent, session, |_| {
                    Program::assemble(&tpl.text)
                })
                .map_err(|e| format!("{}: {e}", tpl.name))?;
            Ok(tr.span("core.new", rung, parent, session, |_| {
                Machine::new(MachineConfig::disc1(), &program)
            }))
        }
    }
}

/// Fingerprint of the report `disc_served` puts in a `done` event.
pub fn fingerprint(machine: &Machine) -> u64 {
    let report = RunReport::from_machine("disc-serve", machine).to_json();
    disc_snap::checksum(report.render().as_bytes())
}

/// Whether a run ended for good (the session cannot run further).
pub fn terminal(exit: Exit) -> bool {
    matches!(exit, Exit::Halted | Exit::AllIdle)
}

/// Runs up to `budget` cycles the way the server finishes a `run`
/// command: chunk after chunk until the budget is spent or the run
/// ends. Returns cycles run and whether the run ended for good.
fn run_budget(m: &mut Machine, budget: u64) -> Result<(u64, bool), String> {
    let mut left = budget;
    let mut ran = 0;
    while left > 0 {
        let c = m
            .run_chunk(left)
            .map_err(|e| format!("simulation error: {e}"))?;
        ran += c.cycles;
        left = left.saturating_sub(c.cycles.max(1));
        if terminal(c.exit) {
            return Ok((ran, true));
        }
    }
    Ok((ran, false))
}

fn attach_sink(m: &mut Machine, wire: &Wire, session: u64, every: u64) {
    if every > 0 {
        let sink = WireSink::resume_at(Arc::clone(wire), session, every, m.cycle(), m.stats());
        m.set_trace_sink(Box::new(sink));
    }
}

fn end_sink(m: &mut Machine) {
    if let Some(mut sink) = m.take_trace_sink() {
        sink.finish();
    }
}

/// Parses the sample lines of an in-memory wire into their `data`.
pub fn wire_samples(wire: &Wire) -> Vec<Json> {
    let bytes = wire.lock().expect("wire poisoned");
    String::from_utf8_lossy(&bytes)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("sample"))
        .filter_map(|j| j.get("data").cloned())
        .collect()
}

/// Computes a template's reference: the whole budget in one go at L0
/// (fingerprint) and at L1 (sample stream); the two fingerprints must
/// agree.
///
/// # Errors
///
/// Build or simulation errors, or an L0/L1 disagreement.
pub fn reference(tpl: &Template, tr: &Tracer) -> Result<Reference, String> {
    let mut m0 = build(tpl, tr, "reference", 0, NO_SESSION)?;
    run_budget(&mut m0, tpl.cycles())?;
    let mut m1 = build(tpl, tr, "reference", 0, NO_SESSION)?;
    let wire: Wire = Arc::default();
    attach_sink(&mut m1, &wire, 0, tpl.sample_every);
    let (_, ended) = run_budget(&mut m1, tpl.cycles())?;
    m1.flush_trace_sink();
    if ended {
        end_sink(&mut m1);
    }
    let fp = fingerprint(&m0);
    if fingerprint(&m1) != fp {
        return Err(format!("{}: L0 and L1 fingerprints differ", tpl.name));
    }
    Ok(Reference {
        fingerprint: fp,
        samples: wire_samples(&wire),
        cycles: m0.stats().cycles,
        retired: m0.stats().retired_total(),
    })
}

/// Windows the sink probe feeds, and their length in cycles.
const PROBE_WINDOWS: u64 = 1024;
const PROBE_EVERY: u64 = 256;

/// Cost of the wire sink alone, in nanoseconds per sample line: the
/// template's machine is run window by window (untimed) to collect
/// real counter snapshots, which are then fed to a `WireSink` writing
/// into memory, flushed every 16 windows like a server chunk boundary.
///
/// # Errors
///
/// Build or simulation errors.
pub fn sink_probe(tpl: &Template, tr: &Tracer) -> Result<f64, String> {
    let mut m = build(tpl, tr, "obs_probe", 0, NO_SESSION)?;
    let mut snapshots: Vec<MachineStats> = Vec::new();
    for _ in 0..PROBE_WINDOWS {
        run_budget(&mut m, PROBE_EVERY)?;
        snapshots.push(m.stats().clone());
    }
    let wire: Wire = Arc::default();
    let mut sink = WireSink::new(Arc::clone(&wire), 1, PROBE_EVERY);
    let t = Instant::now();
    tr.span("obs.sink", "obs_probe", 0, NO_SESSION, |_| {
        for (k, stats) in snapshots.iter().enumerate() {
            sink.observe_stats((k as u64 + 1) * PROBE_EVERY - 1, stats);
            if k % 16 == 15 {
                sink.flush_out();
            }
        }
        sink.finish();
    });
    let ns = t.elapsed().as_nanos() as f64;
    Ok(ns / sink.events().max(1) as f64)
}

/// What one pass of sessions at one rung recorded.
#[derive(Debug, Default, Clone)]
pub struct Record {
    /// Operations attempted (requests, or in-process ops).
    pub attempted: u64,
    /// Operations failed: errors, nacks, timeouts, check mismatches.
    pub failed: u64,
    /// Step latencies (`run` to `done`), nanoseconds.
    pub steps: Vec<f64>,
    /// Control-op latencies by verb, nanoseconds.
    pub acks: BTreeMap<&'static str, Vec<f64>>,
    /// `(completion time in seconds since the tracer epoch, cycles)` per
    /// session finished.
    pub done: Vec<(f64, u64)>,
    /// Nanoseconds the sessions themselves took (single-threaded rungs).
    pub busy_ns: f64,
    /// Sample lines produced or received.
    pub samples: u64,
    /// Wire bytes the `WireSink` wrote (L1).
    pub bytes: u64,
    /// Protocol lines received (L3).
    pub lines: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Record {
    /// Merges another record into this one.
    pub fn absorb(&mut self, other: Record) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.steps.extend(other.steps);
        for (k, v) in other.acks {
            self.acks.entry(k).or_default().extend(v);
        }
        self.done.extend(other.done);
        self.busy_ns += other.busy_ns;
        self.samples += other.samples;
        self.bytes += other.bytes;
        self.lines += other.lines;
        for e in other.errors {
            self.fail_note(e);
        }
    }

    /// Counts one failed operation and keeps its message.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.fail_note(msg.into());
    }

    fn fail_note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// All control-op latencies, nanoseconds.
    pub fn all_acks(&self) -> Vec<f64> {
        self.acks.values().flatten().copied().collect()
    }

    fn timed(&mut self, ns: f64, step: bool, verb: &'static str) {
        if step {
            self.steps.push(ns);
        } else {
            self.acks.entry(verb).or_default().push(ns);
        }
        if ns > LIMIT.as_nanos() as f64 {
            self.fail(format!("{verb} took {:.1} s", ns / 1e9));
        }
    }
}

/// Checks a finished session against its reference; each mismatch is
/// a failed operation.
fn check(
    rec: &mut Record,
    plan: &SessionPlan,
    r: &Reference,
    fp: Option<u64>,
    samples: Option<&[Json]>,
) {
    if fp != Some(r.fingerprint) {
        rec.fail(format!(
            "session {}: fingerprint {fp:?} != {}",
            plan.index, r.fingerprint
        ));
    }
    if let Some(s) = samples {
        if s != r.samples.as_slice() {
            rec.fail(format!(
                "session {}: {} sample lines differ from L1's {}",
                plan.index,
                s.len(),
                r.samples.len()
            ));
        }
    }
}

/// Counters summed over the final machines of a pass (exact).
#[derive(Debug, Default, Clone)]
pub struct CoreTotals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Superblock bursts entered.
    pub bursts: u64,
    /// Cycles executed inside bursts.
    pub burst_cycles: u64,
    /// Burst entries refused by the safety predicates.
    pub entry_rejects: u64,
    /// Cycles fast-forwarded by event skip.
    pub skipped: u64,
    /// Per-slot attribution buckets summed over streams: issue, hazard,
    /// bus wait (transaction + bus-free), spill, idle, not scheduled.
    pub slots: [u64; 6],
    /// External bus accesses.
    pub bus_accesses: u64,
    /// Bus faults.
    pub bus_faults: u64,
}

impl CoreTotals {
    /// Adds one machine's counters.
    pub fn add(&mut self, m: &Machine) {
        let st = m.stats();
        let sb = m.superblock_stats();
        self.cycles += st.cycles;
        self.retired += st.retired_total();
        self.bursts += sb.bursts;
        self.burst_cycles += sb.burst_cycles;
        self.entry_rejects += sb.entry_rejects;
        self.skipped += m.skip_stats().cycles_skipped;
        let a = &st.attribution;
        for s in 0..a.streams() {
            let b = a.buckets(s);
            // buckets: issue, hazard, bus txn, bus free, spill, idle, not scheduled
            let folded = [b[0], b[1], b[2] + b[3], b[4], b[5], b[6]];
            for (acc, v) in self.slots.iter_mut().zip(folded) {
                *acc += v;
            }
        }
        self.bus_accesses += st.external_accesses;
        self.bus_faults += st.bus_faults_total();
    }
}

/// Runs one session in the calling thread at L0 (`sink == false`) or
/// L1 (`sink == true`). Control ops other than create/close have no
/// in-process counterpart below L2 and are skipped. With `snap`, the
/// finished machine is also snapshotted and restored into a fresh one
/// (outside the session's timed span), and the copy must fingerprint
/// the same.
#[allow(clippy::too_many_arguments)]
pub fn inproc_session(
    script: &Script,
    plan: &SessionPlan,
    refs: &[Reference],
    sink: bool,
    snap: Option<&mut Vec<usize>>,
    tr: &Tracer,
    rung: &'static str,
    rec: &mut Record,
    core: &mut CoreTotals,
) {
    let tpl = &script.templates[plan.template];
    let sid = plan.index as u64;
    let wire: Wire = Arc::default();
    let began = Instant::now();
    rec.attempted += 1;
    let t = Instant::now();
    let mut m = match tr.span("session.create", rung, 0, sid, |p| {
        build(tpl, tr, rung, p, sid)
    }) {
        Ok(m) => m,
        Err(e) => {
            rec.fail(e);
            return;
        }
    };
    if sink {
        attach_sink(&mut m, &wire, sid + 1, tpl.sample_every);
    }
    rec.timed(t.elapsed().as_nanos() as f64, false, "create");
    let mut fp = None;
    for op in &plan.ops {
        let Op::Run(budget) = *op else { continue };
        rec.attempted += 1;
        let t = Instant::now();
        let step = tr.span("step", rung, 0, sid, |step| {
            let r = tr.span("core.run_chunk", rung, step, sid, |_| {
                run_budget(&mut m, budget)
            });
            if sink {
                tr.span("obs.flush", rung, step, sid, |_| m.flush_trace_sink());
                if let Ok((_, true)) = r {
                    tr.span("obs.finish", rung, step, sid, |_| end_sink(&mut m));
                }
                fp = Some(tr.span("obs.report", rung, step, sid, |_| fingerprint(&m)));
            }
            r
        });
        rec.timed(t.elapsed().as_nanos() as f64, true, "run");
        match step {
            Ok((_, ended)) if ended => break,
            Ok(_) => {}
            Err(e) => {
                rec.fail(e);
                return;
            }
        }
    }
    let mut busy = began.elapsed();
    let r = &refs[plan.template];
    if sink {
        let samples = wire_samples(&wire);
        rec.samples += samples.len() as u64;
        rec.bytes += wire.lock().expect("wire poisoned").len() as u64;
        check(rec, plan, r, fp, Some(&samples));
    } else {
        check(rec, plan, r, Some(fingerprint(&m)), None);
    }
    core.add(&m);
    if let Some(sizes) = snap {
        let bytes = tr.span("snap.snapshot", rung, 0, sid, |_| m.snapshot());
        sizes.push(bytes.len());
        let restored = build(tpl, tr, "snap", 0, sid).and_then(|mut copy| {
            tr.span("snap.restore", rung, 0, sid, |_| copy.restore(&bytes))
                .map_err(|e| format!("restore: {e}"))?;
            Ok(copy)
        });
        match restored {
            Ok(copy) if fingerprint(&copy) == r.fingerprint => {}
            Ok(_) => rec.fail(format!(
                "session {sid}: restored copy fingerprints differently"
            )),
            Err(e) => rec.fail(format!("session {sid}: {e}")),
        }
    }
    rec.attempted += 1;
    let t = Instant::now();
    drop(m);
    let close = t.elapsed();
    busy += close;
    rec.timed(close.as_nanos() as f64, false, "close");
    rec.busy_ns += busy.as_nanos() as f64;
    rec.done.push((tr.secs(), r.cycles));
}

// ---- L2: worker pool, no sockets -------------------------------------

/// A step's end as the L2 chunk job reports it.
struct StepEnd {
    result: Result<(u64, bool), String>,
    fingerprint: u64,
}

struct PoolSession {
    index: u64,
    machine: Machine,
    remaining: u64,
    every: u64,
    chunk: u64,
    reply: mpsc::Sender<StepEnd>,
}

impl PoolSession {
    fn aligned(&self, cycles: u64) -> u64 {
        if self.every > 1 {
            cycles.max(1).next_multiple_of(self.every)
        } else {
            cycles.max(1)
        }
    }

    /// The server's adaptive chunk rule (`adapt_chunk`).
    fn adapt(&mut self, intended: u64, budget: u64, ran: u64, elapsed: Duration) {
        let floor = self.aligned(CHUNK_BASE);
        let current = if self.chunk == 0 { floor } else { self.chunk };
        if elapsed > CHUNK_LATENCY {
            self.chunk = self.aligned((current / 2).max(floor));
        } else if budget == intended && ran >= budget && elapsed <= CHUNK_LATENCY / 2 {
            self.chunk = self.aligned(current.saturating_mul(2).min(floor * MAX_CHUNK_GROWTH));
        }
    }
}

type Slot = Arc<Mutex<PoolSession>>;

fn submit_chunk(
    pool: &Arc<WorkerPool>,
    slot: &Slot,
    tr: &Arc<Tracer>,
    rung: &'static str,
    index: u64,
) {
    let (pool2, slot, tr2) = (Arc::clone(pool), Arc::clone(slot), Arc::clone(tr));
    let queued = tr.now();
    tr.span("pool.submit_to", rung, 0, index, |_| {
        pool.submit_to(index as usize, move || {
            tr2.record("pool.queue_wait", rung, 0, index, queued, tr2.now());
            chunk_job(&pool2, &slot, &tr2, rung);
        });
    });
}

fn chunk_job(pool: &Arc<WorkerPool>, slot: &Slot, tr: &Arc<Tracer>, rung: &'static str) {
    let mut s = slot.lock().expect("pool session poisoned");
    let sid = s.index;
    let job = tr.span("pool.job", rung, 0, sid, |job| {
        let intended = if s.chunk == 0 {
            s.aligned(CHUNK_BASE)
        } else {
            s.chunk
        };
        let budget = intended.min(s.remaining);
        let m = &mut s.machine;
        let started = Instant::now();
        let r = tr.span("core.run_chunk", rung, job, sid, |_| m.run_chunk(budget));
        tr.span("obs.flush", rung, job, sid, |_| m.flush_trace_sink());
        let elapsed = started.elapsed();
        let c = match r {
            Ok(c) => c,
            Err(e) => return Some(Err(format!("simulation error: {e}"))),
        };
        s.remaining = s.remaining.saturating_sub(c.cycles.max(1));
        s.adapt(intended, budget, c.cycles, elapsed);
        let m = &mut s.machine;
        if terminal(c.exit) {
            tr.span("obs.finish", rung, job, sid, |_| end_sink(m));
        }
        (terminal(c.exit) || s.remaining == 0).then_some(Ok(terminal(c.exit)))
    });
    match job {
        None => {
            drop(s);
            submit_chunk(pool, slot, tr, rung, sid);
        }
        Some(result) => {
            let fp = tr.span("obs.report", rung, 0, sid, |_| fingerprint(&s.machine));
            let cycles = s.machine.cycle();
            let _ = s.reply.send(StepEnd {
                result: result.map(|ended| (cycles, ended)),
                fingerprint: fp,
            });
        }
    }
}

/// One L2 client: runs `plans` closed-loop through the pool.
fn pool_client(
    script: &Script,
    plans: &[SessionPlan],
    refs: &[Reference],
    pool: &Arc<WorkerPool>,
    tr: &Arc<Tracer>,
    rung: &'static str,
) -> Record {
    let mut rec = Record::default();
    let (tx, rx) = mpsc::channel();
    for plan in plans {
        let tpl = &script.templates[plan.template];
        let sid = plan.index as u64;
        let wire: Wire = Arc::default();
        let mut slot: Option<Slot> = None;
        let mut fp = None;
        let mut ended = false;
        let mut cycles = 0;
        for op in &plan.ops {
            if ended && *op != Op::Close {
                continue;
            }
            rec.attempted += 1;
            let t = Instant::now();
            let outcome: Result<(), String> = match *op {
                Op::Create => build(tpl, tr, rung, 0, sid).map(|mut m| {
                    attach_sink(&mut m, &wire, sid + 1, tpl.sample_every);
                    slot = Some(Arc::new(Mutex::new(PoolSession {
                        index: sid,
                        machine: m,
                        remaining: 0,
                        every: tpl.sample_every,
                        chunk: 0,
                        reply: tx.clone(),
                    })));
                }),
                Op::Run(budget) => {
                    let slot = slot.as_ref().expect("created");
                    slot.lock().expect("pool session poisoned").remaining = budget;
                    submit_chunk(pool, slot, tr, rung, sid);
                    match rx.recv() {
                        Ok(end) => end.result.map(|(c, e)| {
                            cycles = c;
                            ended = e;
                            fp = Some(end.fingerprint);
                        }),
                        Err(_) => Err("pool dropped the step".into()),
                    }
                }
                Op::Stat => {
                    let s = slot
                        .as_ref()
                        .expect("created")
                        .lock()
                        .expect("pool session poisoned");
                    let m = &s.machine;
                    std::hint::black_box((m.cycle(), m.stats().retired_total()));
                    Ok(())
                }
                Op::Evict | Op::Resume => Err("evict/resume are only sent at L3".into()),
                Op::Close => {
                    slot = None;
                    Ok(())
                }
            };
            rec.timed(
                t.elapsed().as_nanos() as f64,
                matches!(op, Op::Run(_)),
                op_verb(*op),
            );
            if let Err(e) = outcome {
                rec.fail(format!("session {sid}: {e}"));
                break;
            }
        }
        let samples = wire_samples(&wire);
        rec.samples += samples.len() as u64;
        check(&mut rec, plan, &refs[plan.template], fp, Some(&samples));
        rec.done.push((tr.secs(), cycles));
    }
    rec
}

/// Replays `plans` at L2: a pool of `workers` and two closed-loop
/// client threads (sessions alternate between them). Returns the
/// merged record, the pass's wall seconds and the pool's steal count.
pub fn pool_pass(
    script: &Script,
    plans: &[SessionPlan],
    refs: &[Reference],
    workers: usize,
    tr: &Arc<Tracer>,
    rung: &'static str,
) -> (Record, f64, u64) {
    let pool = Arc::new(WorkerPool::new(workers));
    let t = Instant::now();
    let mut rec = Record::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let mine: Vec<SessionPlan> = plans.iter().skip(k).step_by(2).cloned().collect();
                let (pool, tr) = (&pool, tr);
                scope.spawn(move || pool_client(script, &mine, refs, pool, tr, rung))
            })
            .collect();
        for h in handles {
            rec.absorb(h.join().expect("pool client panicked"));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    pool.wait_idle();
    let steals = pool.steals();
    (rec, wall, steals)
}

// ---- L3: disc_served over TCP ----------------------------------------

/// Runs one session through `client`. Returns `false` when the
/// connection is unusable afterwards.
pub fn served_session(
    client: &mut Client,
    script: &Script,
    plan: &SessionPlan,
    refs: &[Reference],
    tr: &Tracer,
    rung: &'static str,
    rec: &mut Record,
) -> bool {
    let tpl = &script.templates[plan.template];
    let idx = plan.index as u64;
    let mut sid = None;
    let mut fp = None;
    let mut ended = false;
    let mut cycles = 0;
    let mut samples: Vec<Json> = Vec::new();
    for op in &plan.ops {
        if ended && *op != Op::Close {
            continue;
        }
        let s = sid.unwrap_or(0);
        rec.attempted += 1;
        let t = Instant::now();
        let name = match op {
            Op::Create => "client.create",
            Op::Stat => "client.stat",
            Op::Run(_) => "client.step",
            Op::Evict => "client.evict",
            Op::Resume => "client.resume",
            Op::Close => "client.close",
        };
        let outcome: Result<(), ServeError> = tr.span(name, rung, 0, idx, |span| match *op {
            Op::Create => match tpl.source {
                Source::Board => client.create_board(&tpl.text, tpl.sample_every, false),
                Source::Program => client.create(&tpl.text, None, tpl.sample_every, false),
            }
            .map(|id| sid = Some(id)),
            Op::Run(budget) => {
                tr.span("client.run", rung, span, idx, |_| client.run(s, budget))?;
                let done = tr.span("client.wait_done", rung, span, idx, |_| client.wait_done(s))?;
                cycles = done.get("cycles").and_then(Json::as_u64).unwrap_or(0);
                ended = matches!(
                    done.get("exit").and_then(Json::as_str),
                    Some("halted" | "all-idle")
                );
                fp = done.get("fingerprint").and_then(Json::as_u64);
                Ok(())
            }
            Op::Stat => client.stat(s).map(|_| ()),
            Op::Evict => client.evict(s).map(|_| ()),
            Op::Resume => client.resume(s).map(|_| ()),
            Op::Close => client.close(s),
        });
        rec.timed(
            t.elapsed().as_nanos() as f64,
            matches!(op, Op::Run(_)),
            op_verb(*op),
        );
        rec.lines += 1 + u64::from(matches!(op, Op::Run(_)));
        tr.span("client.drain", rung, 0, idx, |_| {
            while let Some(ev) = client.next_event() {
                rec.lines += 1;
                if ev.get("event").and_then(Json::as_str) == Some("sample")
                    && ev.get("session").and_then(Json::as_u64) == sid
                {
                    if let Some(data) = ev.get("data") {
                        samples.push(data.clone());
                    }
                }
            }
        });
        if let Err(e) = outcome {
            let dead = matches!(e, ServeError::Io(_) | ServeError::Protocol(_));
            rec.fail(format!("session {idx} {}: {e}", op_verb(*op)));
            if let (Some(s), false) = (sid, dead) {
                let _ = client.close(s);
            }
            return !dead;
        }
    }
    rec.samples += samples.len() as u64;
    check(rec, plan, &refs[plan.template], fp, Some(&samples));
    rec.done.push((tr.secs(), cycles));
    true
}
