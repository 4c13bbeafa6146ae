//! `perfbench` — the DISC repository's benchmark.
//!
//! ```text
//! perfbench --workload sim_events|serve_long --seed N
//!           --seconds S --trace 0|1 --server PATH [--root DIR] [--commit ID]
//! ```
//!
//! With `--trace 0` it measures the workload end to end for `S` seconds
//! and prints every end-to-end metric; with `--trace 1` it replays the
//! workload's seeded session script on the four rungs (machine, wire
//! sink, worker pool, TCP server), records spans around each layer call,
//! and prints the per-layer metrics. Every simulated result is checked;
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod rungs;
mod script;
mod stats;
mod sys;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use disc_obs::Json;
use disc_serve::Client;

use rungs::{CoreTotals, Record, Reference};
use script::{Op, Script, SessionPlan, Template, Workload};
use sys::Served;
use trace::Tracer;

/// The measured phase is cut into this many equal segments, with a
/// group of set-ups before the first, between each pair and after the
/// last. `setup_s`, the median of all of them, then samples the host
/// across the whole run, as the rates do, instead of at its two ends.
const SEGMENTS: usize = 6;
/// Set-ups in each group.
const SETUPS_PER_GROUP: usize = 8;
/// Set-ups in the traced run, which reports their median as
/// `board.build_ms` and `serve.start_ms`.
const TRACED_SETUPS: usize = 9;
/// On sim_events one set-up builds the machines of this many rounds.
const SIM_SETUP_ROUNDS: usize = 64;
/// `step_p50_ms` is taken over batches of this many consecutive steps.
const STEP_BATCH: usize = 64;
/// On served workloads one set-up starts the server this many times.
const SERVER_STARTS: usize = 3;
/// A run that has not finished this long after it started is aborted.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Server processes the watchdog must kill if the run hangs.
static SERVER_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    root: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut root = PathBuf::from(".");
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        root,
        commit,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
    /// Extra report lines printed after the metrics.
    lines: Vec<String>,
    /// Checksum of the first sessions' plans and templates: equal for
    /// equal seeds.
    script_digest: u64,
    /// Checksum of the templates' reference fingerprints: equal across
    /// every run of a workload on the same simulator.
    reference_digest: u64,
}

impl Outcome {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn count(&mut self, rec: &Record) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        for e in &rec.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sim_events|serve_long --seed N \
                 --seconds S --trace 0|1 --server PATH [--root DIR] [--commit ID]"
            );
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: run exceeded its time limit; aborting");
        for pid in SERVER_PIDS.lock().map(|p| p.clone()).unwrap_or_default() {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
        std::process::exit(3);
    });
    match run(&args) {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let boards = args.root.join("boards");
    let script = Script::new(args.workload, args.seed, |name| {
        let path = boards.join(format!("{name}.board"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    })?;
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let out_dir = args.root.join(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let tr = Arc::new(Tracer::new(args.trace));
    let refs: Vec<Reference> = script
        .templates
        .iter()
        .map(|t| rungs::reference(t, &tr))
        .collect::<Result<_, _>>()?;
    let mut outcome = match (args.trace, args.workload) {
        (false, Workload::SimEvents) => sim_events(args, &script, &refs, &tr)?,
        (false, _) => served(args, &script, &refs, &tr, &out_dir)?,
        (true, _) => traced(args, &script, &refs, &tr, &out_dir)?,
    };
    outcome.script_digest = script_digest(&script);
    let fps: Vec<u8> = refs
        .iter()
        .flat_map(|r| r.fingerprint.to_le_bytes())
        .collect();
    outcome.reference_digest = disc_snap::checksum(&fps);
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    Ok(outcome)
}

fn print_outcome(args: &Args, o: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={} commit={} script={:016x} references={:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_cpus(),
        args.commit,
        o.script_digest,
        o.reference_digest
    );
    for m in &o.metrics {
        println!(
            "  {:<34} {:>14.6} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for line in &o.lines {
        println!("{line}");
    }
    println!("  attempted {} failed {}", o.attempted, o.failed);
    for e in &o.errors {
        println!("  failure: {e}");
    }
    let metrics = Json::Obj(
        o.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    );
    let last = Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::U64(o.attempted.max(1))),
        ("failed", Json::U64(o.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", last.render());
}

// ---- shared helpers ----------------------------------------------------

/// Checksum of the script's first two decks: each session's template
/// (name, text, sampling window) and op list, which together fix the
/// request bytes a client sends.
fn script_digest(script: &Script) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..2 * script.templates.len() {
        let plan = script.session(i);
        let tpl = &script.templates[plan.template];
        let line = format!("{} {} {:?}\n", tpl.name, tpl.sample_every, plan.ops);
        bytes.extend_from_slice(tpl.text.as_bytes());
        bytes.extend_from_slice(line.as_bytes());
    }
    disc_snap::checksum(&bytes)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// p50 of a latency sample in ms.
fn p50_ms(sample: &[f64]) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    stats::percentile(&s, 500).map_or(f64::NAN, ms)
}

/// Percentile `permille` of a latency sample in ms, which must have at
/// least ten samples beyond it; the note gives the count and the
/// highest percentile that has ten beyond it.
fn tail_ms(sample: &[f64], permille: u64, what: &str) -> Result<(f64, String), String> {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let beyond = stats::beyond(s.len(), permille);
    if beyond < 10 {
        return Err(format!(
            "{what}: only {} samples, {beyond} beyond p{} (10 needed); run longer",
            s.len(),
            permille as f64 / 10.0
        ));
    }
    let tail = stats::tail_percentile(&s).map_or(String::new(), |(p, v)| {
        format!("; p{} {:.4} ms", p as f64 / 10.0, ms(v))
    });
    Ok((
        ms(stats::percentile(&s, permille).expect("non-empty")),
        format!("n={} beyond={beyond}{tail}", s.len()),
    ))
}

/// Simulated instructions per cycle over one deck of templates: exact
/// and independent of the seed's budget splits.
fn deck_ipc(refs: &[Reference]) -> f64 {
    let retired: u64 = refs.iter().map(|r| r.retired).sum();
    let cycles: u64 = refs.iter().map(|r| r.cycles).sum();
    retired as f64 / cycles as f64
}

/// Times one set-up of the template machines the workload builds.
fn build_templates(templates: &[Template], copies: usize, tr: &Tracer) -> Result<f64, String> {
    let t = Instant::now();
    tr.span("setup.build", "setup", 0, trace::NO_SESSION, |p| {
        for _ in 0..copies {
            for tpl in templates {
                drop(rungs::build(tpl, tr, "setup", p, trace::NO_SESSION)?);
            }
        }
        Ok::<_, String>(())
    })?;
    Ok(t.elapsed().as_secs_f64())
}

/// Spawns `disc_served` and opens two connections, registering the
/// server with the watchdog.
fn start_server(args: &Args, tr: &Tracer, out_dir: &Path) -> Result<(Served, Vec<Client>), String> {
    let (served, clients) = tr.span("serve.start", "setup", 0, trace::NO_SESSION, |_| {
        Served::start(&args.server, out_dir, 2)
    })?;
    SERVER_PIDS
        .lock()
        .expect("pid list")
        .push(served.pid().parse().unwrap_or(0));
    Ok((served, clients))
}

/// Closes the connections, stops the server and forgets its pid.
fn stop_server(served: Served, clients: Vec<Client>) {
    let pid: u32 = served.pid().parse().unwrap_or(0);
    drop(clients);
    served.stop();
    SERVER_PIDS.lock().expect("pid list").retain(|&p| p != pid);
}

/// What [`served_setup`] measured, and the server it kept running.
struct Setup {
    /// The last server started, with its two connections, when the
    /// caller asked to keep it.
    kept: Option<(Served, Vec<Client>)>,
    /// Seconds each set-up spent building the template machines.
    builds: Vec<f64>,
    /// Seconds each set-up spent starting servers.
    starts: Vec<f64>,
}

impl Setup {
    /// Seconds of each whole set-up.
    fn totals(&self) -> Vec<f64> {
        self.builds
            .iter()
            .zip(&self.starts)
            .map(|(b, s)| b + s)
            .collect()
    }
}

/// Runs the served set-up `reps` times. One set-up builds every
/// template machine, then `SERVER_STARTS` times spawns `disc_served` and
/// reads its `hello` on two connections. Each server is stopped outside
/// the timed part, except the last one when `keep` is set.
fn served_setup(
    args: &Args,
    script: &Script,
    tr: &Tracer,
    out_dir: &Path,
    reps: usize,
    keep: bool,
) -> Result<Setup, String> {
    let mut builds = Vec::new();
    let mut starts = Vec::new();
    let mut last: Option<(Served, Vec<Client>)> = None;
    for _ in 0..reps {
        builds.push(build_templates(&script.templates, 1, tr)?);
        let mut start = 0.0;
        for _ in 0..SERVER_STARTS {
            if let Some((old, old_clients)) = last.take() {
                stop_server(old, old_clients);
            }
            let t = Instant::now();
            last = Some(start_server(args, tr, out_dir)?);
            start += t.elapsed().as_secs_f64();
        }
        starts.push(start);
    }
    let kept = match last {
        Some((served, clients)) if !keep => {
            stop_server(served, clients);
            None
        }
        last => last,
    };
    Ok(Setup {
        kept,
        builds,
        starts,
    })
}

/// User+sys CPU seconds of the bench process, plus those of the process
/// `pid` when given.
fn cpu_now(pid: Option<&str>) -> Option<f64> {
    let own = sys::cpu_seconds("self")?;
    match pid {
        Some(p) => sys::cpu_seconds(p).map(|s| own + s),
        None => Some(own),
    }
}

/// One segment of a measured phase.
struct Segment {
    /// Tracer-epoch seconds it started at.
    start: f64,
    /// Its `(time, cycles)` session completions.
    done: Vec<(f64, u64)>,
    /// Its step latencies, each client's in completion order.
    steps: Vec<f64>,
}

impl Segment {
    fn new(start: f64, part: &Record) -> Segment {
        Segment {
            start,
            done: part.done.clone(),
            steps: part.steps.clone(),
        }
    }
}

/// What an end-to-end measured phase leaves behind.
struct Measured<'a> {
    /// The measured phase's sessions.
    rec: &'a Record,
    /// Its segments.
    segments: Vec<Segment>,
    /// Sessions per rate batch.
    batch: usize,
    /// User+sys CPU seconds spent over the segments.
    cpu_s: Option<f64>,
    /// Peak RSS of the process holding the machines.
    rss_mib: Option<f64>,
}

impl Measured<'_> {
    /// The segments' completions with each session's work given by
    /// `work` of its cycles.
    fn work(&self, work: impl Fn(u64) -> f64) -> Vec<(f64, Vec<(f64, f64)>)> {
        self.segments
            .iter()
            .map(|s| (s.start, s.done.iter().map(|&(t, c)| (t, work(c))).collect()))
            .collect()
    }
}

/// Adds every end-to-end metric.
fn end_to_end(
    out: &mut Outcome,
    refs: &[Reference],
    setups: &[f64],
    setup_note: String,
    m: &Measured,
    ack_what: &str,
) -> Result<(), String> {
    let rec = m.rec;
    let mcycles: f64 = rec.done.iter().map(|&(_, c)| c as f64 / 1e6).sum();
    let batches = format!(
        "trimmed mean of {} batches of {} sessions in {} segments",
        m.segments
            .iter()
            .map(|s| s.done.len() / m.batch)
            .sum::<usize>(),
        m.batch,
        m.segments.len()
    );
    let (step99, step_note) = tail_ms(&rec.steps, 990, "step latency")?;
    let (ack95, ack_note) = tail_ms(&rec.all_acks(), 950, "ack latency")?;
    let lo = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setups.iter().copied().fold(0.0, f64::max);
    out.add(
        "setup_s",
        stats::median(setups).unwrap_or(f64::NAN),
        "s",
        format!("{setup_note}; range {lo:.5} .. {hi:.5} s"),
    );
    out.add(
        "sim_mcycles_per_s",
        stats::batch_rate(&m.work(|c| c as f64 / 1e6), m.batch).unwrap_or(f64::NAN),
        "Mcycles/s",
        batches.clone(),
    );
    out.add(
        "sim_ipc",
        deck_ipc(refs),
        "instr/cycle",
        "one deck of templates, exact",
    );
    out.add(
        "sessions_per_s",
        stats::batch_rate(&m.work(|_| 1.0), m.batch).unwrap_or(f64::NAN),
        "sessions/s",
        format!("create -> done -> close; {batches}"),
    );
    let step_lists: Vec<&[f64]> = m.segments.iter().map(|s| s.steps.as_slice()).collect();
    out.add(
        "step_p50_ms",
        stats::batch_percentile(&step_lists, STEP_BATCH, 500).map_or(f64::NAN, ms),
        "ms",
        format!(
            "trimmed mean of the p50s of batches of {STEP_BATCH} steps; n={}, pooled p50 {:.4} ms",
            rec.steps.len(),
            p50_ms(&rec.steps)
        ),
    );
    out.add("step_p99_ms", step99, "ms", step_note);
    out.add("ack_p95_ms", ack95, "ms", format!("{ack_what}{ack_note}"));
    out.add(
        "cpu_ms_per_mcycle",
        m.cpu_s.map_or(f64::NAN, |c| c * 1e3 / mcycles),
        "ms/Mcycle",
        "user+sys CPU of the bench process and disc_served (when running)",
    );
    out.add(
        "peak_rss_mb",
        m.rss_mib.unwrap_or(f64::NAN),
        "MiB",
        "VmHWM of the process holding the machines",
    );
    Ok(())
}

/// The `setup_s` note shared by both workloads.
fn setup_note(one: String) -> String {
    format!(
        "median of {} set-ups, {SETUPS_PER_GROUP} before, between and after each of the \
         {SEGMENTS} measured segments; one set-up: {one}",
        SETUPS_PER_GROUP * (SEGMENTS + 1)
    )
}

// ---- sim_events, end to end ----------------------------------------------

fn sim_events(
    args: &Args,
    script: &Script,
    refs: &[Reference],
    tr: &Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let deck = script.templates.len();
    let mut setups = Vec::new();
    let mut setup_group = || {
        for _ in 0..SETUPS_PER_GROUP {
            setups.push(build_templates(&script.templates, SIM_SETUP_ROUNDS, tr)?);
        }
        Ok::<_, String>(())
    };
    setup_group()?;

    let mut core = CoreTotals::default();
    let mut warm = Record::default();
    for i in 0..deck {
        rungs::inproc_session(
            script,
            &script.session(i),
            refs,
            false,
            None,
            tr,
            "L0",
            &mut warm,
            &mut core,
        );
    }
    out.count(&warm);

    // Whole rounds (decks) until each segment's deadline.
    let mut rec = Record::default();
    let mut segments = Vec::new();
    let mut cpu = Some(0.0);
    let mut i = deck;
    for seg in 0..SEGMENTS {
        if seg > 0 {
            setup_group()?;
        }
        let mut part = Record::default();
        let cpu0 = cpu_now(None);
        let start = tr.secs();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
        while Instant::now() < deadline || !i.is_multiple_of(deck) {
            rungs::inproc_session(
                script,
                &script.session(i),
                refs,
                false,
                None,
                tr,
                "L0",
                &mut part,
                &mut core,
            );
            i += 1;
        }
        cpu = cpu
            .zip(cpu_now(None).zip(cpu0))
            .map(|(c, (b, a))| c + b - a);
        segments.push(Segment::new(start, &part));
        rec.absorb(part);
    }
    setup_group()?;
    out.count(&rec);

    let measured = Measured {
        rec: &rec,
        segments,
        batch: deck,
        cpu_s: cpu,
        rss_mib: sys::peak_rss_mib("self"),
    };
    end_to_end(
        &mut out,
        refs,
        &setups,
        setup_note(format!(
            "parse and build {SIM_SETUP_ROUNDS} rounds of the {deck} boards"
        )),
        &measured,
        "in-process create/close; ",
    )?;
    Ok(out)
}

// ---- serve_long, end to end ----------------------------------------------

/// Sessions each client runs before the measured phase.
const WARM_SESSIONS: usize = 3;
/// Sessions per rate batch.
const BATCH_SESSIONS: usize = 24;

/// Runs sessions closed loop on every connection, one thread each, until
/// each client has run `sessions` more or `deadline` has passed. Client
/// `k` runs sessions `k`, `k + 2`, ... of the script; `next[k]` is the
/// one it runs next and `alive[k]` whether its connection still works.
#[allow(clippy::too_many_arguments)]
fn client_pass(
    clients: &mut [Client],
    next: &mut [usize],
    alive: &mut [bool],
    script: &Script,
    refs: &[Reference],
    tr: &Tracer,
    sessions: usize,
    deadline: Instant,
) -> Record {
    let mut rec = Record::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(next.iter_mut())
            .zip(alive.iter_mut())
            .enumerate()
            .map(|(k, ((client, next), alive))| {
                scope.spawn(move || {
                    let mut rec = Record::default();
                    let mut ran = 0;
                    while *alive && ran < sessions && Instant::now() < deadline {
                        let plan = script.session(k + 2 * *next);
                        *alive =
                            rungs::served_session(client, script, &plan, refs, tr, "L3", &mut rec);
                        *next += 1;
                        ran += 1;
                    }
                    rec
                })
            })
            .collect();
        for h in handles {
            rec.absorb(h.join().expect("client thread panicked"));
        }
    });
    rec
}

fn served(
    args: &Args,
    script: &Script,
    refs: &[Reference],
    tr: &Arc<Tracer>,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let first = served_setup(args, script, tr, out_dir, SETUPS_PER_GROUP, true)?;
    let mut setups = first.totals();
    let (server, mut clients) = first.kept.expect("a kept server");
    let pid = server.pid();
    let mut next = vec![0; clients.len()];
    let mut alive = vec![true; clients.len()];
    let far = Instant::now() + HARD_LIMIT;
    let warm = client_pass(
        &mut clients,
        &mut next,
        &mut alive,
        script,
        refs,
        tr,
        WARM_SESSIONS,
        far,
    );
    out.count(&warm);

    // The measured server idles while the set-ups between segments run.
    let mut rec = Record::default();
    let mut segments = Vec::new();
    let mut cpu = Some(0.0);
    for seg in 0..SEGMENTS {
        if seg > 0 {
            setups
                .extend(served_setup(args, script, tr, out_dir, SETUPS_PER_GROUP, false)?.totals());
        }
        let cpu0 = cpu_now(Some(&pid));
        let start = tr.secs();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
        let part = client_pass(
            &mut clients,
            &mut next,
            &mut alive,
            script,
            refs,
            tr,
            usize::MAX,
            deadline,
        );
        cpu = cpu
            .zip(cpu_now(Some(&pid)).zip(cpu0))
            .map(|(c, (b, a))| c + b - a);
        segments.push(Segment::new(start, &part));
        rec.absorb(part);
    }
    let rss = sys::peak_rss_mib(&pid);
    stop_server(server, clients);
    setups.extend(served_setup(args, script, tr, out_dir, SETUPS_PER_GROUP, false)?.totals());
    out.count(&rec);

    let verbs: Vec<String> = rec
        .acks
        .iter()
        .map(|(k, v)| format!("{k} {}", v.len()))
        .collect();
    let measured = Measured {
        rec: &rec,
        segments,
        batch: BATCH_SESSIONS,
        cpu_s: cpu,
        rss_mib: rss,
    };
    end_to_end(
        &mut out,
        refs,
        &setups,
        setup_note(format!(
            "build the {} template machines + {SERVER_STARTS} x (spawn disc_served to hello on 2 connections)",
            script.templates.len()
        )),
        &measured,
        &format!("{}; ", verbs.join(", ")),
    )?;
    Ok(out)
}

// ---- traced run: the L0..L3 ladder --------------------------------------

/// Decks of the script each ladder rung replays in a traced run, sized
/// so every rung runs for roughly a second or more.
fn ladder_decks(w: Workload) -> usize {
    match w {
        Workload::SimEvents => 8,
        Workload::ServeLong => 16,
    }
}

/// Boards (and the countdown program) whose bare-machine rate the traced
/// run reports one by one.
fn sweep_templates(root: &Path) -> Result<Vec<Template>, String> {
    let mut names: Vec<&str> = script::EVENT_BOARDS.to_vec();
    names.extend(script::COMPUTE_BOARDS);
    let mut out = Vec::new();
    for name in names {
        let path = root.join("boards").join(format!("{name}.board"));
        out.push(Template {
            name: name.to_string(),
            source: script::Source::Board,
            text: std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            sample_every: 0,
            windows: 0,
            steps: 0,
        });
    }
    out.push(Template {
        name: "countdown".into(),
        source: script::Source::Program,
        text: script::COUNTDOWN.into(),
        sample_every: 0,
        windows: 0,
        steps: 0,
    });
    Ok(out)
}

/// Bare-machine rate of one template: median of three 2^18-cycle runs.
fn sweep_rate(tpl: &Template, tr: &Tracer) -> Result<f64, String> {
    let mut rates = Vec::new();
    for _ in 0..3 {
        let mut m = rungs::build(tpl, tr, "sweep", 0, trace::NO_SESSION)?;
        let t = Instant::now();
        let mut ran = 0;
        while ran < 1 << 18 {
            let c = tr
                .span("core.run_chunk", "sweep", 0, trace::NO_SESSION, |_| {
                    m.run_chunk(1 << 15)
                })
                .map_err(|e| format!("{}: {e}", tpl.name))?;
            ran += c.cycles;
            if rungs::terminal(c.exit) {
                break;
            }
        }
        rates.push(ran as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    Ok(stats::median(&rates).unwrap_or(f64::NAN))
}

/// Replays `plans` at L3 on two connections; returns the record and
/// the pass's wall seconds.
fn served_pass(
    clients: &mut [Client],
    script: &Script,
    plans: &[SessionPlan],
    refs: &[Reference],
    tr: &Tracer,
    rung: &'static str,
) -> (Record, f64) {
    let t = Instant::now();
    let mut rec = Record::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                scope.spawn(move || {
                    let mut rec = Record::default();
                    for plan in plans.iter().skip(k).step_by(2) {
                        if !rungs::served_session(client, script, plan, refs, tr, rung, &mut rec) {
                            break;
                        }
                    }
                    rec
                })
            })
            .collect();
        for h in handles {
            rec.absorb(h.join().expect("client thread panicked"));
        }
    });
    (rec, t.elapsed().as_secs_f64())
}

fn traced(
    args: &Args,
    script: &Script,
    refs: &[Reference],
    tr: &Arc<Tracer>,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let deck = script.templates.len();
    let setup = served_setup(args, script, tr, out_dir, TRACED_SETUPS, true)?;
    let (builds, starts) = (setup.builds, setup.starts);
    let (server, mut clients) = setup.kept.expect("a kept server");
    let pid = server.pid();

    // Bare-machine rates, one board at a time.
    let mut sweep = Vec::new();
    for tpl in sweep_templates(&args.root)? {
        sweep.push((tpl.name.clone(), sweep_rate(&tpl, tr)?));
    }

    // Every rung replays the same whole decks of the script. L1 replays
    // each session right after L0 does, so both see the same host.
    let plans: Vec<SessionPlan> = (0..ladder_decks(args.workload) * deck)
        .map(|i| script.session(i))
        .collect();
    let mut l0 = Record::default();
    let mut l1 = Record::default();
    let mut core = CoreTotals::default();
    let mut snap_sizes = Vec::new();
    for plan in &plans {
        rungs::inproc_session(
            script,
            plan,
            refs,
            false,
            Some(&mut snap_sizes),
            tr,
            "L0",
            &mut l0,
            &mut core,
        );
        rungs::inproc_session(
            script,
            plan,
            refs,
            true,
            None,
            tr,
            "L1",
            &mut l1,
            &mut CoreTotals::default(),
        );
    }
    let n = plans.len() as f64;
    let sink_ns: Vec<f64> = script
        .templates
        .iter()
        .map(|tpl| rungs::sink_probe(tpl, tr))
        .collect::<Result<_, _>>()?;
    let (l2a, l2a_wall, _) = rungs::pool_pass(script, &plans, refs, 1, tr, "L2_1w");
    let (l2b, l2b_wall, steals) = rungs::pool_pass(script, &plans, refs, 2, tr, "L2_2w");

    // L3 runs untraced, traced, traced, untraced; tracing overhead
    // compares their summed wall times, and the mirrored order keeps a
    // drift in host speed from landing on one side. CPU is read around
    // the traced passes.
    let mut l3u = Record::default();
    let mut l3 = Record::default();
    let (mut l3u_wall, mut l3_wall) = (0.0, 0.0);
    let mut cpu = (0.0, 0.0);
    for traced in [false, true, true, false] {
        tr.set_on(traced);
        if !traced {
            let (r, w) = served_pass(&mut clients, script, &plans, refs, tr, "L3_untraced");
            l3u.absorb(r);
            l3u_wall += w;
            continue;
        }
        let before = sys::cpu_seconds("self").zip(sys::cpu_seconds(&pid));
        let (r, w) = served_pass(&mut clients, script, &plans, refs, tr, "L3");
        let after = sys::cpu_seconds("self").zip(sys::cpu_seconds(&pid));
        l3.absorb(r);
        l3_wall += w;
        let ((s0, v0), (s1, v1)) = before.zip(after).ok_or("cannot read /proc CPU times")?;
        cpu.0 += s1 - s0;
        cpu.1 += v1 - v0;
    }
    tr.set_on(true);
    let n3 = 2.0 * n;

    // Control verbs every workload reports: a few sessions of the first
    // template, evicted and resumed after their one step.
    let probe_plans: Vec<SessionPlan> = (0..8)
        .map(|k| SessionPlan {
            index: 1_000_000 + k,
            template: 0,
            ops: vec![
                Op::Create,
                Op::Run(script.templates[0].cycles()),
                Op::Stat,
                Op::Evict,
                Op::Resume,
                Op::Close,
            ],
        })
        .collect();
    let mut probe = Record::default();
    for plan in &probe_plans {
        if !rungs::served_session(&mut clients[0], script, plan, refs, tr, "probe", &mut probe) {
            break;
        }
    }
    stop_server(server, clients);
    for r in [&l0, &l1, &l2a, &l2b, &l3u, &l3, &probe] {
        out.count(r);
    }

    // Spans out, with a self-time summary on stdout.
    let spans = tr.spans();
    let path = out_dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::File::create(&path)
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_jsonl(&mut w)?;
            w.flush()
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.lines.push(format!(
        "  spans: {} written to {}",
        spans.len(),
        path.display()
    ));
    out.lines.push(format!(
        "  {:<12} {:<20} {:>8} {:>12} {:>12}",
        "rung", "span", "count", "total_ms", "self_ms"
    ));
    for ((rung, name), (count, total, own)) in trace::self_time_summary(&spans) {
        out.lines.push(format!(
            "  {rung:<12} {name:<20} {count:>8} {:>12.3} {:>12.3}",
            ms(total as f64),
            ms(own as f64)
        ));
    }

    // disc-board / disc-isa and server start.
    out.add(
        "board.build_ms",
        stats::median(&builds).unwrap_or(f64::NAN) * 1e3,
        "ms",
        format!("parse + build the {deck} template machines, median of {TRACED_SETUPS}"),
    );
    out.add(
        "serve.start_ms",
        stats::median(&starts).unwrap_or(f64::NAN) * 1e3,
        "ms",
        format!("{SERVER_STARTS} x (spawn disc_served to hello on 2 connections), median of {TRACED_SETUPS}"),
    );

    // disc-core (L0).
    let l0_chunk_ns = tr.total_ns("core.run_chunk", "L0");
    out.add(
        "core.mcycles_per_s",
        core.cycles as f64 / l0_chunk_ns * 1e3,
        "Mcycles/s",
        format!("{} sessions at L0", plans.len()),
    );
    for (name, rate) in &sweep {
        out.add(
            format!("core.{name}.mcycles_per_s"),
            *rate,
            "Mcycles/s",
            "bare machine, median of 3",
        );
    }
    let cyc = core.cycles as f64;
    out.add(
        "core.burst_cycle_frac",
        core.burst_cycles as f64 / cyc,
        "frac",
        "superblock burst cycles / cycles",
    );
    out.add(
        "core.burst_hit_ratio",
        core.bursts as f64 / (core.bursts + core.entry_rejects).max(1) as f64,
        "frac",
        "bursts / (bursts + entry rejects)",
    );
    out.add(
        "core.skip_cycle_frac",
        core.skipped as f64 / cyc,
        "frac",
        "event-skipped cycles / cycles",
    );
    let slot_total: u64 = core.slots.iter().sum();
    for (name, v) in [
        "issue",
        "hazard",
        "bus_wait",
        "spill",
        "idle",
        "not_scheduled",
    ]
    .iter()
    .zip(core.slots)
    {
        out.add(
            format!("core.slot.{name}_frac"),
            v as f64 / slot_total.max(1) as f64,
            "frac",
            "stream-slot cycle attribution",
        );
    }
    out.add(
        "bus.accesses_per_kcycle",
        core.bus_accesses as f64 * 1e3 / cyc,
        "1/kcycle",
        "external accesses",
    );
    out.add(
        "bus.faults",
        core.bus_faults as f64,
        "count",
        "bus faults over the L0 sessions",
    );

    // disc-obs (L1 - L0).
    out.add(
        "obs.sink_ns_per_sample",
        stats::median(&sink_ns).unwrap_or(f64::NAN),
        "ns",
        "WireSink observe + flush per sample line, median over templates",
    );
    out.add(
        "obs.report_us",
        stats::median(&tr.durations("obs.report", "L1")).unwrap_or(f64::NAN) / 1e3,
        "us",
        "RunReport::from_machine + render + checksum, median",
    );
    out.add(
        "obs.bytes_per_step",
        l1.bytes as f64 / l1.steps.len().max(1) as f64,
        "bytes",
        "WireSink bytes per step at L1",
    );

    // disc-snap.
    let sizes: Vec<f64> = snap_sizes.iter().map(|&s| s as f64).collect();
    out.add(
        "snap.snapshot_us",
        stats::median(&tr.durations("snap.snapshot", "L0")).unwrap_or(f64::NAN) / 1e3,
        "us",
        "Machine::snapshot of finished L0 sessions, median",
    );
    out.add(
        "snap.restore_us",
        stats::median(&tr.durations("snap.restore", "L0")).unwrap_or(f64::NAN) / 1e3,
        "us",
        "Machine::restore into a fresh machine, median",
    );
    out.add(
        "snap.bytes",
        stats::median(&sizes).unwrap_or(f64::NAN),
        "bytes",
        "snapshot size, median",
    );

    // disc-par (L2).
    let mut waits = tr.durations("pool.queue_wait", "L2_2w");
    waits.sort_by(f64::total_cmp);
    let wait_tail = format!(
        "n={} beyond p99={}",
        waits.len(),
        stats::beyond(waits.len(), 990)
    );
    out.add(
        "pool.queue_wait_ms_p50",
        stats::percentile(&waits, 500).map_or(f64::NAN, ms),
        "ms",
        "submit_to -> job start at 2 workers",
    );
    out.add(
        "pool.queue_wait_ms_p99",
        stats::percentile(&waits, 990).map_or(f64::NAN, ms),
        "ms",
        wait_tail,
    );
    out.add(
        "pool.busy_frac",
        tr.total_ns("pool.job", "L2_2w") / (2.0 * l2b_wall * 1e9),
        "frac",
        "job time / (2 workers x wall)",
    );
    out.add("pool.steals", steals as f64, "count", "at 2 workers");
    let sps = |n_done: f64, secs: f64| n_done / secs;
    let l0_sps = sps(n, l0.busy_ns / 1e9);
    let l1_sps = sps(n, l1.busy_ns / 1e9);
    let l2a_sps = sps(n, l2a_wall);
    let l2b_sps = sps(n, l2b_wall);
    let l3_sps = sps(n3, l3_wall);
    let l3u_sps = sps(n3, l3u_wall);
    out.add(
        "pool.speedup_2w",
        l2b_sps / l2a_sps,
        "x",
        "L2 sessions/s at 2 workers / at 1 worker",
    );

    // disc-serve (L3 - L2) and its client.
    out.add(
        "serve.step_overhead_ms_p50",
        p50_ms(&l3.steps) - p50_ms(&l2b.steps),
        "ms",
        "L3 step p50 - L2 (2 workers) step p50",
    );
    let mut acks = l3.acks.clone();
    for (k, v) in &probe.acks {
        acks.entry(k).or_default().extend(v);
    }
    for verb in ["create", "stat", "evict", "resume", "close"] {
        let sample = acks.get(verb).cloned().unwrap_or_default();
        out.add(
            format!("serve.{verb}_ack_ms_p50"),
            p50_ms(&sample),
            "ms",
            format!("n={} (L3 + probe)", sample.len()),
        );
    }
    let steps = l3.steps.len().max(1) as f64;
    out.add(
        "serve.server_cpu_ms_per_step",
        cpu.1 * 1e3 / steps,
        "ms",
        "disc_served user+sys CPU over the traced L3 pass / steps",
    );
    out.add(
        "serve.lines_per_step",
        l3.lines as f64 / steps,
        "lines",
        "acks + events received per step",
    );
    out.add(
        "client.cpu_ms_per_step",
        cpu.0 * 1e3 / steps,
        "ms",
        "bench process CPU over the traced L3 pass / steps",
    );
    out.add(
        "trace.overhead_frac",
        1.0 - l3_sps / l3u_sps,
        "frac",
        "1 - traced / untraced L3 sessions/s, passes untraced, traced, traced, untraced",
    );

    // The ladder itself.
    for (rung, sps, rec) in [
        ("L0", l0_sps, &l0),
        ("L1", l1_sps, &l1),
        ("L2_1w", l2a_sps, &l2a),
        ("L2_2w", l2b_sps, &l2b),
        ("L3", l3_sps, &l3),
    ] {
        out.add(
            format!("ladder.{rung}.sessions_per_s"),
            sps,
            "sessions/s",
            format!("{} sessions", plans.len()),
        );
        out.add(
            format!("ladder.{rung}.step_p50_ms"),
            p50_ms(&rec.steps),
            "ms",
            format!("n={}", rec.steps.len()),
        );
    }
    Ok(out)
}
