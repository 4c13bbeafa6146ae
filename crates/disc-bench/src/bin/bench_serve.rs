//! Load generator for the `disc-serve` session server: spawns the server
//! in-process, drives a fleet of sessions over real TCP connections from
//! several concurrent client threads, and records sessions/sec plus
//! p50/p99 *step latency* — the wall time from submitting one `run` step
//! to receiving its `done` event — into the `"serve"` section of
//! `BENCH_core.json` (schema `disc-bench-serve/v2`).
//!
//! Each session runs a deterministic countdown program to completion in
//! several budgeted `run` steps, the same create/run/done cadence an
//! interactive fleet controller would use, so the latency distribution
//! reflects scheduling fairness on a contended worker pool, not just raw
//! simulation throughput.
//!
//! ```text
//! bench_serve [--scale] [--smoke] [--out BENCH_core.json] [--sessions N]
//!             [--clients N] [--workers N] [--addr HOST:PORT]
//!             [--min-sessions-per-sec X]
//! ```
//!
//! * Default: one measurement at `--workers` (or `DISC_SERVE_WORKERS`,
//!   or the machine default).
//! * `--scale`: the full scaling sweep — workers 1/2/4/8, each against
//!   `max(4, workers)` clients — with per-point scaling efficiency
//!   versus the sweep's own 1-worker point.
//! * `--smoke`: a fast schema-only run (used by CI); smoke numbers are
//!   not comparable to full runs.
//! * `--min-sessions-per-sec X`: exit 1 unless every measured point
//!   reaches `X` sessions/sec — the CI scaling gate.
//!
//! The `"serve"` section is spliced into the existing file textually,
//! replacing any previous one, so the hand-formatted workload entries
//! that `bench_core --check` scans line-by-line stay byte-identical.

use std::time::Instant;

use disc_obs::Json;
use disc_serve::{Client, Server, ServerConfig};

/// Sessions driven to completion per sweep point (full mode).
const FULL_SESSIONS: usize = 64;
/// Sessions in `--smoke` mode.
const SMOKE_SESSIONS: usize = 8;
/// Worker counts measured by `--scale`.
const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Cycle budget per `run` step; the workload needs several steps.
const STEP_BUDGET: u64 = 20_000;
/// Sampling window streamed back per session (observability on).
const SAMPLE_EVERY: u64 = 4_096;

/// A nested countdown long enough to need a handful of `run` steps,
/// deterministic in outcome so every session is the same workload.
const PROGRAM: &str = r#"
    .stream 0, main
main:
    ldi r2, 40
outer:
    ldi r0, 250
inner:
    subi r0, r0, 1
    jnz inner
    subi r2, r2, 1
    jnz outer
    sta r2, 0x20
    halt
"#;

/// Drives `sessions` sessions to completion on one connection and
/// returns the latency of every `run` step in nanoseconds, in issue
/// order (monotone wall-clock within this one client).
fn drive(addr: &str, sessions: usize) -> Vec<u128> {
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::new();
    for _ in 0..sessions {
        let session = client
            .create(PROGRAM, None, SAMPLE_EVERY, false)
            .expect("create");
        loop {
            let t0 = Instant::now();
            client.run(session, STEP_BUDGET).expect("run step");
            let done = client.wait_done(session).expect("step done");
            latencies.push(t0.elapsed().as_nanos());
            // Drain streamed samples so the event queue stays bounded.
            while client.next_event().is_some() {}
            if done.get("exit").and_then(Json::as_str) == Some("halted") {
                // The final `done` streams the full run report; hold the
                // server to its schema while we are load-testing it.
                let report = done.get("report").expect("done carries a report");
                assert_eq!(
                    report.get("schema").and_then(Json::as_str),
                    Some("disc-run-report/v4"),
                    "streamed report schema"
                );
                assert!(
                    done.get("fingerprint").and_then(Json::as_u64).is_some(),
                    "streamed report is fingerprinted"
                );
                break;
            }
        }
        client.close(session).expect("close");
    }
    latencies
}

/// Merges per-client step-latency series into one ascending sample set
/// fit for percentile ranking.
///
/// Each client's own series is wall-clock monotone by construction, but
/// the *interleaved* union across clients is not — so the merge sorts
/// fully rather than assuming order. Zero-duration artifacts (timer
/// granularity on instantly-acked steps) are clamped to 1ns so spurious
/// zeros can never drag the low percentiles to a meaningless 0.
fn merge_latencies(per_client: Vec<Vec<u128>>) -> Vec<u128> {
    let mut all: Vec<u128> = per_client
        .into_iter()
        .flatten()
        .map(|ns| ns.max(1))
        .collect();
    all.sort_unstable();
    all
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it
/// (`rank = ceil(p/100 * n)`, 1-based). The previous implementation
/// rounded `(n-1) * p/100` half-away-from-zero, which reported one rank
/// high around even sample counts (p50 of 1..=100 came out 51).
fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One measured sweep point.
struct Point {
    workers: u64,
    clients: usize,
    steps: usize,
    wall_ns: u128,
    sessions_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Measures one point: boots an in-process server at `workers` (unless
/// `external` routes the load to an already-running `disc_served`),
/// drives `sessions` sessions across `clients` connections, and tears
/// the server down again.
fn run_point(external: Option<&str>, workers: usize, sessions: usize, clients: usize) -> Point {
    let handle = match external {
        Some(_) => None,
        None => {
            let config = ServerConfig {
                workers,
                evict_dir: std::env::temp_dir().join(format!(
                    "disc-serve-bench-{}-{workers}w",
                    std::process::id()
                )),
                ..ServerConfig::default()
            };
            Some(
                Server::bind("127.0.0.1:0", config)
                    .expect("bind server")
                    .spawn(),
            )
        }
    };
    let addr = match external {
        Some(a) => a.to_string(),
        None => handle
            .as_ref()
            .expect("in-process server")
            .addr()
            .to_string(),
    };
    let probe = Client::connect(&addr).expect("connect");
    let workers = probe
        .hello()
        .get("workers")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    drop(probe);

    // Unrecorded warmup: the first sessions against a fresh server pay
    // one-off costs (page faults, allocator growth, TCP slow start)
    // that would otherwise penalize whichever sweep point runs first.
    drive(&addr, (sessions / 8).clamp(2, 16));

    let clients = clients.min(sessions).max(1);
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            // Spread the remainder so every session is driven exactly once.
            let share = sessions / clients + usize::from(c < sessions % clients);
            let addr = addr.clone();
            std::thread::spawn(move || drive(&addr, share))
        })
        .collect();
    let per_client: Vec<Vec<u128>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let wall_ns = t0.elapsed().as_nanos();
    let latencies = merge_latencies(per_client);

    if let Some(handle) = handle {
        let mut shutter = Client::connect(&addr).expect("connect for shutdown");
        shutter.shutdown().expect("shutdown");
        handle.join().expect("server exits cleanly");
    }

    Point {
        workers,
        clients,
        steps: latencies.len(),
        wall_ns,
        sessions_per_sec: sessions as f64 / (wall_ns.max(1) as f64 / 1e9),
        p50_us: percentile(&latencies, 50.0) as f64 / 1e3,
        p99_us: percentile(&latencies, 99.0) as f64 / 1e3,
    }
}

/// Removes a previously-spliced `"serve"` member (and the comma that
/// attached it) from the rendered document, leaving everything else
/// byte-identical.
fn remove_serve(text: &str) -> String {
    let Some(key) = text.find("\"serve\"") else {
        return text.to_string();
    };
    let Some(open) = text[key..].find('{').map(|i| key + i) else {
        return text.to_string();
    };
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else {
        return text.to_string();
    };
    // Consume the separating comma: the one before the member when it is
    // a later member, otherwise the one after (member came first).
    let mut start = key;
    while start > 0 && text.as_bytes()[start - 1].is_ascii_whitespace() {
        start -= 1;
    }
    let mut end = close + 1;
    if start > 0 && text.as_bytes()[start - 1] == b',' {
        start -= 1;
    } else {
        while end < text.len() && text.as_bytes()[end].is_ascii_whitespace() {
            end += 1;
        }
        if end < text.len() && text.as_bytes()[end] == b',' {
            end += 1;
        }
    }
    format!("{}{}", &text[..start], &text[end..])
}

/// Splices `block` (the rendered `"serve": {...}` member, two-space
/// indented, no trailing newline) into the top-level object of `text` as
/// its last member, replacing any existing `"serve"` member.
fn merge_serve(text: &str, block: &str) -> Result<String, String> {
    Json::parse(text).map_err(|e| format!("existing file is not valid JSON: {e}"))?;
    let text = remove_serve(text);
    let trimmed = text.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .ok_or("file does not end a top-level object")?
        .trim_end();
    let sep = if body.ends_with('{') { "" } else { "," };
    let merged = format!("{body}{sep}\n{block}\n}}\n");
    Json::parse(&merged).map_err(|e| format!("merged file is not valid JSON: {e}"))?;
    Ok(merged)
}

/// Renders one sweep point as a member of the `"sweep"` array.
/// `efficiency` is speedup over the sweep's 1-worker point divided by
/// the worker count (1.0 = perfectly linear), `null` for a single-point
/// run that has no 1-worker reference to compare against.
fn point_json(p: &Point, efficiency: Option<f64>) -> String {
    let eff = match efficiency {
        Some(e) => format!("{e:.2}"),
        None => "null".to_string(),
    };
    format!(
        "      {{\n        \"workers\": {},\n        \"clients\": {},\n        \
         \"run_steps\": {},\n        \"wall_ns\": {},\n        \
         \"sessions_per_sec\": {:.1},\n        \"step_latency_p50_us\": {:.1},\n        \
         \"step_latency_p99_us\": {:.1},\n        \"efficiency_vs_1w\": {}\n      }}",
        p.workers, p.clients, p.steps, p.wall_ns, p.sessions_per_sec, p.p50_us, p.p99_us, eff,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = args.iter().any(|a| a == "--scale");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let usize_arg = |flag: &str, default: usize| -> usize {
        match arg_after(flag) {
            Some(v) => match v.parse() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("bench_serve: {flag} {v:?} is not a positive integer");
                    std::process::exit(2);
                }
            },
            None => default,
        }
    };
    let out = arg_after("--out").unwrap_or_else(|| "BENCH_core.json".to_string());
    let sessions = usize_arg(
        "--sessions",
        if smoke { SMOKE_SESSIONS } else { FULL_SESSIONS },
    );
    let min_rate: Option<f64> = arg_after("--min-sessions-per-sec").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bench_serve: --min-sessions-per-sec {v:?} is not a number");
            std::process::exit(2);
        })
    });
    // With `--addr` the load goes to an externally-started `disc_served`
    // (the serve-smoke harness does this); otherwise servers run
    // in-process on ephemeral ports.
    let external = arg_after("--addr");
    if scale && (external.is_some() || smoke) {
        eprintln!("bench_serve: --scale is incompatible with --addr/--smoke");
        std::process::exit(2);
    }
    // Single-point worker count: flag, then env override, then machine
    // default (the sweep ignores this and measures SWEEP_WORKERS).
    let env_workers = std::env::var("DISC_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let single_workers = usize_arg(
        "--workers",
        env_workers.unwrap_or_else(|| ServerConfig::default().workers),
    );

    let mode = if smoke { "smoke" } else { "full" };
    let points: Vec<Point> = if scale {
        SWEEP_WORKERS
            .iter()
            .map(|&workers| {
                let clients = usize_arg("--clients", workers.max(4));
                eprintln!(
                    "bench_serve: sweep point — {sessions} sessions over {clients} clients, \
                     {workers} workers"
                );
                run_point(None, workers, sessions, clients)
            })
            .collect()
    } else {
        let clients = usize_arg("--clients", single_workers.max(4));
        match &external {
            // The external server's worker count comes from its hello.
            Some(a) => eprintln!(
                "bench_serve: {mode} mode, {sessions} sessions over {clients} clients @ {a}"
            ),
            None => eprintln!(
                "bench_serve: {mode} mode, {sessions} sessions over {clients} clients, \
                 {single_workers} workers"
            ),
        }
        vec![run_point(
            external.as_deref(),
            single_workers,
            sessions,
            clients,
        )]
    };

    let one_worker_rate = points
        .iter()
        .find(|p| p.workers == 1)
        .map(|p| p.sessions_per_sec);
    for p in &points {
        let eff = efficiency(p, one_worker_rate);
        eprintln!(
            "  {} workers: {} sessions, {} run steps in {:.2}s: {:.1} sessions/s, \
             step latency p50 {:.0}us p99 {:.0}us{}",
            p.workers,
            sessions,
            p.steps,
            p.wall_ns as f64 / 1e9,
            p.sessions_per_sec,
            p.p50_us,
            p.p99_us,
            match eff {
                Some(e) => format!(", efficiency {e:.2}"),
                None => String::new(),
            }
        );
    }

    let sweep = points
        .iter()
        .map(|p| point_json(p, efficiency(p, one_worker_rate)))
        .collect::<Vec<_>>()
        .join(",\n");
    let block = format!(
        "  \"serve\": {{\n    \"schema\": \"disc-bench-serve/v2\",\n    \"mode\": \"{mode}\",\n    \
         \"sessions\": {sessions},\n    \"step_budget\": {STEP_BUDGET},\n    \
         \"sweep\": [\n{sweep}\n    ]\n  }}",
    );
    let text = std::fs::read_to_string(&out)
        .unwrap_or_else(|_| "{\n  \"schema\": \"disc-bench-core/v3\"\n}\n".to_string());
    let merged = merge_serve(&text, &block).unwrap_or_else(|e| {
        eprintln!("bench_serve: cannot merge into {out}: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out, merged).expect("write benchmark json");
    eprintln!("wrote \"serve\" section of {out}");

    if let Some(min) = min_rate {
        for p in &points {
            if p.sessions_per_sec < min {
                eprintln!(
                    "bench_serve: GATE FAILED — {} workers reached {:.1} sessions/s, \
                     need >= {min:.1}",
                    p.workers, p.sessions_per_sec
                );
                std::process::exit(1);
            }
        }
        eprintln!("bench_serve: gate ok (every point >= {min:.1} sessions/s)");
    }
}

/// Scaling efficiency of `p` against the sweep's 1-worker rate: speedup
/// divided by worker count; `None` without a 1-worker reference.
fn efficiency(p: &Point, one_worker_rate: Option<f64>) -> Option<f64> {
    let base = one_worker_rate?;
    if base <= 0.0 || p.workers == 0 {
        return None;
    }
    Some((p.sessions_per_sec / base) / p.workers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"schema\": \"disc-bench-core/v3\",\n  \"workloads\": [\n    {\n      \
                       \"name\": \"w\",\n      \"sim_cycles_per_sec\": 1.0\n    }\n  ]\n}\n";

    fn block(tag: &str) -> String {
        format!("  \"serve\": {{\n    \"tag\": \"{tag}\"\n  }}")
    }

    #[test]
    fn merge_appends_serve_as_the_last_member() {
        let merged = merge_serve(DOC, &block("a")).unwrap();
        let json = Json::parse(&merged).unwrap();
        assert_eq!(
            json.get("serve")
                .and_then(|s| s.get("tag"))
                .and_then(Json::as_str),
            Some("a")
        );
        // Everything that was there before is untouched, line for line.
        for line in DOC.lines().filter(|l| !l.trim_start().starts_with('}')) {
            assert!(merged.contains(line), "lost line {line:?}");
        }
    }

    #[test]
    fn merge_replaces_an_existing_serve_section() {
        let once = merge_serve(DOC, &block("a")).unwrap();
        let twice = merge_serve(&once, &block("b")).unwrap();
        let json = Json::parse(&twice).unwrap();
        assert_eq!(
            json.get("serve")
                .and_then(|s| s.get("tag"))
                .and_then(Json::as_str),
            Some("b")
        );
        assert_eq!(twice.matches("\"serve\"").count(), 1);
        // Replacing is idempotent on the surrounding document.
        assert_eq!(twice.replace("\"b\"", "\"a\""), once);
    }

    #[test]
    fn merge_handles_a_serve_member_that_is_not_last() {
        let doc = "{\n  \"serve\": {\n    \"tag\": \"old\"\n  },\n  \"schema\": \"x\"\n}\n";
        let merged = merge_serve(doc, &block("new")).unwrap();
        let json = Json::parse(&merged).unwrap();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some("x"));
        assert_eq!(
            json.get("serve")
                .and_then(|s| s.get("tag"))
                .and_then(Json::as_str),
            Some("new")
        );
    }

    #[test]
    fn merge_refuses_garbage_rather_than_clobbering_it() {
        assert!(merge_serve("not json at all", &block("a")).is_err());
    }

    #[test]
    fn percentile_is_standard_nearest_rank() {
        let sorted: Vec<u128> = (1..=100).collect();
        // rank = ceil(p/100 * n): p50 of 1..=100 is 50, not 51.
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn percentile_handles_duplicates_and_odd_counts() {
        let sorted: Vec<u128> = vec![1, 1, 1, 5, 5, 9, 9, 9, 9];
        assert_eq!(percentile(&sorted, 50.0), 5); // rank ceil(4.5) = 5
        assert_eq!(percentile(&sorted, 99.0), 9);
        assert_eq!(percentile(&sorted, 10.0), 1); // rank ceil(0.9) = 1
        let tiny: Vec<u128> = vec![3, 4];
        assert_eq!(percentile(&tiny, 50.0), 3);
        assert_eq!(percentile(&tiny, 51.0), 4);
    }

    #[test]
    fn merge_latencies_sorts_interleaved_clients_and_clamps_zeros() {
        // Two clients, each individually monotone, interleaved in wall
        // time — plus a timer-granularity zero that must clamp to 1ns.
        let merged = merge_latencies(vec![vec![10, 30, 50], vec![0, 20, 40]]);
        assert_eq!(merged, vec![1, 10, 20, 30, 40, 50]);
        assert_eq!(merge_latencies(vec![]), Vec::<u128>::new());
        // Percentiles over the merged set see the union, not one client.
        assert_eq!(percentile(&merged, 50.0), 20);
    }

    #[test]
    fn efficiency_is_speedup_per_worker() {
        let p = |workers: u64, rate: f64| Point {
            workers,
            clients: 4,
            steps: 1,
            wall_ns: 1,
            sessions_per_sec: rate,
            p50_us: 1.0,
            p99_us: 2.0,
        };
        // 4 workers at 3x the 1-worker rate: 75% efficient.
        let eff = efficiency(&p(4, 300.0), Some(100.0)).unwrap();
        assert!((eff - 0.75).abs() < 1e-12);
        let eff = efficiency(&p(1, 100.0), Some(100.0)).unwrap();
        assert!((eff - 1.0).abs() < 1e-12);
        assert!(efficiency(&p(2, 100.0), None).is_none());
    }
}
