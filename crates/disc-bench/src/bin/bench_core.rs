//! Simulator-throughput benchmark: how many simulated machine cycles per
//! wall-clock second the cycle-accurate DISC1 core sustains on five
//! representative workloads (compute-bound, branch-heavy, I/O-bound,
//! interrupt-heavy, and a quiescence-heavy timer idle loop).
//!
//! Every workload reports one rate through [`Machine::run`], next to the
//! share of its cycles that went through each execution path — slow
//! per-cycle steps, superblock bursts and event skips — and the recorded
//! seed-commit baseline. Pass `--smoke` for a fast schema-only run (used
//! by CI); smoke rates are not comparable to the full run, so the
//! baseline fields are `null` there. Pass `--check` to re-measure and
//! fail (exit 1) if any workload's rate drops more than 25% below the
//! committed `BENCH_core.json` baseline (override the path with
//! `--baseline <path>`); that is the CI perf-regression gate.
//!
//! `DISC_BENCH_REPS` and `DISC_BENCH_CYCLES` override the repetition
//! count and the simulated cycles per repetition (`make bench-check`
//! uses `DISC_BENCH_REPS=1` for a quick gate). Invalid values abort with
//! an error instead of being silently ignored.

use std::time::Instant;

use disc_bench::workloads::{
    branch_heavy_4s_config, branch_program, compute_bound_4s_config, compute_program,
    interrupt_heavy_3s_config, io_bound_2s_config, io_program, irq_program, timer_idle_1s_config,
    timer_idle_bus, timer_program,
};
use disc_core::Machine;

/// Simulated cycles per timed repetition (full mode).
const FULL_CYCLES: u64 = 2_000_000;
/// Simulated cycles per timed repetition (smoke mode).
const SMOKE_CYCLES: u64 = 5_000;
/// Timed repetitions per workload; the median is reported.
const REPS: usize = 3;
/// A `--check` run must sustain at least this fraction of the committed
/// baseline rate on every workload.
const CHECK_FLOOR: f64 = 0.75;

/// Throughput of the seed commit (pre predecode/allocation-free rework),
/// in simulated cycles per wall second. Measured with this same binary
/// built at the seed tree, full mode, on the reference container — see
/// EXPERIMENTS.md "Performance" for the procedure. `timer_idle_1s` has
/// no entry: the workload did not exist at the seed commit.
const SEED_BASELINE: &[(&str, f64)] = &[
    ("compute_bound_4s", SEED_COMPUTE),
    ("io_bound_2s", SEED_IO),
    ("interrupt_heavy_3s", SEED_IRQ),
];
const SEED_COMPUTE: f64 = 4_729_671.0;
const SEED_IO: f64 = 7_871_148.0;
const SEED_IRQ: f64 = 6_203_363.0;

struct Measurement {
    name: &'static str,
    description: &'static str,
    sim_cycles: u64,
    wall_ns: u128,
    /// Cycles covered by superblock bursts in one run.
    burst_cycles: u64,
    /// Cycles covered by event skips in one run.
    skipped_cycles: u64,
}

/// Simulated cycles per wall second. The duration is clamped to 1ns: a
/// degenerate zero-length timing (clock granularity on a tiny smoke run)
/// would otherwise produce `inf`/`NaN` rates that render as `null` in
/// `BENCH_core.json`.
fn per_second(sim_cycles: u64, wall_ns: u128) -> f64 {
    sim_cycles as f64 / (wall_ns.max(1) as f64 / 1e9)
}

impl Measurement {
    fn rate(&self) -> f64 {
        per_second(self.sim_cycles, self.wall_ns)
    }

    /// Shares of the simulated cycles spent in slow steps, bursts and
    /// skips; they sum to 1.
    fn path_shares(&self) -> [f64; 3] {
        let total = self.sim_cycles.max(1) as f64;
        let slow = self.sim_cycles - self.burst_cycles - self.skipped_cycles;
        [slow, self.burst_cycles, self.skipped_cycles].map(|c| c as f64 / total)
    }
}

/// Times `run` (which must simulate exactly `sim_cycles` cycles and hand
/// back the machine) over one warmup plus `reps` timed repetitions and
/// keeps the median; the path shares come from the warmup run.
fn measure(
    name: &'static str,
    description: &'static str,
    sim_cycles: u64,
    reps: usize,
    run: impl Fn(u64) -> Machine,
) -> Measurement {
    let warm = run(sim_cycles); // warmup
    assert_eq!(warm.stats().cycles, sim_cycles, "{name}: short run");
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let m = run(sim_cycles);
            let ns = t0.elapsed().as_nanos();
            std::hint::black_box(m.stats().retired_total());
            ns
        })
        .collect();
    times.sort_unstable();
    Measurement {
        name,
        description,
        sim_cycles,
        wall_ns: times[times.len() / 2],
        burst_cycles: warm.superblock_stats().burst_cycles,
        skipped_cycles: warm.skip_stats().cycles_skipped,
    }
}

fn bench_compute(cycles: u64, reps: usize) -> Measurement {
    let program = compute_program(4);
    measure(
        "compute_bound_4s",
        "4 streams of register arithmetic, no external bus traffic",
        cycles,
        reps,
        |n| {
            let mut m = Machine::new(compute_bound_4s_config(), &program);
            m.run(n).expect("compute run");
            m
        },
    )
}

fn bench_branch(cycles: u64, reps: usize) -> Measurement {
    let program = branch_program(4);
    measure(
        "branch_heavy_4s",
        "4 streams in tight count-to-4 loops, a taken branch every few ops",
        cycles,
        reps,
        |n| {
            let mut m = Machine::new(branch_heavy_4s_config(), &program);
            m.run(n).expect("branch run");
            m
        },
    )
}

fn bench_io(cycles: u64, reps: usize) -> Measurement {
    let program = io_program();
    measure(
        "io_bound_2s",
        "1 stream hammering external loads/stores + 1 compute stream",
        cycles,
        reps,
        |n| {
            let mut m = Machine::new(io_bound_2s_config(), &program);
            m.run(n).expect("io run");
            m
        },
    )
}

fn bench_irq(cycles: u64, reps: usize) -> Measurement {
    let program = irq_program(3);
    measure(
        "interrupt_heavy_3s",
        "3 busy streams + dormant server stream, interrupt raised every 50 cycles",
        cycles,
        reps,
        |n| {
            let mut m = Machine::new(interrupt_heavy_3s_config(), &program);
            m.set_idle_exit(false);
            let mut c = 0;
            while c < n {
                m.raise_interrupt(3, 5);
                let chunk = 50.min(n - c);
                m.run(chunk).expect("irq run");
                c += chunk;
            }
            m
        },
    )
}

fn bench_timer_idle(cycles: u64, reps: usize) -> Measurement {
    let program = timer_program();
    measure(
        "timer_idle_1s",
        "1 parked stream woken by a periodic timer every 1000 cycles (quiescence-heavy)",
        cycles,
        reps,
        |n| {
            let mut m =
                Machine::with_bus(timer_idle_1s_config(), &program, Box::new(timer_idle_bus()));
            m.set_idle_exit(false);
            m.run(n).expect("timer run");
            m
        },
    )
}

fn seed_rate(name: &str) -> Option<f64> {
    SEED_BASELINE
        .iter()
        .find(|(n, r)| *n == name && *r > 0.0)
        .map(|(_, r)| *r)
}

fn json_f64(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.1}"),
        _ => "null".to_string(),
    }
}

/// Reads a positive-integer environment override, aborting with a clear
/// error when the variable is set but not a positive integer.
fn env_override(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("bench_core: {name}={raw:?} is not a positive integer");
            std::process::exit(2);
        }
    }
}

/// Extracts the per-workload `(name, sim_cycles_per_sec)` rates from a
/// committed `BENCH_core.json`. The file is generated by this binary, so
/// a line-oriented scan of the stable formatting is sufficient.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\":"))?;
        Some(rest.trim().trim_end_matches(',').trim_matches('"').into())
    };
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        if let Some(v) = field(line, "name") {
            name = Some(v);
        } else if let Some(v) = field(line, "sim_cycles_per_sec") {
            if let (Some(n), Ok(rate)) = (name.take(), v.parse::<f64>()) {
                out.push((n, rate));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = arg_after("--out").unwrap_or_else(|| "BENCH_core.json".to_string());
    let baseline_path = arg_after("--baseline").unwrap_or_else(|| "BENCH_core.json".to_string());
    let reps = env_override("DISC_BENCH_REPS").map_or(REPS, |n| n as usize);
    let cycles =
        env_override("DISC_BENCH_CYCLES").unwrap_or(if smoke { SMOKE_CYCLES } else { FULL_CYCLES });

    eprintln!(
        "bench_core: {} mode, {cycles} simulated cycles x {reps} reps per workload",
        if check {
            "check"
        } else if smoke {
            "smoke"
        } else {
            "full"
        }
    );
    let runs = [
        bench_compute(cycles, reps),
        bench_branch(cycles, reps),
        bench_io(cycles, reps),
        bench_irq(cycles, reps),
        bench_timer_idle(cycles, reps),
    ];

    if check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(
            !baseline.is_empty(),
            "no workload rates found in {baseline_path}"
        );
        let mut failures: Vec<String> = Vec::new();
        for m in &runs {
            let rate = m.rate();
            let base = baseline.iter().find(|(n, _)| n == m.name).map(|&(_, r)| r);
            let Some(base) = base else {
                eprintln!(
                    "  {:<22} {rate:>12.0} sim cycles/s  (no baseline, skipped)",
                    m.name
                );
                continue;
            };
            let delta_pct = (rate / base - 1.0) * 100.0;
            let ok = rate / base >= CHECK_FLOOR;
            eprintln!(
                "  {:<22} {rate:>12.0} sim cycles/s  ({delta_pct:+.1}% vs baseline {base:.0}) {}",
                m.name,
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!(
                    "{}: {delta_pct:+.1}% ({rate:.0} vs baseline {base:.0})",
                    m.name
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!(
                "bench_core: throughput regression: workload(s) fell below {:.0}% of {baseline_path}:",
                CHECK_FLOOR * 100.0
            );
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench_core: all workloads within {:.0}% of baseline",
            CHECK_FLOOR * 100.0
        );
        return;
    }

    let mut entries = Vec::new();
    for m in &runs {
        let rate = m.rate();
        let [slow, burst, skip] = m.path_shares();
        // Smoke runs are too short to compare against the recorded
        // full-mode baseline.
        let seed = if smoke { None } else { seed_rate(m.name) };
        let speedup = seed.map(|s| rate / s);
        eprintln!(
            "  {:<22} {:>12.0} sim cycles/s  slow {:>5.1}%  burst {:>5.1}%  skip {:>5.1}%{}",
            m.name,
            rate,
            slow * 100.0,
            burst * 100.0,
            skip * 100.0,
            speedup
                .map(|s| format!("  ({s:.2}x vs seed)"))
                .unwrap_or_default()
        );
        entries.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"description\": \"{}\",\n      \
             \"sim_cycles\": {},\n      \"wall_ns\": {},\n      \
             \"sim_cycles_per_sec\": {},\n      \
             \"slow_step_cycle_frac\": {slow:.4},\n      \"burst_cycle_frac\": {burst:.4},\n      \
             \"skip_cycle_frac\": {skip:.4},\n      \
             \"seed_sim_cycles_per_sec\": {},\n      \"speedup_vs_seed\": {}\n    }}",
            m.name,
            m.description,
            m.sim_cycles,
            m.wall_ns,
            json_f64(Some(rate)),
            json_f64(seed),
            speedup
                .filter(|s| s.is_finite())
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "null".to_string()),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"disc-bench-core/v4\",\n  \"mode\": \"{}\",\n  \
         \"cycles_per_run\": {},\n  \"reps\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cycles,
        reps,
        entries.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark json");
    eprintln!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degenerate(sim_cycles: u64) -> Measurement {
        Measurement {
            name: "degenerate",
            description: "a run the clock could not resolve",
            sim_cycles,
            wall_ns: 0,
            burst_cycles: 0,
            skipped_cycles: 0,
        }
    }

    #[test]
    fn zero_duration_rates_stay_finite_and_render_as_numbers() {
        let m = degenerate(1_000);
        assert!(m.rate().is_finite() && m.rate() > 0.0, "{}", m.rate());
        assert_ne!(json_f64(Some(m.rate())), "null");
    }

    #[test]
    fn path_shares_sum_to_one() {
        let m = Measurement {
            burst_cycles: 600,
            skipped_cycles: 100,
            ..degenerate(1_000)
        };
        assert_eq!(m.path_shares(), [0.3, 0.6, 0.1]);
        assert_eq!(degenerate(0).path_shares(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_cycles_in_zero_time_is_zero_not_nan() {
        let m = degenerate(0);
        assert_eq!(m.rate(), 0.0);
        assert_eq!(json_f64(Some(m.rate())), "0.0");
    }

    #[test]
    fn json_f64_still_nulls_genuinely_non_finite_values() {
        assert_eq!(json_f64(Some(f64::NAN)), "null");
        assert_eq!(json_f64(Some(f64::INFINITY)), "null");
        assert_eq!(json_f64(None), "null");
    }
}
