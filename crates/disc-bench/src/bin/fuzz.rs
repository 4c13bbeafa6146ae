//! Differential fuzzer: random DISC1 programs on the cycle-accurate
//! machine vs the `disc-ref` golden-reference interpreter.
//!
//! ```text
//! cargo run --release -p disc-bench --bin fuzz -- --seed 0 --count 1000
//! ```
//!
//! Runs the checked-in regression corpus first, then `count` fresh seeds
//! starting at `seed`, fanned out over `DISC_JOBS` workers. On any
//! divergence the failing program is minimized and its listing printed;
//! exit status 1 signals failure so CI can gate on it.

use std::path::PathBuf;
use std::process::exit;

use disc_bench::fuzz::{
    self, generate, minimize, run_campaign, run_campaign_forked, sparse_listing,
};

fn parse_u64(name: &str, value: &str) -> u64 {
    let parsed = if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        value.parse()
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("fuzz: invalid value for {name}: {value}");
        exit(2);
    })
}

/// Parses a regression-corpus file: one seed per line, `#` comments and
/// blank lines ignored, `0x` hex accepted.
fn parse_corpus(path: &PathBuf) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("fuzz: cannot read corpus {}", path.display());
        exit(2);
    };
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| parse_u64("corpus seed", l))
        .collect()
}

fn default_corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/regressions.txt")
}

fn default_artifacts() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/artifacts")
}

fn main() {
    let mut seed: u64 = 0;
    let mut count: u64 = 1000;
    let mut corpus = Some(default_corpus());
    let mut minimize_failures = true;
    let mut fork = false;
    let mut artifacts = default_artifacts();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = parse_u64("--seed", &v);
            }
            "--count" => {
                let v = args.next().unwrap_or_default();
                count = parse_u64("--count", &v);
            }
            "--corpus" => {
                let v = args.next().unwrap_or_default();
                corpus = Some(PathBuf::from(v));
            }
            "--no-corpus" => corpus = None,
            "--no-minimize" => minimize_failures = false,
            "--fork" => fork = true,
            "--artifacts" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("fuzz: --artifacts needs a directory");
                    exit(2);
                }
                artifacts = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed N] [--count N] [--corpus PATH | --no-corpus] \
                     [--no-minimize] [--fork] [--artifacts DIR]\n\
                     \n\
                     Differential fuzzing of disc-core against disc-ref.\n\
                     \n\
                     --seed N        first generated seed (default 0; 0x hex ok)\n\
                     --count N       number of fresh seeds to run (default 1000)\n\
                     --corpus PATH   regression seed file (default: crate's fuzz/regressions.txt)\n\
                     --no-corpus     skip the regression corpus\n\
                     --no-minimize   report divergences without shrinking them\n\
                     --fork          fork-based coverage: warm up once per seed, snapshot,\n\
                     \u{20}               fork run_reference and run from the warm point;\n\
                     \u{20}               failures leave crash artifacts\n\
                     --artifacts DIR where --fork writes crash artifacts\n\
                     \u{20}               (default: crate's fuzz/artifacts/)\n\
                     \n\
                     Parallelism follows DISC_JOBS (default: all cores)."
                );
                return;
            }
            other => {
                eprintln!("fuzz: unknown argument {other} (try --help)");
                exit(2);
            }
        }
    }

    let corpus_seeds = corpus.as_ref().map(parse_corpus).unwrap_or_default();
    if !corpus_seeds.is_empty() {
        println!(
            "fuzz: corpus {} seeds, then {count} seeds from {seed:#x}",
            corpus_seeds.len()
        );
    } else {
        println!("fuzz: {count} seeds from {seed:#x}");
    }

    let report = if fork {
        run_campaign_forked(&corpus_seeds, seed, count, Some(&artifacts))
    } else {
        run_campaign(&corpus_seeds, seed, count)
    };
    println!(
        "fuzz: {} programs, {} reference instructions, {} divergences{}",
        report.programs,
        report.instructions,
        report.divergences.len(),
        if fork { " (fork mode)" } else { "" }
    );

    if report.passed() {
        return;
    }
    for div in &report.divergences {
        eprint!("{div}");
        // Fork-mode failures already carry a replayable artifact; the
        // nop-out minimizer runs the non-fork comparison, which may not
        // reproduce a mode-specific divergence, so skip it there.
        if minimize_failures && !fork {
            let gp = generate(div.seed);
            let min = minimize(&gp);
            match fuzz::compare(&min) {
                Err(final_div) => {
                    eprintln!("  minimized program ({} streams):", min.streams);
                    for line in sparse_listing(&min.program).lines() {
                        eprintln!("    {line}");
                    }
                    for d in &final_div.details {
                        eprintln!("    still differs: {d}");
                    }
                }
                Ok(_) => eprintln!(
                    "  (divergence not stable under re-run; seed {:#x})",
                    div.seed
                ),
            }
        }
        eprintln!(
            "  reproduce: cargo run -p disc-bench --bin fuzz -- {}--no-corpus --seed {:#x} --count 1",
            if fork { "--fork " } else { "" },
            div.seed
        );
    }
    exit(1);
}
