//! Future-work study from §5 of the paper: stack-window physical depth
//! versus spill traffic and stall overhead, evaluated by stochastic means.

use disc_obs::{Json, RunReport};

fn main() {
    let calls = if std::env::args().any(|a| a == "--quick") {
        8_000
    } else {
        50_000
    };
    let table = disc_stoch::sweep_window_depth(calls, 11);
    println!("{table}");
    println!("(ctl = leaf-heavy control code, rec = recursion-heavy; {calls} calls)");
    // Cell cost here is measured in calls, not cycles, so the timing
    // section carries no cycle throughput.
    let report = RunReport::new("sweep_window")
        .section("scale", Json::obj([("calls", Json::U64(calls))]))
        .section("table", disc_bench::table_json(&table))
        .section("timing", disc_obs::timing_json(None));
    match report.write_under("results", "sweep_window") {
        Ok(path) => eprintln!("run report written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write run report: {e}"),
    }
}
