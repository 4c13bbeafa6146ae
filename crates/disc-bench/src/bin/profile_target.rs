//! Profiling harness: runs a single named workload hot for long enough
//! that a sampling profiler (`perf`, `gprofng`) gets a clean picture of
//! the simulator's dispatch loop, without the multi-workload mixing and
//! timing scaffolding of `bench_core`.
//!
//! Usage: `profile_target [workload] [cycles]` where `workload` is one of
//! `compute` (default), `branch`, `io` or `irq`, and `cycles` is the
//! total simulated cycle count (default 50 million). Built and driven by
//! `make profile`.

use disc_core::{Machine, MachineConfig};
use disc_isa::Program;

fn compute_program(streams: usize) -> Program {
    let mut src = String::new();
    for s in 0..streams {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    jmp l{s}\n"
        ));
    }
    Program::assemble(&src).expect("compute program assembles")
}

fn branch_program(streams: usize) -> Program {
    let mut src = String::new();
    for s in 0..streams {
        src.push_str(&format!(".stream {s}, l{s}\n"));
        src.push_str(&format!(
            "l{s}:\n    addi r0, r0, 1\n    cmpi r0, 4\n    jnz l{s}\n    ldi r0, 0\n    jmp l{s}\n"
        ));
    }
    Program::assemble(&src).expect("branch program assembles")
}

fn io_program() -> Program {
    Program::assemble(
        ".stream 0, a\n.stream 1, b\n\
         a: lui r0, 0x80\nla: ld r1, [r0]\n    st r1, [r0]\n    jmp la\n\
         b: ldi r0, 0\nlb: addi r0, r0, 1\n    jmp lb\n",
    )
    .expect("io program assembles")
}

fn irq_program(busy_streams: usize) -> Program {
    let mut src = String::new();
    for s in 0..busy_streams {
        src.push_str(&format!(".stream {s}, work{s}\n"));
        src.push_str(&format!(
            "work{s}:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work{s}\n"
        ));
    }
    src.push_str(".vector 3, 5, isr\n");
    src.push_str("isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n");
    Program::assemble(&src).expect("irq program assembles")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "compute".to_string());
    let cycles: u64 = args
        .next()
        .map(|c| c.parse().expect("cycles must be an integer"))
        .unwrap_or(50_000_000);

    let (program, streams) = match workload.as_str() {
        "compute" => (compute_program(4), 4),
        "branch" => (branch_program(4), 4),
        "io" => (io_program(), 2),
        "irq" => (irq_program(3), 4),
        other => {
            eprintln!("unknown workload {other:?} (want compute|branch|io|irq)");
            std::process::exit(2);
        }
    };
    let config = MachineConfig::disc1().with_streams(streams);
    let mut m = Machine::new(config, &program);
    if workload == "irq" {
        m.set_idle_exit(false);
        let mut c = 0;
        while c < cycles {
            m.raise_interrupt(3, 5);
            let chunk = 50.min(cycles - c);
            m.run(chunk).expect("irq run");
            c += chunk;
        }
    } else {
        m.run(cycles).expect("run");
    }
    let sb = m.superblock_stats();
    eprintln!(
        "{workload}: {} cycles, {} retired, {} bursts covering {} cycles ({:.1}% hit rate), {} entry rejects",
        m.stats().cycles,
        m.stats().retired_total(),
        sb.bursts,
        sb.burst_cycles,
        100.0 * sb.hit_rate(m.stats().cycles),
        sb.entry_rejects,
    );
    std::hint::black_box(m.stats().retired_total());
}
