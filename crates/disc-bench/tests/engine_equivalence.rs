//! One table-driven equivalence harness for the simulator's single
//! engine. `Machine::run` takes an event skip whenever the machine is
//! provably quiescent and runs hazard-frozen stretches as superblock
//! bursts; `Machine::run_reference` steps every cycle. Both must be
//! architecturally indistinguishable.
//!
//! Every scenario — hand-built workloads aimed at the skip and burst
//! boundaries, every committed board under `boards/`, and generated
//! fuzz-corpus programs — is swept across
//! {`run_reference`, `run`} × {one-shot, chunked, snapshot-split}:
//!
//! * within one loop, a run cut into odd-sized chunks and a run split by
//!   a snapshot/restore cycle at ~40% of the horizon must both end in the
//!   *same final snapshot bytes* as the uninterrupted run (diagnostic
//!   counters included), and restore must be byte-stable;
//! * across loops, the final architectural state — every stream context,
//!   globals, internal memory, `MachineStats` with the per-stream cycle
//!   attribution bucket for bucket — must be identical, and the reference
//!   loop must never skip or burst;
//! * a sampling-sink column reruns each scenario with a `WireSink` (the
//!   session server's streaming wrapper around `SamplingSink`) attached:
//!   the streamed sample bytes must match across loops, and the
//!   `RunReport` (and so its fingerprint) must be identical with and
//!   without the sink, so how a sink's window edges split skips can never
//!   leak into a report.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use disc_bench::fuzz::{compare, generate, RunLoop, LOOPS};
use disc_bench::workloads;
use disc_board::Board;
use disc_bus::{
    BlockStorage, DmaEngine, ExtRam, PacketPort, PeripheralBus, Shared, Timer, Uart, Watchdog,
};
use disc_core::{BusFaultPolicy, Exit, Machine, MachineConfig, SchedulePolicy, SimError};
use disc_faults::{AddrRange, FaultInjector, FaultPlan, FaultWindow};
use disc_isa::{Program, Reg};
use disc_obs::{config_json, stats_json, JsonlSink, RunReport, WireSink};
use disc_rts::soak;

/// Largest `run` call of the chunked column: a prime, so chunk edges
/// land at irregular cycles inside skips and bursts.
const CHUNK: u64 = 997;

/// Sampling window of the sink column.
const SAMPLE_EVERY: u64 = 64;

/// Which fast path a scenario must engage under `run` — otherwise it
/// proves nothing about that path.
#[derive(Clone, Copy)]
struct Expect {
    skips: bool,
    bursts: bool,
}

const NONE: Expect = Expect {
    skips: false,
    bursts: false,
};
const SKIPS: Expect = Expect {
    skips: true,
    bursts: false,
};
const BURSTS: Expect = Expect {
    skips: false,
    bursts: true,
};

struct Scenario {
    name: String,
    horizon: u64,
    /// `(cycle, stream, bit)` interrupts raised when the machine reaches
    /// each cycle.
    irqs: Vec<(u64, usize, u8)>,
    expect: Expect,
    build: Box<dyn Fn() -> Machine>,
    /// Extra assertion on the final one-shot machine of each loop.
    after: Option<fn(&Machine)>,
}

fn scenario(
    name: &str,
    horizon: u64,
    expect: Expect,
    build: impl Fn() -> Machine + 'static,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        horizon,
        irqs: Vec::new(),
        expect,
        build: Box::new(build),
        after: None,
    }
}

impl Scenario {
    fn irqs(mut self, irqs: Vec<(u64, usize, u8)>) -> Self {
        self.irqs = irqs;
        self
    }

    fn after(mut self, check: fn(&Machine)) -> Self {
        self.after = Some(check);
        self
    }
}

/// An interrupt on (`stream`, `bit`) every `every` cycles, from `first`
/// up to (not including) `until`.
fn periodic_irqs(
    first: u64,
    every: u64,
    until: u64,
    stream: usize,
    bit: u8,
) -> Vec<(u64, usize, u8)> {
    (first..until)
        .step_by(every as usize)
        .map(|c| (c, stream, bit))
        .collect()
}

/// Advances `m` with `run` to absolute cycle `target` in calls of at most
/// `chunk` cycles, raising each interrupt exactly when the machine
/// reaches its cycle. Stops early (and for good) once the machine halts,
/// breaks or parks idle, and returns that exit.
fn drive(
    m: &mut Machine,
    run: RunLoop,
    target: u64,
    irqs: &[(u64, usize, u8)],
    chunk: u64,
) -> Exit {
    loop {
        let now = m.cycle();
        if now >= target {
            return Exit::CycleLimit;
        }
        for &(cycle, stream, bit) in irqs {
            if cycle == now {
                m.raise_interrupt(stream, bit);
            }
        }
        let next = irqs
            .iter()
            .map(|&(cycle, _, _)| cycle)
            .filter(|&cycle| cycle > now && cycle < target)
            .min()
            .unwrap_or(target)
            .min(now.saturating_add(chunk));
        match run(m, next - now).expect("drive run") {
            Exit::CycleLimit => {}
            exit => return exit,
        }
    }
}

/// Every architecturally visible fact about a machine, one per line, so
/// a mismatch names the first field that differs.
fn arch_state(m: &Machine) -> Vec<String> {
    let mut out = vec![
        format!("config {}", config_json(m.config()).render()),
        format!("stats {}", stats_json(m.stats()).render()),
        format!("grants {:?}", m.scheduler_grants()),
    ];
    for s in 0..m.stream_count() {
        let st = m.stream(s);
        out.push(format!(
            "stream {s}: pc {} ir {} mr {} flags {} service {:?} awp {} sp {}",
            st.pc(),
            st.ir(),
            st.mr(),
            st.flags().to_word(),
            (st.service_depth(), st.service_level()),
            st.window().awp(),
            m.reg(s, Reg::Sp),
        ));
        let window: Vec<u16> = (0..st.window().max_depth())
            .map(|slot| st.window().read_slot(slot))
            .collect();
        out.push(format!("stream {s} window {window:?}"));
    }
    let globals: Vec<u16> = (0..disc_isa::GLOBAL_REGS).map(|g| m.global(g)).collect();
    out.push(format!("globals {globals:?}"));
    let internal: Vec<u16> = (0..m.config().internal_words as u16)
        .map(|a| m.internal_memory().read(a))
        .collect();
    out.push(format!("internal {internal:?}"));
    out
}

fn assert_same_lines(label: &str, expected: &[String], got: &[String]) {
    for (a, b) in expected.iter().zip(got) {
        assert_eq!(a, b, "{label}: diverges");
    }
    assert_eq!(expected.len(), got.len(), "{label}: shape diverges");
}

/// Runs one scenario through the whole matrix.
fn check(s: &Scenario) {
    let mut expected: Option<(Exit, Vec<String>)> = None;
    let mut reports: Vec<String> = Vec::new();
    let mut sample_streams: Vec<Vec<u8>> = Vec::new();
    for (loop_name, run) in LOOPS {
        let tag = format!("{} [{loop_name}]", s.name);

        let mut oneshot = (s.build)();
        let exit = drive(&mut oneshot, run, s.horizon, &s.irqs, u64::MAX);
        let final_blob = oneshot.snapshot();
        oneshot
            .stats()
            .attribution
            .check(oneshot.stats().cycles)
            .unwrap_or_else(|e| panic!("{tag}: attribution unbalanced: {e:?}"));
        if let Some(after) = s.after {
            after(&oneshot);
        }

        let mut chunked = (s.build)();
        drive(&mut chunked, run, s.horizon, &s.irqs, CHUNK);
        assert!(
            chunked.snapshot() == final_blob,
            "{tag}: chunked run diverged from the one-shot run"
        );

        let mut split = (s.build)();
        drive(&mut split, run, s.horizon * 2 / 5, &s.irqs, u64::MAX);
        let mid_blob = split.snapshot();
        let mut restored = (s.build)();
        restored
            .restore(&mid_blob)
            .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));
        assert!(
            restored.snapshot() == mid_blob,
            "{tag}: restore is not byte-stable"
        );
        drive(&mut split, run, s.horizon, &s.irqs, u64::MAX);
        drive(&mut restored, run, s.horizon, &s.irqs, u64::MAX);
        assert!(
            split.snapshot() == final_blob,
            "{tag}: split run diverged from the one-shot run"
        );
        assert!(
            restored.snapshot() == final_blob,
            "{tag}: restored run diverged from the one-shot run"
        );

        let sb = *oneshot.superblock_stats();
        let skip = *oneshot.skip_stats();
        if loop_name == "run_reference" {
            assert_eq!(sb, Default::default(), "{tag}: the reference loop burst");
            assert_eq!(
                skip,
                Default::default(),
                "{tag}: the reference loop skipped"
            );
        } else {
            if s.expect.skips {
                assert!(skip.skips > 0, "{tag}: event skip never engaged");
                assert!(skip.cycles_skipped >= skip.skips, "{tag}: skip bookkeeping");
            }
            if s.expect.bursts {
                assert!(sb.bursts > 0, "{tag}: superblock bursts never engaged");
                assert!(sb.burst_cycles >= sb.bursts, "{tag}: burst bookkeeping");
                let issues: u64 = oneshot.stats().attribution.issue.iter().sum();
                assert!(
                    sb.burst_issues <= issues,
                    "{tag}: more burst issues than issues"
                );
            }
        }

        let state = arch_state(&oneshot);
        match &expected {
            None => expected = Some((exit, state)),
            Some((ref_exit, ref_state)) => {
                assert_eq!(exit, *ref_exit, "{tag}: exit diverges from run_reference");
                assert_same_lines(&tag, ref_state, &state);
            }
        }
        reports.push(RunReport::from_machine("harness", &oneshot).render());

        // Sampling-sink column.
        let wire = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mut sampled = (s.build)();
        sampled.set_trace_sink(Box::new(WireSink::new(wire.clone(), 7, SAMPLE_EVERY)));
        drive(&mut sampled, run, s.horizon, &s.irqs, u64::MAX);
        if s.expect.bursts && loop_name == "run" {
            assert!(
                sampled.superblock_stats().bursts > 0,
                "{tag}: a boundary-sampling sink must bound bursts, not pin them off"
            );
        }
        reports.push(RunReport::from_machine("harness", &sampled).render());
        let mut sink = sampled
            .take_trace_sink()
            .unwrap()
            .into_any()
            .downcast::<WireSink<Vec<u8>>>()
            .unwrap();
        assert!(sink.take_error().is_none(), "{tag}: sink write error");
        drop(sink);
        sample_streams.push(wire.lock().unwrap().clone());
    }
    for r in &reports[1..] {
        assert_eq!(
            r, &reports[0],
            "{}: run reports differ across loops or with the sampling sink",
            s.name
        );
    }
    assert!(
        sample_streams[0] == sample_streams[1],
        "{}: streamed samples differ across loops",
        s.name
    );
}

// ---- hand-built scenarios --------------------------------------------

fn assemble(src: &str) -> Program {
    Program::assemble(src).unwrap_or_else(|e| panic!("scenario program assembles: {e}"))
}

fn parked(mut m: Machine) -> Machine {
    m.set_idle_exit(false);
    m
}

fn bus_machine(config: MachineConfig, program: &Program, bus: PeripheralBus) -> Machine {
    Machine::with_bus(config, program, Box::new(bus))
}

/// A stream hammering a device that a fault plan wedges between cycle
/// 2_000 and `stuck_until`; only the `Fault` policy's ABI timeout frees
/// it, so the run alternates quiescent waits with recovery work.
fn stuck_peripheral(name: &str, program: &str, stuck_until: u64, expect: Expect) -> Scenario {
    let program = assemble(program);
    scenario(name, 20_000, expect, move || {
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 16, Box::new(ExtRam::new(16, 3)))
            .expect("map device ram");
        let plan = FaultPlan::new(0xbad).stuck(
            AddrRange::new(0x8000, 0x800f),
            FaultWindow::between(2_000, stuck_until),
        );
        let config = MachineConfig::disc1()
            .with_streams(1)
            .with_bus_fault(BusFaultPolicy::Fault)
            .with_abi_timeout(64);
        Machine::with_bus(
            config,
            &program,
            Box::new(FaultInjector::new(plan, Box::new(bus))),
        )
    })
}

const STUCK_SRC: &str = ".stream 0, a\n\
    a: lui r0, 0x80\nla: ld r1, [r0]\n    st r1, [r0]\n    jmp la\n";

/// `n` lines `addi rI, rI, 1` over registers r0, r1, ...
fn increments(n: usize) -> String {
    (0..n)
        .map(|r| format!("    addi r{r}, r{r}, 1\n"))
        .collect()
}

/// A DMA engine as a second bus master while one stream polls DONE and
/// reads the destination back, next to a compute stream of `work_addis`
/// increments per loop.
fn dma(name: &str, work_addis: usize, horizon: u64) -> Scenario {
    let work = increments(work_addis);
    let program = assemble(&format!(
        r#"
        .stream 0, main
        .stream 1, work
        .vector 1, 5, isr
    main:
        li r0, 0x9000      ; dma register file
        li r1, 0x8000      ; source buffer
        ldi r2, 55
        st r2, [r1]
        addi r2, r2, 1
        st r2, [r1 + 1]
        st r1, [r0]        ; SRC
        li r2, 0x8020
        st r2, [r0 + 1]    ; DST
        ldi r2, 2
        st r2, [r0 + 2]    ; COUNT
        ldi r2, 1
        st r2, [r0 + 3]    ; CTRL: kick
    poll:
        ld r3, [r0 + 4]    ; DONE counter
        ld r4, [r1 + 32]   ; destination readback, contends with the engine
        jmp poll
    work:
{work}        jmp work
    isr:
        lda r0, 0x40
        addi r0, r0, 1
        sta r0, 0x40
        reti
    "#
    ));
    scenario(name, horizon, NONE, move || {
        let engine = Shared::new(DmaEngine::new(6).with_stall(2).with_irq(1, 5));
        let mut bus = PeripheralBus::new();
        bus.map(0x8000, 0x100, Box::new(ExtRam::new(0x100, 2)))
            .expect("map ram");
        bus.map_dma(0x9000, &engine).expect("map dma");
        bus_machine(MachineConfig::disc1().with_streams(2), &program, bus)
    })
}

/// Block-storage commit/readback with multi-cycle op latencies and a
/// busy-poll on STATUS, optionally next to a compute stream of
/// `work_addis` increments per loop.
fn storage(name: &str, work_addis: Option<usize>, horizon: u64) -> Scenario {
    let (head, work) = match work_addis {
        Some(n) => (
            ".stream 1, work\n",
            format!("work:\n{}    jmp work\n", increments(n)),
        ),
        None => ("", String::new()),
    };
    let program = assemble(&format!(
        r#"
        .stream 0, log
        {head}
    log:
        li r0, 0x9100      ; storage register file
        ldi r1, 0
        st r1, [r0 + 3]    ; PTR = 0
        ldi r2, 7
        st r2, [r0 + 4]    ; DATA (auto-incrementing)
        ldi r2, 1
        st r2, [r0 + 2]    ; LBA = 1
        ldi r2, 2
        st r2, [r0]        ; CMD: write block
    wait_w:
        ld r3, [r0 + 1]    ; STATUS
        cmpi r3, 0
        jnz wait_w
        ldi r2, 1
        st r2, [r0]        ; CMD: read block back
    wait_r:
        ld r3, [r0 + 1]
        cmpi r3, 0
        jnz wait_r
        jmp log
{work}
    "#
    ));
    let streams = if work_addis.is_some() { 2 } else { 1 };
    scenario(name, horizon, NONE, move || {
        let mut bus = PeripheralBus::new();
        bus.map(
            0x9100,
            BlockStorage::REGS,
            Box::new(BlockStorage::new(4, 8, 24, 36)),
        )
        .expect("map storage");
        bus_machine(MachineConfig::disc1().with_streams(streams), &program, bus)
    })
}

/// Seeded Poisson packet arrivals vectored into `program`'s handler.
fn packets(name: &str, program: &str, horizon: u64, idle: bool, expect: Expect) -> Scenario {
    let program = assemble(program);
    scenario(name, horizon, expect, move || {
        let port = PacketPort::new(7, 40, 1.5).with_capacity(8).with_irq(0, 5);
        let mut bus = PeripheralBus::new();
        bus.map(0x9200, PacketPort::REGS, Box::new(port))
            .expect("map packet port");
        let m = bus_machine(MachineConfig::disc1().with_streams(1), &program, bus);
        if idle {
            parked(m)
        } else {
            m
        }
    })
}

/// A single stream under a periodic timer vectored to a counting
/// handler; `program` decides whether the stream parks or computes.
fn timer(name: &str, program: &str, period: u32, horizon: u64, expect: Expect) -> Scenario {
    let program = assemble(program);
    scenario(name, horizon, expect, move || {
        let mut bus = PeripheralBus::new();
        bus.map(0x9000, Timer::REGS, Box::new(Timer::periodic(period, 0, 5)))
            .expect("map timer");
        parked(bus_machine(
            MachineConfig::disc1().with_streams(1),
            &program,
            bus,
        ))
    })
}

const COUNTING_ISR: &str =
    "isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n";

fn idle_src(isr: &str) -> String {
    format!(".stream 0, idle\n.vector 0, 5, isr\nidle:\n    stop\n{isr}")
}

fn work_src(isr: &str) -> String {
    format!(
        ".stream 0, work\n.vector 0, 5, isr\n\
         work:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work\n{isr}"
    )
}

fn uart_storm_program() -> Program {
    assemble(
        r#"
        .stream 0, main
        .stream 1, idle
        .vector 1, 5, echo
    main:
        stop
    idle:
        stop
    echo:
        lui r1, 0xb0        ; uart at 0xb000
        ld  r0, [r1]        ; pop RX (30-cycle word time)
        st  r0, [r1]        ; push TX (30 more)
        reti
    "#,
    )
}

/// An IRQ storm against a bounded 4-word UART RX FIFO: words arrive
/// every 5 cycles but each echo costs ~60 cycles of bus time, so the
/// FIFO must overflow. Returns the UART handle for inspection.
fn uart_storm_machine(program: &Program) -> (Machine, Shared<Uart>) {
    let uart = Shared::new(Uart::new(30).with_irq(1, 5).with_rx_capacity(4));
    uart.borrow_mut().feed(5, (1..=40).collect::<Vec<u16>>());
    let mut bus = PeripheralBus::new();
    bus.map(0xb000, Uart::REGS, Box::new(uart.handle()))
        .expect("map uart");
    let m = parked(bus_machine(
        MachineConfig::disc1().with_streams(2),
        program,
        bus,
    ));
    (m, uart)
}

fn hand_built() -> Vec<Scenario> {
    let io = workloads::io_program();
    let compute4 = workloads::compute_program(4);
    let branch4 = workloads::branch_program(4);
    let irq = workloads::irq_program(3);
    let uart = uart_storm_program();
    let fig_3_2 = assemble(".stream 0, l\nl:\n    addi r0, r0, 1\n    jmp l\n");
    let fig_3_3 = assemble(
        &(0..4)
            .map(|s| format!(".stream {s}, l{s}\nl{s}:\n{}    jmp l{s}\n", increments(6)))
            .collect::<String>(),
    );
    // Call/window traffic in a loop, so window-stack state is mid-flight
    // at every cut (the figure's own program halts too early).
    let fig_3_4 = assemble(
        r#"
        .stream 0, main
    main:
        ldi r0, 7
    again:
        call f
        sta r0, 0x10
        jmp again
    f:
        winc 2
        ldi r0, 100
        ldi r1, 200
        call g
        wdec 2
        ret
    g:
        addi r1, r1, 0
        ret
    "#,
    );
    // `winc` is not burst-safe, so every block over the addi stretches
    // ends at a `winc` fetch — and with a shallow window file that same
    // `winc`'s AWP motion is what spills.
    let spill = assemble(
        ".stream 0, main\n\
         main:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n\
         \x20   winc 4\n    addi r0, r0, 1\n    addi r1, r1, 1\n    winc 4\n\
         \x20   addi r0, r0, 1\n    addi r1, r1, 1\n    winc 4\n\
         \x20   addi r0, r0, 1\n    wdec 4\n    wdec 4\n    wdec 4\n    jmp main\n",
    );
    let watchdog = assemble(&idle_src(
        "isr:\n    ldi r0, 1\n    lui r1, 0x90\n    st r0, [r1]\n    reti\n",
    ));
    let packet_isr = "isr:\n    lui r1, 0x92\n    ld r2, [r1]\n    ld r3, [r1 + 1]\n";
    vec![
        scenario("io_bound_2s", 50_000, NONE, move || {
            Machine::new(MachineConfig::disc1().with_streams(2), &io)
        }),
        {
            let irq = irq.clone();
            scenario("interrupt_heavy_3s", 20_000, NONE, move || {
                parked(Machine::new(MachineConfig::disc1(), &irq))
            })
            .irqs(periodic_irqs(0, 50, 20_000, 3, 5))
        },
        // A pending vector rejects burst entry, so interrupt-free spans
        // are where blocks form and each raise cuts into one.
        scenario("interrupt_mid_run", 20_000, BURSTS, move || {
            parked(Machine::new(MachineConfig::disc1(), &irq))
        })
        .irqs(periodic_irqs(0, 200, 20_000, 3, 5)),
        timer(
            "timer_idle",
            &idle_src(COUNTING_ISR),
            1_000,
            60_000,
            SKIPS,
        ),
        // The burst limit itself (the bus `next_event` horizon) must stop
        // each block at the peripheral-raised interrupt.
        timer(
            "timer_interrupt_inside_run",
            &work_src(COUNTING_ISR),
            700,
            40_000,
            BURSTS,
        ),
        stuck_peripheral("stuck_peripheral", STUCK_SRC, 8_000, SKIPS),
        // The 40% cut (cycle 8_000) lands inside the stuck window.
        stuck_peripheral("stuck_peripheral_cut_inside", STUCK_SRC, 9_000, SKIPS),
        // The wedge opens inside what would be a block.
        stuck_peripheral(
            "fault_plan_window_inside_block",
            ".stream 0, a\n\
             a: lui r0, 0x80\nla: addi r1, r1, 1\n    addi r2, r2, 1\n    ld r3, [r0]\n    jmp la\n",
            8_000,
            BURSTS,
        ),
        scenario("watchdog_bite", 30_000, SKIPS, move || {
            let mut bus = PeripheralBus::new();
            bus.map(0x9000, Watchdog::REGS, Box::new(Watchdog::new(500, 0, 7)))
                .expect("map watchdog");
            parked(bus_machine(
                MachineConfig::disc1().with_streams(1),
                &watchdog,
                bus,
            ))
        }),
        scenario("uart_storm", 3_000, SKIPS, move || {
            uart_storm_machine(&uart).0
        }),
        dma("dma_contention", 1, 20_000),
        dma("dma_master_traffic", 2, 20_000),
        dma("dma_transfer_cut_mid_transfer", 1, 6_000),
        storage("storage_busy_poll", Some(1), 20_000),
        storage("storage_commit_readback", Some(2), 20_000),
        storage("storage_busy_window", None, 6_000),
        packets(
            "packet_parked",
            &idle_src(&format!(
                "{packet_isr}    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n"
            )),
            30_000,
            true,
            SKIPS,
        ),
        packets(
            "packet_sampler",
            &idle_src(&format!("{packet_isr}    reti\n")),
            10_000,
            true,
            SKIPS,
        ),
        packets(
            "packet_arrivals_cut_bursts",
            &work_src(&format!("{packet_isr}    reti\n")),
            30_000,
            false,
            BURSTS,
        ),
        scenario("compute_bound_4s", 50_000, BURSTS, move || {
            Machine::new(MachineConfig::disc1().with_streams(4), &compute4)
        }),
        scenario("branch_heavy_4s", 50_000, BURSTS, move || {
            Machine::new(MachineConfig::disc1().with_streams(4), &branch4)
        }),
        scenario("spill_at_block_end", 30_000, BURSTS, move || {
            // A window file barely deeper than one visible window: the
            // winc ladder crosses the spill threshold every iteration.
            let config = MachineConfig::disc1()
                .with_streams(1)
                .with_window_depth(12);
            Machine::new(config, &spill)
        })
        .after(|m| assert!(m.stats().spill_stall_cycles[0] > 0, "never spilled")),
        scenario("fig_3_1_interleaved_pipeline", 4_000, BURSTS, move || {
            let config = MachineConfig::disc1()
                .with_streams(5)
                .with_pipeline_depth(5)
                .with_schedule(SchedulePolicy::Sequence(vec![0, 1, 2, 3, 4]));
            Machine::new(config, &workloads::compute_program(5))
        }),
        // One resident stream: every taken jump flushes its own slots.
        scenario("fig_3_2_jump_flush", 4_000, NONE, move || {
            Machine::new(MachineConfig::disc1().with_streams(1), &fig_3_2)
        }),
        scenario("fig_3_3_dynamic_partition", 6_000, BURSTS, move || {
            let config = MachineConfig::disc1()
                .with_schedule(SchedulePolicy::partitioned(&[8, 3, 3, 2]));
            Machine::new(config, &fig_3_3)
        }),
        scenario("fig_3_4_stack_window", 4_000, NONE, move || {
            Machine::new(MachineConfig::disc1(), &fig_3_4)
        }),
    ]
}

fn check_named(prefix: &str) {
    let all = hand_built();
    let picked: Vec<&Scenario> = all.iter().filter(|s| s.name.starts_with(prefix)).collect();
    assert!(!picked.is_empty(), "no scenario named {prefix}*");
    for s in picked {
        check(s);
    }
}

#[test]
fn bench_workloads() {
    for name in [
        "io_bound_2s",
        "interrupt_heavy_3s",
        "compute_bound_4s",
        "branch_heavy_4s",
    ] {
        check_named(name);
    }
}

#[test]
fn interrupt_boundaries() {
    check_named("interrupt_mid_run");
    check_named("timer_");
    check_named("watchdog_bite");
}

#[test]
fn faulted_peripherals() {
    check_named("stuck_peripheral");
    check_named("fault_plan_window_inside_block");
}

#[test]
fn bus_masters_and_devices() {
    check_named("uart_storm");
    check_named("dma_");
    check_named("storage_");
    check_named("packet_");
}

#[test]
fn window_spill_and_figures() {
    check_named("spill_at_block_end");
    check_named("fig_");
}

// ---- boards ----------------------------------------------------------

fn board_scenario(name: &str, horizon: u64, expect: Expect) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../boards")
        .join(format!("{name}.board"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let board = Board::parse(&text).unwrap_or_else(|e| panic!("{name}.board parses: {e}"));
    scenario(&format!("{name}.board"), horizon, expect, move || {
        board.machine().expect("board builds")
    })
}

#[test]
fn every_committed_board() {
    let boards = [
        board_scenario("compute_bound_4s", 6_000, BURSTS),
        board_scenario("branch_heavy_4s", 6_000, BURSTS),
        board_scenario("io_bound_2s", 10_000, NONE),
        board_scenario("interrupt_heavy_3s", 8_000, NONE).irqs(periodic_irqs(50, 50, 8_000, 3, 5)),
        board_scenario("timer_idle_1s", 12_000, SKIPS),
        board_scenario("fig_3_1", 4_000, BURSTS),
        board_scenario("fig_3_2_1s", 4_000, NONE),
        board_scenario("fig_3_3", 6_000, NONE),
        board_scenario("fig_3_4", 4_000, NONE), // halts on its own
        // The DMA engine is a bus master: its word transfers contend
        // with stream accesses, and must show up as bus-wait cycles.
        board_scenario("dma_copy_2s", 8_000, NONE).after(|m| {
            let attr = &m.stats().attribution;
            let waits: u64 = attr.bus_txn_wait.iter().chain(&attr.bus_free_wait).sum();
            assert!(waits > 0, "DMA board shows no bus-wait cycles at all");
            assert!(
                m.stats().external_accesses > 0,
                "DMA board never used the bus"
            );
        }),
        board_scenario("storage_log_2s", 8_000, NONE),
        board_scenario("packet_rx_2s", 12_000, NONE),
        // Fault window 400..1200: the 40% cut (cycle 1_000) lands inside
        // the latency-add window, so injector state crosses the restore.
        board_scenario("faulted_io_2s", 2_500, NONE),
    ];
    let mut listed: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../../boards"))
            .expect("list boards")
            .map(|e| {
                e.expect("board entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|f| f.ends_with(".board"))
            .collect();
    listed.sort();
    let mut covered: Vec<String> = boards.iter().map(|s| s.name.clone()).collect();
    covered.sort();
    assert_eq!(covered, listed, "every committed board is in the matrix");
    for s in &boards {
        check(s);
    }
}

// ---- generated programs ----------------------------------------------

fn corpus_seeds() -> Vec<u64> {
    include_str!("../fuzz/regressions.txt")
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| l.parse())
                .expect("corpus seed")
        })
        .collect()
}

/// The regression corpus plus a few fresh seeds: generated programs
/// cover windows, cross-stream signals, `tset`, random schedules and
/// pipeline depths — shapes no hand-written scenario hits. Every corpus
/// seed also goes through the differential runner, which holds
/// `run_reference`, `run` and the `disc-ref` interpreter to one outcome.
#[test]
fn fuzz_corpus_programs() {
    let corpus = corpus_seeds();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    for &seed in &corpus {
        if let Err(div) = compare(&generate(seed)) {
            panic!("corpus seed diverged:\n{div}");
        }
    }
    for seed in corpus.into_iter().take(8).chain(0..4) {
        let gp = generate(seed);
        let s = scenario(&format!("fuzz seed {seed:#x}"), 10_000, NONE, move || {
            let mut cfg = MachineConfig::disc1()
                .with_streams(gp.streams)
                .with_window_depth(gp.window_depth)
                .with_default_ext_latency(gp.ext_latency);
            cfg.pipeline_depth = gp.pipeline_depth;
            if let Some(table) = &gp.schedule {
                cfg = cfg.with_schedule(SchedulePolicy::Sequence(table.clone()));
            }
            Machine::new(cfg, &gp.program)
        });
        check(&s);
    }
}

/// The generator still draws the two coins that once picked the retired
/// step and dispatch modes, so every corpus seed keeps generating the
/// program it was pinned for. Digests taken before the modes were
/// retired; among them are the seeds pinned for burst and skip coverage.
#[test]
fn corpus_seeds_generate_their_pinned_programs() {
    let digest = |seed: u64| {
        let gp = generate(seed);
        let mut bytes = Vec::new();
        for addr in 0..gp.program.len() {
            bytes.extend_from_slice(&gp.program.word(addr as u16).to_le_bytes());
        }
        let knobs = format!(
            "{} {} {} {} {:?} {:?} {:?}",
            gp.streams,
            gp.pipeline_depth,
            gp.window_depth,
            gp.ext_latency,
            gp.schedule,
            gp.ext_regions,
            gp.board
        );
        bytes.extend_from_slice(knobs.as_bytes());
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    for (seed, expected) in PINNED_DIGESTS {
        assert_eq!(
            digest(*seed),
            *expected,
            "seed {seed:#x} generates a different case"
        );
    }
}

const PINNED_DIGESTS: &[(u64, u64)] = &[
    (0x0, 0x7bacc78f2ca07518),
    (0x7, 0xc226094961134b32),
    (0x2a, 0x17a848a305ce091f),
    (0x6, 0x21bbd8f1f646da56),
    (0x1d, 0x1cc1604a5a8ea6b3),
    (0x29, 0x877cbe235b85ce07),
    (0x1b, 0x6b5e5f5279ba4e17),
    (0x3f, 0x7c3238466ef8dbba),
    (0xb, 0x6a5706a3d1c360ce),
    (0x6c, 0x05ae67c9564b12c9),
    (0xfa, 0xd0a29f4b054cc3c3),
    (0x1, 0xf08dcfd120ccc6ce),
    (0x2, 0xff69eaf60eebb45f),
    (0x3, 0x1867ee41738a2b0c),
];

// ---- dedicated boundary checks ---------------------------------------

/// The UART storm's device-side accounting must agree word for word:
/// every stormed word is echoed, dropped or still queued, identically
/// under both loops — and the parked streams let `run` skip.
#[test]
fn uart_storm_overflow_accounting_matches() {
    let program = uart_storm_program();
    let mut results = Vec::new();
    for (loop_name, run) in LOOPS {
        let (mut m, uart) = uart_storm_machine(&program);
        assert_eq!(run(&mut m, 3_000).expect("storm run"), Exit::CycleLimit);
        let u = uart.borrow();
        assert!(
            u.rx_overflows() > 0,
            "{loop_name}: the storm must overflow the FIFO"
        );
        assert_eq!(
            u.transmitted().len() as u64 + u.rx_overflows() + u.rx_pending() as u64,
            40,
            "{loop_name}: every stormed word is echoed, dropped, or still queued"
        );
        results.push((
            stats_json(m.stats()).render(),
            u.transmitted().to_vec(),
            u.rx_overflows(),
            u.rx_pending(),
        ));
    }
    assert_eq!(
        results[0], results[1],
        "UART accounting diverges across loops"
    );
}

/// A decode fault fetched from inside a would-be superblock must error
/// at the same cycle with the same coordinates under both loops.
#[test]
fn decode_fault_in_burst_matches() {
    let mut program = assemble(
        ".stream 0, l0\nl0:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    addi r2, r2, 1\n    nop\n",
    );
    let bad_addr = program.len() as u16;
    let bad_word = 63 << 18; // unassigned opcode
    program.set_word(bad_addr, bad_word);
    let mut outcomes = Vec::new();
    for (_, run) in LOOPS {
        let mut m = Machine::new(MachineConfig::disc1().with_streams(1), &program);
        let err = run(&mut m, 1_000).expect_err("must fault");
        match err {
            SimError::Decode { pc, word, .. } => assert_eq!((pc, word), (bad_addr, bad_word)),
            other => panic!("expected a decode fault, got {other:?}"),
        }
        outcomes.push((format!("{err:?}"), m.stats().cycles, m.stats().retired[0]));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "fault site, cycle or retired count diverges"
    );
}

/// A per-cycle sink sees every cycle, so attaching one pins both fast
/// paths off and yields byte-identical trace output under either loop —
/// on a skip-heavy and on a burst-heavy workload.
#[test]
fn per_cycle_sink_pins_fast_paths_with_identical_bytes() {
    let compute = workloads::compute_program(2);
    let cases = [
        timer("timer", &idle_src(COUNTING_ISR), 400, 5_000, SKIPS),
        scenario("compute", 2_000, BURSTS, move || {
            Machine::new(MachineConfig::disc1().with_streams(2), &compute)
        }),
    ];
    for s in &cases {
        let label = &s.name;
        let mut traces = Vec::new();
        for (loop_name, run) in LOOPS {
            let mut m = (s.build)();
            m.set_trace_sink(Box::new(JsonlSink::new(Vec::<u8>::new())));
            run(&mut m, s.horizon).expect("traced run");
            assert_eq!(
                m.skip_stats().skips,
                0,
                "{label} [{loop_name}]: skipped under a per-cycle sink"
            );
            assert_eq!(
                m.superblock_stats().bursts,
                0,
                "{label} [{loop_name}]: burst under a per-cycle sink"
            );
            let sink = m
                .take_trace_sink()
                .unwrap()
                .into_any()
                .downcast::<JsonlSink<Vec<u8>>>()
                .unwrap();
            let (bytes, err) = sink.into_inner();
            assert!(err.is_none(), "{label}: sink write error");
            assert!(!bytes.is_empty(), "{label}: trace must not be empty");
            traces.push(bytes);
        }
        assert!(
            traces[0] == traces[1],
            "{label}: trace bytes diverge across loops"
        );
    }
}

/// The isolation soak drives its machines with single `step`s, so it has
/// no loop axis; pin that a seeded campaign and its run report are
/// reproducible.
#[test]
fn seeded_soak_campaign_is_reproducible() {
    let cfg = soak::SoakConfig {
        runs: 4,
        horizon: 20_000,
        ..soak::SoakConfig::default()
    };
    let a = soak::run_campaign(&cfg);
    let b = soak::run_campaign(&cfg);
    assert_eq!(a, b, "soak campaigns diverge");
    assert_eq!(
        a.run_report(&cfg).render(),
        b.run_report(&cfg).render(),
        "soak run reports diverge"
    );
}
