//! The predecoded instruction store on a mixed hot-path workload.
//!
//! The machine decodes the whole program once at load time and fetches
//! from the predecoded store. `run` (with its event-skip and superblock
//! fast paths) must stay cycle-for-cycle identical to single `step`s and
//! to the per-cycle `run_reference`: same trace records, same statistics,
//! same decode-fault reporting. The disc-ref differential fuzzer and the
//! golden snapshot pin the decoder itself against an independent model.

use disc_core::{Exit, Machine, MachineConfig, SimError};
use disc_isa::Program;

/// A workload touching every hot-path feature at once: same-stream RAW
/// hazards, taken/untaken jumps, stack-window calls, external bus
/// traffic, internal memory, and a vectored interrupt handler.
const MIXED_SRC: &str = r#"
    .stream 0, alu
    .stream 1, io
    .stream 2, calls
    .vector 3, 5, isr
alu:
    ldi r0, 25
    ldi r1, 0
aloop:
    add r1, r1, r0      ; RAW on r1 every iteration
    subi r0, r0, 1
    jnz aloop
    sta r1, 0x40
    jmp alu
io:
    lui r0, 0x80        ; external address space
ioloop:
    ld r1, [r0]
    addi r1, r1, 1      ; depends on the bus data
    st r1, [r0]
    jmp ioloop
calls:
    ldi r2, 6
cloop:
    call bump
    subi r2, r2, 1
    jnz cloop
    jmp calls
bump:
    winc 1              ; r0 = scratch, r1 = ret, r2 = caller r2
    addi r0, r0, 3
    wdec 1
    ret
isr:
    lda r0, 0x41
    addi r0, r0, 1
    sta r0, 0x41
    reti
"#;

fn mixed_pair() -> (Machine, Machine) {
    let program = Program::assemble(MIXED_SRC).expect("mixed program assembles");
    let fast = Machine::new(MachineConfig::disc1(), &program);
    let reference = Machine::new(MachineConfig::disc1(), &program);
    (fast, reference)
}

#[test]
fn run_and_single_steps_produce_identical_traces_and_stats() {
    let (mut fast, mut stepped) = mixed_pair();
    const CYCLES: u64 = 2_000;
    for m in [&mut fast, &mut stepped] {
        m.set_idle_exit(false);
        m.trace_start(CYCLES as usize);
    }
    for c in (0..CYCLES).step_by(97) {
        // Periodic interrupts so vector entry, handler flushes and
        // latency accounting are exercised on both machines.
        fast.raise_interrupt(3, 5);
        stepped.raise_interrupt(3, 5);
        let n = 97.min(CYCLES - c);
        assert_eq!(fast.run(n).expect("run"), Exit::CycleLimit);
        for _ in 0..n {
            stepped.step().expect("step");
        }
    }
    let t_fast = fast.trace_take().expect("run trace");
    let t_stepped = stepped.trace_take().expect("step trace");
    assert_eq!(t_fast.records().len(), CYCLES as usize);
    for (a, b) in t_fast.records().iter().zip(t_stepped.records()) {
        assert_eq!(a, b, "trace diverged at cycle {}", a.cycle);
    }
    assert_eq!(fast.stats(), stepped.stats());
    assert!(fast.stats().vectors_taken[3] > 0, "interrupts were taken");
    assert!(fast.stats().external_accesses > 0, "bus was exercised");
    assert_eq!(
        fast.scheduler_reallocations(),
        stepped.scheduler_reallocations()
    );
}

#[test]
fn run_and_reference_agree_on_final_memory() {
    let (mut fast, mut reference) = mixed_pair();
    assert_eq!(fast.run(50_000).expect("fast run"), Exit::CycleLimit);
    assert_eq!(
        reference.run_reference(50_000).expect("reference run"),
        Exit::CycleLimit
    );
    assert_eq!(fast.stats(), reference.stats());
    for addr in [0x40u16, 0x41] {
        assert_eq!(
            fast.internal_memory().read(addr),
            reference.internal_memory().read(addr),
            "memory diverged at {addr:#x}"
        );
    }
}

/// Predecoding must not make load-time errors out of decode faults: an
/// undecodable word only faults when a stream actually fetches it, and
/// the error carries the stream, pc and raw word.
#[test]
fn decode_fault_stays_lazy_and_reports_word() {
    let mut program = Program::assemble(
        ".stream 0, m\n.stream 1, n\nm: nop\n    nop\n    jmp m\nn: nop\n    nop\n    jmp n\n",
    )
    .unwrap();
    // Patch stream 1's second word (n is after m's 3 instructions).
    let bad_addr = 4u16;
    let bad_word = 63 << 18; // unassigned opcode
    program.set_word(bad_addr, bad_word);
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    let err = m.run(1_000).unwrap_err();
    match err {
        SimError::Decode { stream, pc, word } => {
            assert_eq!(stream, 1);
            assert_eq!(pc, bad_addr);
            assert_eq!(word, bad_word);
        }
        other => panic!("unexpected error {other}"),
    }
}

/// A bad word that no stream ever reaches must not fault at all — the
/// predecoded store keeps the seed's lazy semantics.
#[test]
fn unreached_bad_word_never_faults() {
    let mut program =
        Program::assemble(".stream 0, m\nm: ldi r0, 7\n    sta r0, 0x40\n    halt\n").unwrap();
    program.set_word(200, 63 << 18);
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    assert_eq!(m.run(1_000).expect("no fault"), Exit::Halted);
    assert_eq!(m.internal_memory().read(0x40), 7);
}

/// The per-cycle reference loop reports the identical fault.
#[test]
fn reference_decode_fault_matches() {
    let mut program = Program::assemble(".stream 0, m\nm: nop\n").unwrap();
    program.set_word(1, 63 << 18);
    let mut m = Machine::new(MachineConfig::disc1(), &program);
    match m.run_reference(100).unwrap_err() {
        SimError::Decode { stream, pc, word } => {
            assert_eq!((stream, pc, word), (0, 1, 63 << 18));
        }
        other => panic!("unexpected error {other}"),
    }
}
