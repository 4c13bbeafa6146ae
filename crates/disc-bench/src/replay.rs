//! Deterministic record–replay of cycle-accurate machine runs.
//!
//! A [`ReplayLog`] is a self-contained `disc-replay/v1` file: the full
//! [`MachineConfig`], the program image (words, entry points, interrupt vectors), a starting
//! [`Machine::snapshot`], the tape of external inputs applied during the
//! recording (today: [`Machine::raise_interrupt`] calls, stamped with the
//! cycle they landed on), the cycle the recording ended at, and a final
//! snapshot of the machine state at that cycle.
//!
//! [`replay`] rebuilds the machine, restores the starting snapshot, and
//! re-applies the tape at the recorded cycles through the per-cycle
//! [`Machine::run_reference`]; because the simulator is deterministic, a
//! recording driven the same way reaches a *byte-identical* final
//! snapshot — statistics, cycle attribution and all. (The snapshot also
//! carries the fast-path counters of [`Machine::run`], which the
//! reference loop leaves at zero, so recordings step per cycle too.) Passing `to_cycle`
//! stops the re-execution mid-tape instead, which is the time-travel
//! primitive: bisect a long run for the cycle where a property first goes
//! wrong without ever re-running from cold.
//!
//! v1 limitation: the replayed machine runs on the default [`FlatBus`]
//! (external memory is part of the snapshot, so its *contents* survive);
//! recordings of machines on peripheral buses would need the host to
//! rebuild the same bus, which the file format cannot express yet.
//!
//! [`FlatBus`]: disc_core::FlatBus

use disc_core::{Exit, Machine, MachineConfig, SimError, SnapError, SnapReader, SnapWriter};
use disc_isa::Program;

/// Format tag leading every serialized replay log.
pub const REPLAY_FORMAT: &str = "disc-replay/v1";

/// One external input applied during a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputEvent {
    /// [`Machine::raise_interrupt`]`(stream, bit)` issued when the
    /// machine stood at `cycle` (between cycles, i.e. after `cycle`
    /// cycles had executed).
    RaiseIrq {
        /// Machine cycle count at the moment the interrupt was raised.
        cycle: u64,
        /// Target stream.
        stream: usize,
        /// IR bit to set.
        bit: u8,
    },
}

/// A complete recording: everything needed to re-execute a run.
#[derive(Debug, Clone)]
pub struct ReplayLog {
    /// Machine configuration of the recorded run.
    pub config: MachineConfig,
    /// Program image the run executed.
    pub program: Program,
    /// Snapshot at the start of the recording.
    pub start: Vec<u8>,
    /// External inputs in the order (and at the cycles) they were applied.
    pub events: Vec<InputEvent>,
    /// Machine cycle count when the recording ended.
    pub end_cycle: u64,
    /// Snapshot at [`end_cycle`](Self::end_cycle); [`replay`] to the end
    /// must reproduce these bytes exactly.
    pub final_snapshot: Vec<u8>,
}

impl ReplayLog {
    /// Serializes the log as a `disc-replay/v1` byte stream.
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_str(REPLAY_FORMAT);
        self.config.save_into(&mut w);
        let words: Vec<(u16, u32)> = self.program.iter().collect();
        w.put_usize(words.len());
        for (addr, word) in words {
            w.put_u16(addr);
            w.put_u32(word);
        }
        for s in 0..disc_isa::MAX_STREAMS {
            w.put_opt_u16(self.program.entry(s));
        }
        for s in 0..disc_isa::MAX_STREAMS {
            for bit in 1..disc_isa::IRQ_LEVELS as u8 {
                w.put_opt_u16(self.program.vector(s, bit));
            }
        }
        w.put_bytes(&self.start);
        w.put_usize(self.events.len());
        for ev in &self.events {
            let InputEvent::RaiseIrq { cycle, stream, bit } = ev;
            w.put_u64(*cycle);
            w.put_usize(*stream);
            w.put_u8(*bit);
        }
        w.put_u64(self.end_cycle);
        w.put_bytes(&self.final_snapshot);
        w.into_bytes()
    }

    /// Deserializes a `disc-replay/v1` byte stream.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on truncation, a wrong format tag, or a
    /// malformed event tape (events out of cycle order or past the end).
    pub fn load(bytes: &[u8]) -> Result<ReplayLog, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.expect_str(REPLAY_FORMAT)?;
        let config = MachineConfig::restore_from(&mut r)?;
        let nwords = r.get_usize()?;
        let mut program = Program::new();
        for _ in 0..nwords {
            let addr = r.get_u16()?;
            let word = r.get_u32()?;
            program.set_word(addr, word);
        }
        for s in 0..disc_isa::MAX_STREAMS {
            if let Some(pc) = r.get_opt_u16()? {
                program.set_entry(s, pc);
            }
        }
        for s in 0..disc_isa::MAX_STREAMS {
            for bit in 1..disc_isa::IRQ_LEVELS as u8 {
                if let Some(pc) = r.get_opt_u16()? {
                    program.set_vector(s, bit, pc);
                }
            }
        }
        let start = r.get_bytes()?.to_vec();
        let nevents = r.get_usize()?;
        let mut events = Vec::with_capacity(nevents.min(1 << 16));
        let mut last_cycle = 0u64;
        for _ in 0..nevents {
            let cycle = r.get_u64()?;
            let stream = r.get_usize()?;
            let bit = r.get_u8()?;
            if cycle < last_cycle {
                return Err(SnapError::Corrupt(format!(
                    "event tape out of order: cycle {cycle} after {last_cycle}"
                )));
            }
            if stream >= config.streams || bit as usize >= disc_isa::IRQ_LEVELS {
                return Err(SnapError::Corrupt(format!(
                    "event targets stream {stream} bit {bit} outside the configuration"
                )));
            }
            last_cycle = cycle;
            events.push(InputEvent::RaiseIrq { cycle, stream, bit });
        }
        let end_cycle = r.get_u64()?;
        if end_cycle < last_cycle {
            return Err(SnapError::Corrupt(format!(
                "recording ends at cycle {end_cycle} before its last event at {last_cycle}"
            )));
        }
        let final_snapshot = r.get_bytes()?.to_vec();
        r.finish()?;
        Ok(ReplayLog {
            config,
            program,
            start,
            events,
            end_cycle,
            final_snapshot,
        })
    }
}

/// Records a run as the host drives it: route every external input
/// through the recorder so it lands on the tape with its cycle stamp,
/// and advance the machine with [`Machine::run_reference`], the loop
/// [`replay`] re-executes with.
///
/// ```no_run
/// # use disc_bench::replay::Recorder;
/// # use disc_core::{Machine, MachineConfig};
/// # use disc_isa::Program;
/// # let config = MachineConfig::disc1();
/// # let program = Program::new();
/// let mut m = Machine::new(config.clone(), &program);
/// let mut rec = Recorder::begin(&m, &config, &program);
/// rec.raise_irq(&mut m, 3, 5);
/// m.run_reference(1_000).unwrap();
/// let log = rec.finish(&m);
/// std::fs::write("run.replay", log.save()).unwrap();
/// ```
#[derive(Debug)]
pub struct Recorder {
    config: MachineConfig,
    program: Program,
    start: Vec<u8>,
    events: Vec<InputEvent>,
}

impl Recorder {
    /// Starts recording `m` (snapshots its current state). `config` and
    /// `program` must be the ones the machine was built with.
    pub fn begin(m: &Machine, config: &MachineConfig, program: &Program) -> Recorder {
        Recorder {
            config: config.clone(),
            program: program.clone(),
            start: m.snapshot(),
            events: Vec::new(),
        }
    }

    /// Raises an interrupt on the machine and tapes it at the current
    /// cycle.
    pub fn raise_irq(&mut self, m: &mut Machine, stream: usize, bit: u8) {
        self.events.push(InputEvent::RaiseIrq {
            cycle: m.stats().cycles,
            stream,
            bit,
        });
        m.raise_interrupt(stream, bit);
    }

    /// Ends the recording, capturing the machine's final snapshot.
    pub fn finish(self, m: &Machine) -> ReplayLog {
        ReplayLog {
            config: self.config,
            program: self.program,
            start: self.start,
            events: self.events,
            end_cycle: m.stats().cycles,
            final_snapshot: m.snapshot(),
        }
    }
}

/// Why a replay could not complete.
#[derive(Debug)]
pub enum ReplayError {
    /// The log or its embedded snapshot failed to decode or restore.
    Snap(SnapError),
    /// The re-executed machine hit a fatal simulation error the recording
    /// did not contain.
    Sim(SimError),
    /// The machine stopped making progress (halted or idle) at `at`
    /// before reaching `want`, so the tape cannot be honoured — the
    /// recording and the simulator disagree.
    Stalled {
        /// Cycle the machine stopped advancing at.
        at: u64,
        /// Cycle the tape needed it to reach.
        want: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Snap(e) => write!(f, "replay log error: {e}"),
            ReplayError::Sim(e) => write!(f, "simulation error during replay: {e}"),
            ReplayError::Stalled { at, want } => write!(
                f,
                "machine stopped at cycle {at} but the tape runs to {want}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SnapError> for ReplayError {
    fn from(e: SnapError) -> Self {
        ReplayError::Snap(e)
    }
}

/// Advances `m` to exactly `target` cycles, surfacing a [`ReplayError`]
/// if it stops making progress first. A machine that halts or idles *at*
/// the target is fine — that is how recordings end.
fn run_to(m: &mut Machine, target: u64) -> Result<(), ReplayError> {
    loop {
        let now = m.stats().cycles;
        if now >= target {
            return Ok(());
        }
        match m.run_reference(target - now) {
            Ok(Exit::CycleLimit) => {}
            Ok(_) => {
                if m.stats().cycles < target {
                    return Err(ReplayError::Stalled {
                        at: m.stats().cycles,
                        want: target,
                    });
                }
            }
            Err(e) => return Err(ReplayError::Sim(e)),
        }
    }
}

/// Re-executes `log` from its starting snapshot, applying the input tape
/// at the recorded cycles. Runs to `to_cycle` (clamped to the recording's
/// end) when given, otherwise to the recording's end; returns the machine
/// for inspection. Events stamped exactly at the stopping cycle are
/// applied before returning, matching the order they were taped in.
///
/// # Errors
///
/// Returns [`ReplayError`] when the log is malformed, the configuration
/// cannot restore the snapshot, or the re-executed machine deviates from
/// the tape's timeline.
pub fn replay(log: &ReplayLog, to_cycle: Option<u64>) -> Result<Machine, ReplayError> {
    let mut m = Machine::new(log.config.clone(), &log.program);
    m.restore(&log.start)?;
    let end = to_cycle.map_or(log.end_cycle, |c| c.min(log.end_cycle));
    for ev in &log.events {
        let InputEvent::RaiseIrq { cycle, stream, bit } = ev;
        if *cycle > end {
            break;
        }
        run_to(&mut m, *cycle)?;
        m.raise_interrupt(*stream, *bit);
    }
    run_to(&mut m, end)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irq_program() -> Program {
        Program::assemble(
            ".stream 0, work\n.vector 3, 5, isr\n\
             work:\n    addi r0, r0, 1\n    addi r1, r1, 1\n    jmp work\n\
             isr:\n    lda r0, 0x40\n    addi r0, r0, 1\n    sta r0, 0x40\n    reti\n",
        )
        .expect("irq program assembles")
    }

    /// Drives an interrupt-fed run under `config`, recording it.
    fn record_run(config: &MachineConfig, program: &Program) -> ReplayLog {
        let mut m = Machine::new(config.clone(), program);
        m.set_idle_exit(false);
        let mut rec = Recorder::begin(&m, config, program);
        for _ in 0..40 {
            rec.raise_irq(&mut m, 3, 5);
            m.run_reference(50).expect("chunk runs");
        }
        rec.finish(&m)
    }

    #[test]
    fn replay_reproduces_the_run_byte_for_byte() {
        let program = irq_program();
        let config = disc_core::MachineConfig::disc1();
        let log = record_run(&config, &program);
        assert_eq!(log.end_cycle, 2_000);
        assert_eq!(log.events.len(), 40);

        let replayed = replay(&log, None).expect("replay completes");
        assert_eq!(
            replayed.snapshot(),
            log.final_snapshot,
            "replayed final state must be byte-identical"
        );
    }

    #[test]
    fn replay_survives_serialization() {
        let program = irq_program();
        let config = disc_core::MachineConfig::disc1().with_default_ext_latency(5);
        let log = record_run(&config, &program);
        let bytes = log.save();
        let loaded = ReplayLog::load(&bytes).expect("log loads");
        assert_eq!(loaded.save(), bytes, "save/load round-trips");
        let replayed = replay(&loaded, None).expect("replay completes");
        assert_eq!(replayed.snapshot(), loaded.final_snapshot);
    }

    #[test]
    fn to_cycle_stops_mid_tape_and_resumes_deterministically() {
        let program = irq_program();
        let config = disc_core::MachineConfig::disc1();
        let log = record_run(&config, &program);

        let mut mid = replay(&log, Some(777)).expect("partial replay");
        assert_eq!(mid.stats().cycles, 777);

        // Continuing the partial replay by hand — applying the rest of
        // the tape — must converge on the same final bytes.
        for ev in &log.events {
            let InputEvent::RaiseIrq { cycle, stream, bit } = ev;
            if *cycle <= 777 {
                continue;
            }
            let now = mid.stats().cycles;
            mid.run_reference(*cycle - now).expect("advance");
            mid.raise_interrupt(*stream, *bit);
        }
        let now = mid.stats().cycles;
        mid.run_reference(log.end_cycle - now).expect("tail");
        assert_eq!(mid.snapshot(), log.final_snapshot);
    }

    #[test]
    fn corrupt_logs_are_rejected() {
        let program = irq_program();
        let config = disc_core::MachineConfig::disc1();
        let log = record_run(&config, &program);
        let bytes = log.save();

        assert!(
            ReplayLog::load(&bytes[..bytes.len() - 1]).is_err(),
            "truncated"
        );
        let mut wrong_tag = bytes.clone();
        // The format string sits just past the length prefix.
        wrong_tag[9] ^= 0x20;
        assert!(ReplayLog::load(&wrong_tag).is_err(), "wrong format tag");

        let mut out_of_order = log.clone();
        out_of_order.events.reverse();
        assert!(
            ReplayLog::load(&out_of_order.save()).is_err(),
            "tape out of cycle order"
        );
    }
}
