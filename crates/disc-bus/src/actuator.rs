//! Write-only actuator output recording a timestamped command history.
//!
//! Control loops close through actuators (throttle, stepper coils, PWM
//! duty). The model records every command together with the bus-relative
//! cycle at which it landed, so tests and the RTS layer can check output
//! timing (e.g. deadline-bounded response to a sensor event).

use disc_core::IrqRequest;

use crate::bus::Peripheral;

/// A command delivered to the actuator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Bus cycle (counted from machine start) at which the write
    /// completed.
    pub cycle: u64,
    /// Register offset written.
    pub offset: u16,
    /// Value written.
    pub value: u16,
}

/// Write-only output port with configurable settle latency.
#[derive(Debug, Clone, Default)]
pub struct Actuator {
    latency: u32,
    cycle: u64,
    history: Vec<Command>,
}

impl Actuator {
    /// Creates an actuator whose writes take `latency` cycles to settle.
    pub fn new(latency: u32) -> Self {
        Actuator {
            latency,
            cycle: 0,
            history: Vec::new(),
        }
    }

    /// Every command received, in arrival order.
    pub fn history(&self) -> &[Command] {
        &self.history
    }

    /// The most recent command, if any.
    pub fn last(&self) -> Option<Command> {
        self.history.last().copied()
    }
}

impl Peripheral for Actuator {
    fn latency(&self, _offset: u16, write: bool) -> u32 {
        if write {
            self.latency
        } else {
            1
        }
    }

    fn read(&mut self, _offset: u16) -> u16 {
        self.last().map(|c| c.value).unwrap_or(0)
    }

    fn write(&mut self, offset: u16, value: u16) {
        self.history.push(Command {
            cycle: self.cycle,
            offset,
            value,
        });
    }

    fn tick(&mut self, _irqs: &mut Vec<IrqRequest>) {
        self.cycle += 1;
    }

    // Ticks only advance the timestamp clock; that alone never needs to
    // bound a skip, but the clock must still move so command timestamps
    // stay identical whether the cycles were stepped or skipped.
    fn advance(&mut self, cycles: u64) {
        self.cycle += cycles;
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = disc_snap::SnapWriter::new();
        w.put_str("actuator");
        w.put_u32(self.latency);
        w.put_u64(self.cycle);
        w.put_usize(self.history.len());
        for c in &self.history {
            w.put_u64(c.cycle);
            w.put_u16(c.offset);
            w.put_u16(c.value);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), disc_snap::SnapError> {
        let mut r = disc_snap::SnapReader::new(state);
        r.expect_str("actuator")?;
        let latency = r.get_u32()?;
        if latency != self.latency {
            return Err(disc_snap::SnapError::Corrupt(format!(
                "actuator latency mismatch: device {}, snapshot {latency}",
                self.latency
            )));
        }
        self.cycle = r.get_u64()?;
        let n = r.get_usize()?;
        self.history.clear();
        for _ in 0..n {
            self.history.push(Command {
                cycle: r.get_u64()?,
                offset: r.get_u16()?,
                value: r.get_u16()?,
            });
        }
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_commands_with_cycles() {
        let mut a = Actuator::new(3);
        let mut irqs = Vec::new();
        for _ in 0..10 {
            a.tick(&mut irqs);
        }
        a.write(0, 42);
        for _ in 0..5 {
            a.tick(&mut irqs);
        }
        a.write(1, 43);
        assert_eq!(a.history().len(), 2);
        assert_eq!(a.history()[0].cycle, 10);
        assert_eq!(a.history()[1].cycle, 15);
        assert_eq!(a.last().unwrap().value, 43);
        assert_eq!(a.read(0), 43);
    }

    #[test]
    fn write_latency_differs_from_read() {
        let a = Actuator::new(7);
        assert_eq!(a.latency(0, true), 7);
        assert_eq!(a.latency(0, false), 1);
    }
}
