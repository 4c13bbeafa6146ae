//! The seeded session script each workload replays.
//!
//! A workload is a fixed set of session *templates* (which machine,
//! how many cycles in total, how densely it is sampled) and an endless,
//! seed-determined sequence of *sessions* drawn from them. The seed
//! decides the order templates are dealt in and how each session splits
//! its cycle budget into `run` steps. It never changes the template set
//! or the total budget of a template, so two seeds give scripts of the
//! same shape and the same mix of work.
//!
//! Every rung of the benchmark (bare machine, wire sink, worker pool,
//! TCP server) executes the same [`Op`] list per session; the server
//! and the machines see only the generated requests: a client's request
//! bytes are a function of the session plan and its template alone.

/// The countdown program `bench_serve` drives: a nested loop that halts
/// after a few tens of thousands of cycles.
pub const COUNTDOWN: &str = r#"
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

/// Boards whose streams mostly wait on the bus, interrupts or timers.
pub const EVENT_BOARDS: [&str; 7] = [
    "io_bound_2s",
    "interrupt_heavy_3s",
    "timer_idle_1s",
    "dma_copy_2s",
    "storage_log_2s",
    "packet_rx_2s",
    "faulted_io_2s",
];

/// Boards whose streams compute without stalling (superblock bursts).
pub const COMPUTE_BOARDS: [&str; 2] = ["compute_bound_4s", "branch_heavy_4s"];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, one thread, stall-heavy boards through `run_chunk`.
    SimEvents,
    /// Long burst-friendly sessions on a 2-worker server, 2 clients.
    ServeLong,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sim_events" => Some(Workload::SimEvents),
            "serve_long" => Some(Workload::ServeLong),
            _ => None,
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimEvents => "sim_events",
            Workload::ServeLong => "serve_long",
        }
    }

    /// Whether the end-to-end run goes through `disc_served`.
    pub fn served(self) -> bool {
        self != Workload::SimEvents
    }
}

/// What a template's machine is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A board document (`create` with `"board"`).
    Board,
    /// DISC assembly for the default DISC1 machine (`create` with
    /// `"program"`).
    Program,
}

/// One kind of session.
#[derive(Debug, Clone)]
pub struct Template {
    /// Board name, or `countdown`.
    pub name: String,
    /// What `text` is.
    pub source: Source,
    /// Board document or assembly source.
    pub text: String,
    /// Sampling window in cycles; every step budget is a multiple of it,
    /// so pauses, evictions and step ends land on window boundaries.
    pub sample_every: u64,
    /// Total budget in sampling windows.
    pub windows: u64,
    /// Number of `run` steps the budget is split into.
    pub steps: usize,
}

impl Template {
    /// Total cycle budget of one session.
    pub fn cycles(&self) -> u64 {
        self.windows * self.sample_every
    }
}

/// One request of a session, in the order the client sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Build the machine.
    Create,
    /// Ask for the session's state between steps.
    Stat,
    /// Run this many more cycles and wait for the `done` event.
    Run(u64),
    /// Snapshot the machine away (only the traced run's ack probe sends
    /// it).
    Evict,
    /// Bring it back (likewise).
    Resume,
    /// Discard the session.
    Close,
}

/// One session of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Position in the script.
    pub index: usize,
    /// Index into [`Script::templates`].
    pub template: usize,
    /// Requests in order. After a `run` whose machine halts or goes
    /// idle, every remaining op but `Close` is skipped.
    pub ops: Vec<Op>,
}

/// splitmix64: the repository's seeded-randomness idiom.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `tag`, item `index` of `seed`.
    pub fn new(seed: u64, tag: u64, index: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        g.0 ^= SplitMix64(index).next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const TAG_DECK: u64 = 1;
const TAG_SPLIT: u64 = 2;

/// A workload's templates plus the seed that deals sessions from them.
#[derive(Debug, Clone)]
pub struct Script {
    /// Which workload this is.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The fixed template set.
    pub templates: Vec<Template>,
}

impl Script {
    /// Builds the script, reading board documents through `board_text`.
    ///
    /// # Errors
    ///
    /// Whatever `board_text` returns for a missing board.
    pub fn new(
        workload: Workload,
        seed: u64,
        board_text: impl Fn(&str) -> Result<String, String>,
    ) -> Result<Script, String> {
        let board = |name: &str, every: u64, windows: u64, steps: usize| {
            Ok::<_, String>(Template {
                name: name.to_string(),
                source: Source::Board,
                text: board_text(name)?,
                sample_every: every,
                windows,
                steps,
            })
        };
        let templates = match workload {
            Workload::SimEvents => EVENT_BOARDS
                .iter()
                .map(|b| board(b, 8_192, 16, 8))
                .collect::<Result<_, _>>()?,
            Workload::ServeLong => {
                let mut t: Vec<Template> = COMPUTE_BOARDS
                    .iter()
                    .map(|b| board(b, 65_536, 24, 6))
                    .collect::<Result<_, _>>()?;
                t.push(Template {
                    name: "countdown".into(),
                    source: Source::Program,
                    text: COUNTDOWN.into(),
                    sample_every: 65_536,
                    windows: 4,
                    steps: 2,
                });
                t
            }
        };
        Ok(Script {
            workload,
            seed,
            templates,
        })
    }

    /// Session `index` of the script.
    pub fn session(&self, index: usize) -> SessionPlan {
        let t = self.templates.len();
        // Templates are dealt in shuffled decks, so every run of `t`
        // consecutive sessions holds each template exactly once.
        let mut deck: Vec<usize> = (0..t).collect();
        SplitMix64::new(self.seed, TAG_DECK, (index / t) as u64).shuffle(&mut deck);
        let template = deck[index % t];
        let tpl = &self.templates[template];

        let mut rng = SplitMix64::new(self.seed, TAG_SPLIT, index as u64);
        let steps = split_windows(&mut rng, tpl.windows, tpl.steps);
        // Served sessions poll `stat` between steps, the way a
        // monitoring client would.
        let stat_between = self.workload.served();

        let mut ops = vec![Op::Create];
        for (j, &w) in steps.iter().enumerate() {
            if stat_between && j > 0 {
                ops.push(Op::Stat);
            }
            ops.push(Op::Run(w * tpl.sample_every));
        }
        ops.push(Op::Close);
        SessionPlan {
            index,
            template,
            ops,
        }
    }
}

/// The protocol verb an op sends.
pub fn op_verb(op: Op) -> &'static str {
    match op {
        Op::Create => "create",
        Op::Stat => "stat",
        Op::Run(_) => "run",
        Op::Evict => "evict",
        Op::Resume => "resume",
        Op::Close => "close",
    }
}

/// Splits `windows` into `parts` positive parts at seeded cut points.
fn split_windows(rng: &mut SplitMix64, windows: u64, parts: usize) -> Vec<u64> {
    let parts = (parts as u64).clamp(1, windows);
    let mut cuts: Vec<u64> = Vec::new();
    while (cuts.len() as u64) < parts - 1 {
        let c = 1 + rng.below(windows - 1);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    cuts.push(windows);
    let mut prev = 0;
    cuts.into_iter()
        .map(|c| {
            let w = c - prev;
            prev = c;
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [Workload; 2] = [Workload::SimEvents, Workload::ServeLong];

    fn script(workload: Workload, seed: u64) -> Script {
        Script::new(workload, seed, |name| Ok(format!("name = \"{name}\"\n"))).unwrap()
    }

    /// What one client of a two-client run sends for its first `n`
    /// sessions: each session's plan with the template text and sampling
    /// window its `create` carries. The request bytes are a function of
    /// these alone.
    fn client_script(s: &Script, client: usize, n: usize) -> Vec<(String, u64, SessionPlan)> {
        (0..n)
            .map(|j| {
                let plan = s.session(client + 2 * j);
                let tpl = &s.templates[plan.template];
                (tpl.text.clone(), tpl.sample_every, plan)
            })
            .collect()
    }

    #[test]
    fn one_seed_sends_identical_requests() {
        for w in WORKLOADS {
            for client in 0..2 {
                let a = client_script(&script(w, 7), client, 40);
                let b = client_script(&script(w, 7), client, 40);
                assert_eq!(a.len(), 40);
                assert_eq!(a, b, "{w:?} client {client}");
            }
        }
    }

    #[test]
    fn another_seed_gives_a_different_script_of_the_same_shape() {
        for w in WORKLOADS {
            let (a, b) = (script(w, 1), script(w, 2));
            assert_ne!(client_script(&a, 0, 40), client_script(&b, 0, 40), "{w:?}");
            let t = a.templates.len();
            let n = t * 20;
            let shape = |s: &Script| {
                let mut per_template = vec![(0usize, 0u64, 0usize, 0usize); t];
                for i in 0..n {
                    let plan = s.session(i);
                    let slot = &mut per_template[plan.template];
                    slot.0 += 1;
                    for op in &plan.ops {
                        match op {
                            Op::Run(c) => {
                                slot.1 += c;
                                slot.2 += 1;
                            }
                            Op::Stat => slot.3 += 1,
                            _ => {}
                        }
                    }
                    assert_eq!(plan.ops.first(), Some(&Op::Create));
                    assert_eq!(plan.ops.last(), Some(&Op::Close));
                }
                per_template
            };
            assert_eq!(shape(&a), shape(&b), "{w:?}");
        }
    }

    #[test]
    fn every_deck_holds_each_template_once_and_budgets_are_window_aligned() {
        for w in WORKLOADS {
            let s = script(w, 3);
            let t = s.templates.len();
            for deck in 0..5 {
                let mut seen: Vec<usize> =
                    (0..t).map(|k| s.session(deck * t + k).template).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..t).collect::<Vec<_>>(), "{w:?}");
            }
            for i in 0..50 {
                let plan = s.session(i);
                let tpl = &s.templates[plan.template];
                let total: u64 = plan
                    .ops
                    .iter()
                    .map(|op| match op {
                        Op::Run(c) => {
                            assert_eq!(c % tpl.sample_every, 0);
                            *c
                        }
                        _ => 0,
                    })
                    .sum();
                assert_eq!(total, tpl.cycles(), "{w:?}");
                assert!(!plan
                    .ops
                    .iter()
                    .any(|op| matches!(op, Op::Evict | Op::Resume)));
            }
        }
    }
}
