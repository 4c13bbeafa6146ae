//! The `disc-serve/v1` wire protocol: one JSON object per line, both
//! directions.
//!
//! Clients send *requests* — `{"id":N,"verb":"...",...}` — and the
//! server answers each with exactly one *ack* carrying the same `id`:
//! `{"id":N,"ok":true,...}` on success, `{"id":N,"ok":false,"error":m}`
//! on failure. Interleaved with acks, the connection carries
//! unsolicited *events* keyed by `"event"` instead of `"id"`:
//! sink-over-wire frames (`"sample"`, `"trace"`) emitted while a
//! session runs, plus lifecycle notifications (`"hello"`, `"paused"`,
//! `"done"`, `"error"`). A client demultiplexes on the presence of the
//! `"id"` key; unknown event kinds must be skipped, not rejected, so
//! the protocol can grow.
//!
//! ## Verbs
//!
//! | verb       | operands                                     | effect |
//! |------------|----------------------------------------------|--------|
//! | `ping`     | —                                            | liveness probe |
//! | `create`   | `program`\|`board`\|`board_name`, `config?`, `sample_every?`, `trace?` | assemble + build a machine, returns `session` |
//! | `run`      | `session`, `cycles`                          | run asynchronously on the worker pool |
//! | `pause`    | `session`                                    | stop at the next chunk boundary |
//! | `snapshot` | `session`                                    | serialize state, returns size + checksum |
//! | `resume`   | `session`                                    | continue a paused/evicted session's budget |
//! | `evict`    | `session`                                    | snapshot to disk and drop the live machine |
//! | `stat`     | `session`                                    | state, cycle, headline counters |
//! | `close`    | `session`                                    | discard the session entirely |
//! | `shutdown` | —                                            | stop accepting; drain and exit |

use disc_core::MachineConfig;
use disc_obs::Json;

/// Protocol identifier sent in the `hello` event and checked by clients.
pub const PROTOCOL: &str = "disc-serve/v1";

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the ack.
    pub id: u64,
    /// What to do.
    pub verb: Verb,
}

/// The operation a [`Request`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Liveness probe.
    Ping,
    /// Assemble a program (or parse a board) and build a machine for it.
    Create {
        /// Where the machine comes from: raw assembly, an inline board
        /// document, or a board name resolved server-side.
        source: CreateSource,
        /// Machine configuration (defaults to [`MachineConfig::disc1`]).
        /// Ignored for board sources — the board's `[machine]` section is
        /// authoritative there.
        config: MachineConfig,
        /// Sampling window for streamed counters (0 disables sampling).
        sample_every: u64,
        /// Also stream full per-cycle trace frames (heavy).
        trace: bool,
    },
    /// Run `session` for up to `cycles` more cycles, asynchronously.
    Run {
        /// Target session.
        session: u64,
        /// Cycle budget for this run command.
        cycles: u64,
    },
    /// Stop `session` at the next chunk boundary.
    Pause {
        /// Target session.
        session: u64,
    },
    /// Serialize `session`'s machine state (must not be running).
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Continue a paused or evicted `session`'s remaining budget.
    Resume {
        /// Target session.
        session: u64,
    },
    /// Snapshot `session` to disk and drop its live machine.
    Evict {
        /// Target session.
        session: u64,
    },
    /// Report `session`'s state and headline counters.
    Stat {
        /// Target session.
        session: u64,
    },
    /// Discard `session`.
    Close {
        /// Target session.
        session: u64,
    },
    /// Stop the server.
    Shutdown,
}

/// What a `create` request builds its machine from.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateSource {
    /// DISC assembly text (`"program"` operand).
    Program(String),
    /// An inline board document (`"board"` operand): machine shape,
    /// peripherals, fault plan and program all come from the document.
    BoardDoc(String),
    /// The name of a board file the server resolves against its
    /// configured board directory (`"board_name"` operand).
    BoardName(String),
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the line is not valid JSON,
    /// lacks `id`/`verb`, names an unknown verb, or has missing or
    /// ill-typed operands.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("missing numeric \"id\"")?;
        Request::from_json(id, &json)
    }

    /// Parses the verb and operands of a request whose `id` is already
    /// known — the server uses this so an operand error can still be
    /// nacked against the right request id.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`], minus the json/id failures.
    pub fn from_json(id: u64, json: &Json) -> Result<Request, String> {
        let verb = json
            .get("verb")
            .and_then(Json::as_str)
            .ok_or("missing string \"verb\"")?;
        let session = || {
            json.get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("verb {verb:?} needs numeric \"session\""))
        };
        let verb = match verb {
            "ping" => Verb::Ping,
            "create" => {
                let take_str = |key: &'static str| -> Result<Option<String>, String> {
                    match json.get(key) {
                        None => Ok(None),
                        Some(v) => v
                            .as_str()
                            .map(|s| Some(s.to_string()))
                            .ok_or_else(|| format!("create operand {key:?} must be a string")),
                    }
                };
                let program = take_str("program")?;
                let board = take_str("board")?;
                let board_name = take_str("board_name")?;
                let source =
                    match (program, board, board_name) {
                        (Some(p), None, None) => CreateSource::Program(p),
                        (None, Some(b), None) => CreateSource::BoardDoc(b),
                        (None, None, Some(n)) => CreateSource::BoardName(n),
                        (None, None, None) => {
                            return Err(
                                "create needs one of \"program\", \"board\", \"board_name\"".into(),
                            )
                        }
                        _ => return Err(
                            "create takes exactly one of \"program\", \"board\", \"board_name\""
                                .into(),
                        ),
                    };
                if !matches!(source, CreateSource::Program(_)) && json.get("config").is_some() {
                    return Err(
                        "\"config\" conflicts with a board source; configure the machine in \
                         the board's [machine] section"
                            .into(),
                    );
                }
                let config = config_from_json(json.get("config"))?;
                let sample_every = json.get("sample_every").and_then(Json::as_u64).unwrap_or(0);
                let trace = json.get("trace").and_then(Json::as_bool).unwrap_or(false);
                Verb::Create {
                    source,
                    config,
                    sample_every,
                    trace,
                }
            }
            "run" => Verb::Run {
                session: session()?,
                cycles: json
                    .get("cycles")
                    .and_then(Json::as_u64)
                    .ok_or("run needs numeric \"cycles\"")?,
            },
            "pause" => Verb::Pause {
                session: session()?,
            },
            "snapshot" => Verb::Snapshot {
                session: session()?,
            },
            "resume" => Verb::Resume {
                session: session()?,
            },
            "evict" => Verb::Evict {
                session: session()?,
            },
            "stat" => Verb::Stat {
                session: session()?,
            },
            "close" => Verb::Close {
                session: session()?,
            },
            "shutdown" => Verb::Shutdown,
            other => return Err(format!("unknown verb {other:?}")),
        };
        Ok(Request { id, verb })
    }
}

/// Builds a [`MachineConfig`] from the optional `config` operand:
/// [`MachineConfig::disc1`] defaults with any of `streams`,
/// `pipeline_depth`, `window_depth` and `default_ext_latency`
/// overridden.
///
/// `step_mode` (`"cycle"`/`"cycle-by-cycle"`/`"event-skip"`) and
/// `dispatch_mode` (`"superblock"`/`"legacy"`) are **deprecated** within
/// `disc-serve/v1`: every session now runs one engine with event skips
/// and superblock bursts always on, which is byte-identical in every
/// reported outcome. The keys are still accepted and their values still
/// checked, but they change nothing.
///
/// # Errors
///
/// Returns a message naming the offending field on ill-typed or
/// out-of-range overrides or unknown mode names.
pub fn config_from_json(json: Option<&Json>) -> Result<MachineConfig, String> {
    let mut config = MachineConfig::disc1();
    let Some(json) = json else {
        return Ok(config);
    };
    if let Some(v) = json.get("streams") {
        let n = v.as_u64().ok_or("config.streams must be a number")?;
        config = config.with_streams(n as usize);
    }
    if let Some(v) = json.get("pipeline_depth") {
        let n = v.as_u64().ok_or("config.pipeline_depth must be a number")?;
        config = config.with_pipeline_depth(n as usize);
    }
    if let Some(v) = json.get("window_depth") {
        let n = v.as_u64().ok_or("config.window_depth must be a number")?;
        config = config.with_window_depth(n as usize);
    }
    if let Some(v) = json.get("default_ext_latency") {
        let n = v
            .as_u64()
            .ok_or("config.default_ext_latency must be a number")?;
        if n > u64::from(disc_board::MAX_LATENCY) {
            return Err(format!(
                "config.default_ext_latency must be at most {}, got {n}",
                disc_board::MAX_LATENCY
            ));
        }
        config = config.with_default_ext_latency(n as u32);
    }
    // Deprecated, accepted for compatibility and otherwise ignored.
    if let Some(v) = json.get("step_mode") {
        if !matches!(v.as_str(), Some("cycle" | "cycle-by-cycle" | "event-skip")) {
            return Err("config.step_mode must be \"cycle\" or \"event-skip\"".into());
        }
    }
    if let Some(v) = json.get("dispatch_mode") {
        if !matches!(v.as_str(), Some("superblock" | "legacy")) {
            return Err("config.dispatch_mode must be \"superblock\" or \"legacy\"".into());
        }
    }
    // `MachineConfig::validate` panics (it guards `Machine::new` against
    // programmer error); a *client* supplied this config, so range-check
    // the overridable fields here and refuse politely instead.
    if !(1..=disc_isa::MAX_STREAMS).contains(&config.streams) {
        return Err(format!(
            "config.streams must be 1..={}, got {}",
            disc_isa::MAX_STREAMS,
            config.streams
        ));
    }
    if !(3..=8).contains(&config.pipeline_depth) {
        return Err(format!(
            "config.pipeline_depth must be 3..=8, got {}",
            config.pipeline_depth
        ));
    }
    if config.window_depth <= disc_isa::WINDOW_REGS {
        return Err(format!(
            "config.window_depth must exceed {}, got {}",
            disc_isa::WINDOW_REGS,
            config.window_depth
        ));
    }
    Ok(config)
}

/// A successful ack for request `id`, with extra fields appended.
pub fn ack(id: u64, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut fields = vec![("id", Json::U64(id)), ("ok", Json::Bool(true))];
    fields.extend(extra);
    Json::obj(fields)
}

/// A failure ack for request `id`.
pub fn nack(id: u64, error: &str) -> Json {
    Json::obj([
        ("id", Json::U64(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::str(error)),
    ])
}

/// An unsolicited event of `kind` for `session`, with extra fields.
pub fn event(
    kind: &str,
    session: u64,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut fields = vec![("event", Json::str(kind)), ("session", Json::U64(session))];
    fields.extend(extra);
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let r = Request::parse(r#"{"id":1,"verb":"ping"}"#).unwrap();
        assert_eq!(
            r,
            Request {
                id: 1,
                verb: Verb::Ping
            }
        );
        let r = Request::parse(
            r#"{"id":2,"verb":"create","program":"halt","sample_every":64,"trace":true}"#,
        )
        .unwrap();
        match r.verb {
            Verb::Create {
                source,
                sample_every,
                trace,
                ..
            } => {
                assert_eq!(source, CreateSource::Program("halt".into()));
                assert_eq!(sample_every, 64);
                assert!(trace);
            }
            other => panic!("wrong verb {other:?}"),
        }
        let r = Request::parse(r#"{"id":3,"verb":"run","session":9,"cycles":1000}"#).unwrap();
        assert_eq!(
            r.verb,
            Verb::Run {
                session: 9,
                cycles: 1000
            }
        );
        for (verb, want) in [
            ("pause", Verb::Pause { session: 4 }),
            ("snapshot", Verb::Snapshot { session: 4 }),
            ("resume", Verb::Resume { session: 4 }),
            ("evict", Verb::Evict { session: 4 }),
            ("stat", Verb::Stat { session: 4 }),
            ("close", Verb::Close { session: 4 }),
        ] {
            let line = format!(r#"{{"id":7,"verb":"{verb}","session":4}}"#);
            assert_eq!(Request::parse(&line).unwrap().verb, want);
        }
        assert_eq!(
            Request::parse(r#"{"id":8,"verb":"shutdown"}"#)
                .unwrap()
                .verb,
            Verb::Shutdown
        );
    }

    #[test]
    fn create_board_sources_parse_and_exclude_each_other() {
        let r =
            Request::parse(r#"{"id":5,"verb":"create","board":"[machine]\nstreams = 2"}"#).unwrap();
        match r.verb {
            Verb::Create { source, .. } => {
                assert_eq!(
                    source,
                    CreateSource::BoardDoc("[machine]\nstreams = 2".into())
                );
            }
            other => panic!("wrong verb {other:?}"),
        }
        let r = Request::parse(r#"{"id":6,"verb":"create","board_name":"timer_idle_1s"}"#).unwrap();
        match r.verb {
            Verb::Create { source, .. } => {
                assert_eq!(source, CreateSource::BoardName("timer_idle_1s".into()));
            }
            other => panic!("wrong verb {other:?}"),
        }
        assert!(
            Request::parse(r#"{"id":7,"verb":"create","program":"halt","board":"x"}"#)
                .unwrap_err()
                .contains("exactly one")
        );
        assert!(Request::parse(r#"{"id":8,"verb":"create"}"#)
            .unwrap_err()
            .contains("one of"));
        assert!(
            Request::parse(r#"{"id":9,"verb":"create","board":"x","config":{"streams":2}}"#)
                .unwrap_err()
                .contains("[machine] section")
        );
    }

    #[test]
    fn config_overrides_apply() {
        let json = Json::parse(
            r#"{"streams":4,"pipeline_depth":5,"step_mode":"event-skip","dispatch_mode":"legacy"}"#,
        )
        .unwrap();
        let c = config_from_json(Some(&json)).unwrap();
        assert_eq!(c.streams, 4);
        assert_eq!(c.pipeline_depth, 5);
        // The deprecated mode keys are accepted and change nothing.
        let plain = Json::parse(r#"{"streams":4,"pipeline_depth":5}"#).unwrap();
        assert_eq!(c, config_from_json(Some(&plain)).unwrap());
        // No config at all is the DISC1 default.
        let d = config_from_json(None).unwrap();
        assert_eq!(d.fingerprint(), MachineConfig::disc1().fingerprint());
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(Request::parse("nonsense").unwrap_err().contains("bad json"));
        assert!(Request::parse(r#"{"verb":"ping"}"#)
            .unwrap_err()
            .contains("id"));
        assert!(Request::parse(r#"{"id":1}"#).unwrap_err().contains("verb"));
        assert!(Request::parse(r#"{"id":1,"verb":"warp"}"#)
            .unwrap_err()
            .contains("unknown verb"));
        assert!(Request::parse(r#"{"id":1,"verb":"run","cycles":5}"#)
            .unwrap_err()
            .contains("session"));
        assert!(Request::parse(
            r#"{"id":1,"verb":"create","config":{"step_mode":"warp"},"program":"halt"}"#
        )
        .unwrap_err()
        .contains("step_mode"));
        assert!(Request::parse(
            r#"{"id":1,"verb":"create","config":{"dispatch_mode":"fast"},"program":"halt"}"#
        )
        .unwrap_err()
        .contains("dispatch_mode"));
        // 2^32 must not wrap to latency 0; the bound is the board grammar's.
        for n in [4_294_967_296u64, u64::from(disc_board::MAX_LATENCY) + 1] {
            let line = format!(
                r#"{{"id":1,"verb":"create","config":{{"default_ext_latency":{n}}},"program":"halt"}}"#
            );
            assert!(
                Request::parse(&line)
                    .unwrap_err()
                    .contains("default_ext_latency must be at most"),
                "{n}"
            );
        }
        let max = Json::parse(&format!(
            r#"{{"default_ext_latency":{}}}"#,
            disc_board::MAX_LATENCY
        ))
        .unwrap();
        assert_eq!(
            config_from_json(Some(&max)).unwrap().default_ext_latency,
            disc_board::MAX_LATENCY
        );
    }

    #[test]
    fn acks_and_events_render_stably() {
        assert_eq!(
            ack(3, [("session", Json::U64(1))]).render(),
            r#"{"id":3,"ok":true,"session":1}"#
        );
        assert_eq!(
            nack(4, "no such session").render(),
            r#"{"id":4,"ok":false,"error":"no such session"}"#
        );
        assert_eq!(
            event("paused", 2, [("cycle", Json::U64(640))]).render(),
            r#"{"event":"paused","session":2,"cycle":640}"#
        );
    }
}
