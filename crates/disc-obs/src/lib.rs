//! Observability layer for the DISC simulator.
//!
//! The paper's claims are measurement claims — processor utilization
//! (`PD`), per-stream partition shares, interrupt-latency bounds — so the
//! simulator needs instrumentation that is auditable, not just a flat
//! counter block. This crate provides the pieces that sit *outside* the
//! cycle-accurate core:
//!
//! - **Streaming sinks** ([`JsonlSink`], [`SamplingSink`]) implementing
//!   [`disc_core::TraceSink`], attached with
//!   [`Machine::set_trace_sink`](disc_core::Machine::set_trace_sink).
//!   The JSONL sink serializes every traced cycle as one JSON line; the
//!   sampling sink snapshots [`disc_core::MachineStats`] deltas every N
//!   cycles and never pays for record assembly.
//! - **Structured run reports** ([`RunReport`], schema
//!   [`RUN_REPORT_SCHEMA`]): schema-versioned JSON summaries with a
//!   deterministic [`config_fingerprint`], full stats including the
//!   per-stream [`disc_core::CycleAttribution`], and scheduler grant
//!   shares — written under `results/` by `repro_all`, `soak`, the
//!   sweeps and the `obs_demo` example, and schema-checked in CI.
//! - **A dependency-free JSON tree** ([`Json`]) shared by both, since
//!   the build environment has no serde.
//!
//! Observability is passive by construction: sinks observe the record
//! the machine was already assembling, and the attribution profiler
//! lives in the core's existing accounting pass — simulation results are
//! byte-identical with or without any of this attached.

pub mod json;
pub mod report;
pub mod sink;

pub use json::Json;
pub use report::{
    attribution_json, config_fingerprint, config_json, scheduler_json, stats_json, timing_json,
    RunReport, RUN_REPORT_SCHEMA,
};
pub use sink::{
    cycle_json, event_json, render_sample_into, sample_json, JsonlSink, SamplingSink, StatsSample,
    WireSink,
};
