//! `pds-obs` — dependency-free observability substrate for the PDS service.
//!
//! Three pillars, all usable from any crate in the workspace without
//! pulling in external dependencies:
//!
//! 1. **Structured spans** ([`trace`]): RAII [`obs_span`] guards record
//!    `TraceEvent`s (id, parent link, monotonic nanosecond timestamps)
//!    into per-thread bounded ring buffers. A global epoch [`drain`]
//!    collects events from every thread — including threads that have
//!    already exited — for JSON-lines emission. When tracing is
//!    disabled the fast path is a single relaxed atomic load.
//! 2. **Metrics** ([`metrics`]): a registry of named counters and
//!    gauges with sorted labels, rendered as byte-stable Prometheus
//!    text, optionally scoped to one tenant's series plus unlabelled
//!    shard health; and log-bucketed latency histograms
//!    (nearest-rank percentiles within one bucket width).
//! 3. **Trace reports** ([`report`]): offline aggregation of a
//!    JSON-lines trace into per-phase self-time totals and a
//!    critical-path breakdown, with a wall-clock coverage gate.
//!
//! Telemetry over an encrypted-outsourcing system is itself an egress
//! channel: no emission site may reference sensitive-plaintext
//! identifiers. That rule is enforced statically by the
//! `telemetry-redaction` pass in `pds-analyze`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Histogram, LatencySummary, Registry, StatsScope, HISTOGRAM_GROWTH};
pub use report::{analyze_trace, render_report, Report};
pub use trace::{
    drain, now_ns, obs_span, parse_trace_line, record_manual, set_tracing, tracing_enabled,
    DrainResult, SpanGuard, TraceEvent, TraceLine,
};
