//! The `experiments pipeline` gate on a smoke run.  It is a test binary
//! of its own because its timing gates need idle CPU: `cargo test` runs
//! one test binary at a time, so no other test of the suite runs beside
//! it.

use pds_bench::pipeline::{run, TUPLES};
use pds_core::DEFAULT_PIPELINE_WINDOW;
use pds_obs::Registry;

#[test]
fn pipeline_gate_holds_on_a_smoke_run() {
    // The correctness gates must hold on every attempt; the two timing
    // gates get two fresh re-runs because this test executes in debug
    // mode, where a scheduler hiccup can invert a close race.  The
    // release-mode `experiments pipeline` gate stays one-shot strict.
    let mut outcome = run(2, TUPLES, DEFAULT_PIPELINE_WINDOW, 3, 42).unwrap();
    for _ in 0..2 {
        assert!(outcome.exact, "answers diverged: {outcome:?}");
        assert!(outcome.secure, "security broke: {outcome:?}");
        assert!(outcome.pool.hits > 0, "pool never hit: {:?}", outcome.pool);
        if outcome.holds() {
            break;
        }
        outcome = run(2, TUPLES, DEFAULT_PIPELINE_WINDOW, 3, 42).unwrap();
    }
    assert!(outcome.exact, "answers diverged: {outcome:?}");
    assert!(outcome.secure, "security broke: {outcome:?}");
    assert!(outcome.pool.hits > 0, "pool never hit: {:?}", outcome.pool);
    // Every arm run fetches each distinct pair of its batch once: enough
    // episodes to time.
    assert!(outcome.episodes >= 96, "{outcome:?}");
    assert!(outcome.episodes <= outcome.queries, "{outcome:?}");
    assert!(
        outcome.pipelined_sec < outcome.lock_step_sec,
        "pipelined {:.6}s !< lock-step {:.6}s",
        outcome.pipelined_sec,
        outcome.lock_step_sec
    );
    assert!(
        outcome.wire_call_pipe_ns < outcome.wire_call_lock_ns,
        "blocked-read self-time must shrink: {} !< {}",
        outcome.wire_call_pipe_ns,
        outcome.wire_call_lock_ns
    );
    assert!(outcome.holds());

    let registry = Registry::new();
    outcome.flush_pool_metrics(&registry);
    let rendered = registry.render(pds_obs::StatsScope::All);
    assert!(rendered.contains("pds_wire_buf_reuse_total"), "{rendered}");
}
