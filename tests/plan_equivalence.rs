//! Property-based integration tests for the plan→episode pipeline:
//! whatever the back-end, the shard count and the placement seed,
//! plan-driven execution on the live composed path must be
//! **observationally identical** to the fine-grained multi-round path
//! (byte-identical answers for every value of the exhaustive Employee
//! workload, and every shard's adversarial view equal episode by episode)
//! while taking exactly the rounds and request frames each back-end's
//! episode shape prescribes, and partitioned data security must hold on
//! every shard's own view *and* on the composed coalition view in **both**
//! modes.
//!
//! The engines are driven as `Box<dyn SecureSelectionEngine>` — the same
//! trait-object form heterogeneous deployments use — so this suite also
//! proves the boxed path end to end for all six back-ends.
//!
//! The cost-based optimizer rides the same harness: identical seed and
//! cost inputs must compile to a byte-identical [`QueryPlan`], and the
//! heterogeneous deployment the optimizer picks must return byte-identical
//! answers to every forced-homogeneous baseline.  A pushed-down residual
//! must reach the cloud on every back-end in both plan modes: fewer tuples
//! come back, and the answers are those of the owner-side-only residual.

use proptest::prelude::*;

use partitioned_data_security::prelude::*;
use partitioned_data_security::systems::oblivious;

mod common;
use common::{answer_bytes, employee_setup};

/// The six back-ends by index, as boxed trait objects.
fn backend(i: usize) -> Box<dyn SecureSelectionEngine> {
    match i {
        0 => Box::new(NonDetScanEngine::new()),
        1 => Box::new(DeterministicIndexEngine::new()),
        2 => Box::new(ArxEngine::new()),
        3 => Box::new(SecretSharingEngine::default_deployment()),
        4 => Box::new(DpfEngine::new(99)),
        _ => Box::new(oblivious::opaque_sim()),
    }
}

const BACKENDS: usize = 6;

/// The exact shape of one episode per back-end, by index: its rounds when
/// composed and its rounds when fine-grained.  Either way each episode
/// sends its clear-text bin in one `FetchBinRequest`: composed, next to
/// the sensitive side's tags or located addresses; fine-grained, alone,
/// with the sensitive fetch as a second one.
const EPISODE_SHAPE: [(u64, u64); BACKENDS] = [
    (2, 3), // nondet-scan: column download, then the fetch
    (1, 2), // det-index
    (1, 2), // arx
    (2, 3), // secret sharing: share scan, then the fetch
    (2, 3), // DPF: two-server evaluation, then the fetch
    (1, 2), // opaque-sim: the enclave scans inside its one fetch
];

/// The engine an optimizer decision names, as a boxed trait object.
fn engine_named(name: &str) -> Box<dyn SecureSelectionEngine> {
    match name {
        "nondet-scan" => Box::new(NonDetScanEngine::new()),
        "det-index" => Box::new(DeterministicIndexEngine::new()),
        "arx-index" => Box::new(ArxEngine::new()),
        "secret-sharing" => Box::new(SecretSharingEngine::default_deployment()),
        "dpf" => Box::new(DpfEngine::new(99)),
        "opaque-sim" => Box::new(oblivious::opaque_sim()),
        other => panic!("planner chose an unknown engine {other:?}"),
    }
}

/// A cost model built from **synthetic, seed-derived** work profiles, so
/// identical `(shards, seed)` inputs always reproduce the identical model.
fn synthetic_model(shards: usize, seed: u64) -> (CostModel, Vec<EngineCandidate>) {
    let candidates: Vec<EngineCandidate> = (0..BACKENDS)
        .map(|i| EngineCandidate::of(backend(i).as_ref()))
        .collect();
    let names: Vec<&str> = candidates.iter().map(|c| c.name.as_str()).collect();
    let mut model = CostModel::default();
    for i in 0..BACKENDS {
        let engine = backend(i);
        model.seed_engine(engine.name(), engine.cost_profile());
    }
    model.set_round_trip_cost(0.010);
    for (i, name) in names.iter().enumerate() {
        for shard in 0..shards {
            // A deterministic jitter in [0.5, 1.9] × the base scan, so
            // different engines win on different shards.
            let jitter = (seed ^ (i as u64 * 31 + shard as u64 * 7)) % 15;
            let scanned = (40 + 3 * i as u64) * (5 + jitter) / 10;
            let work = Metrics {
                encrypted_tuples_scanned: scanned,
                plaintext_tuples_scanned: 60,
                plaintext_index_lookups: 1,
                owner_decryptions: scanned,
                round_trips: 1 + i as u64 % 2,
                ..Default::default()
            };
            model.observe(name, shard, &work);
        }
    }
    (model, candidates)
}

/// Deterministic per-shard linkage advantages with some shards pushed over
/// the 0.5 threshold, so both branches of the security constraint (free
/// choice vs oblivious-only) are exercised.
fn synthetic_advantages(shards: usize, seed: u64) -> Vec<f64> {
    (0..shards)
        .map(|s| {
            if (s as u64 + seed) % 4 == 0 {
                0.9
            } else {
                0.05
            }
        })
        .collect()
}

/// Deploys `engines` (one per shard) over the Employee parts with the
/// given planner configuration, runs the whole workload as one batch and
/// returns the per-query answer bytes.
fn run_deployment(
    parts: &pds_storage::PartitionedRelation,
    values: &[Value],
    engines: Vec<Box<dyn SecureSelectionEngine>>,
    config: PlannerConfig,
    placement_seed: u64,
) -> Vec<Vec<Vec<u8>>> {
    let shards = engines.len();
    let binning = QueryBinning::build(parts, "EId", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, engines[0].fork());
    let mut owner = DbOwner::new(5);
    let mut router = ShardRouter::new(shards, NetworkModel::paper_wan(), placement_seed).unwrap();
    executor
        .outsource_with_engines(&mut owner, &mut router, parts, engines)
        .unwrap();
    executor.set_planner(config).unwrap();
    let run = executor
        .run_workload_transported(&mut owner, &mut router, values, &BinTransport::Sequential)
        .unwrap();
    run.answers.iter().map(|ts| answer_bytes(ts)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every back-end, shard count and placement seed, the composed
    /// plan mode returns byte-identical answers to the forced fine-grained
    /// mode on an identical deployment, shows every shard's cloud the same
    /// observations in the same order, takes exactly the rounds and
    /// request frames [`EPISODE_SHAPE`] prescribes per episode, and the
    /// security definition holds per shard and composed in both modes.
    #[test]
    fn composed_plans_match_fine_grained_across_backends(
        shards in 1usize..=8,
        placement_seed in 0u64..1_000,
    ) {
        use partitioned_data_security::cloud::{msg_tag, EpisodeObservation};

        let (parts, values) = employee_setup();
        let episodes = values.len() as u64;
        for (backend_idx, &(composed_rounds, fine_rounds)) in
            EPISODE_SHAPE.iter().enumerate()
        {
            let mut answers: Vec<Vec<Vec<Vec<u8>>>> = Vec::new();
            let mut views: Vec<Vec<Vec<EpisodeObservation>>> = Vec::new();

            for mode in [PlanMode::Composed, PlanMode::FineGrained] {
                let binning =
                    QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
                let mut executor =
                    QbExecutor::new(binning, backend(backend_idx)).with_plan_mode(mode);
                let mut owner = DbOwner::new(5);
                let mut router = ShardRouter::new(
                    shards,
                    NetworkModel::paper_wan(),
                    placement_seed,
                ).unwrap();
                executor.outsource(&mut owner, &mut router, &parts).unwrap();
                let outsourcing = router.metrics();

                let per_episode = match mode {
                    PlanMode::Composed => composed_rounds,
                    PlanMode::FineGrained => fine_rounds,
                };
                let mut mode_answers = Vec::with_capacity(values.len());
                for value in &values {
                    let run = executor
                        .run_workload_transported(
                            &mut owner,
                            &mut router,
                            std::slice::from_ref(value),
                            &BinTransport::Sequential,
                        )
                        .unwrap();
                    mode_answers.push(answer_bytes(&run.answers[0]));
                    let rounds = run.rounds;
                    prop_assert!(
                        rounds == per_episode,
                        "backend={} mode={:?} value={}: {} rounds, want {}",
                        backend_idx, mode, value, rounds, per_episode
                    );
                }
                let delta = router.metrics().delta_since(&outsourcing);
                // Per-episode rounds must add up to the metrics' counter.
                prop_assert_eq!(delta.round_trips, episodes * per_episode);
                // One combined request per composed episode; fine-grained
                // episodes send their two fetches (clear-text, then
                // sensitive) as separate requests.
                let requests = delta.frames_of_type(msg_tag::FETCH_BIN_REQUEST);
                let expected = match mode {
                    PlanMode::Composed => episodes,
                    PlanMode::FineGrained => 2 * episodes,
                };
                prop_assert!(
                    requests == expected,
                    "backend={} mode={:?}: {} FetchBinRequest frames, want {}",
                    backend_idx, mode, requests, expected
                );
                answers.push(mode_answers);
                views.push(
                    router
                        .adversarial_views()
                        .iter()
                        .map(|v| v.episodes().iter().map(|e| (*e.observed).clone()).collect())
                        .collect(),
                );

                // Security holds in this mode, per shard and composed.
                let report =
                    check_sharded_partitioned_security(&router.adversarial_views());
                prop_assert!(
                    report.is_secure(),
                    "backend={} mode={:?} shards={} seed={} report={:?}",
                    backend_idx, mode, shards, placement_seed, report
                );
            }

            // Byte-identical answers across the two paths.
            prop_assert!(
                answers[0] == answers[1],
                "answers diverged for backend {} ({} shards, seed {})",
                backend_idx, shards, placement_seed
            );
            // The same observations on every shard, episode by episode:
            // folding the clear-text bin into another exchange shows the
            // cloud nothing it did not see before.
            for (shard, (composed, fine)) in views[0].iter().zip(&views[1]).enumerate() {
                prop_assert!(
                    composed == fine,
                    "backend {} shard {} views diverged ({} shards, seed {})",
                    backend_idx, shard, shards, placement_seed
                );
            }
        }
    }

    /// Identical seed and cost inputs produce a **byte-identical** optimizer
    /// outcome: the same `ShardPlan` vector from `choose_engines`, and the
    /// same compiled `QueryPlan` (compared via `format!("{plan:?}")`) from
    /// two independently-built but identically-configured deployments on
    /// the same (rotated) workload.
    #[test]
    fn planner_compilation_is_deterministic(
        shards in 1usize..=8,
        placement_seed in 0u64..1_000,
        rotation in 0usize..32,
    ) {
        let (parts, values) = employee_setup();
        let mut workload = values.clone();
        let len = workload.len();
        workload.rotate_left(rotation % len);

        let (model, candidates) = synthetic_model(shards, placement_seed);
        let advantage = synthetic_advantages(shards, placement_seed);
        let chosen = choose_engines(&model, &candidates, &advantage, 0.5).unwrap();
        let chosen_again = choose_engines(&model, &candidates, &advantage, 0.5).unwrap();
        prop_assert_eq!(format!("{chosen:?}"), format!("{chosen_again:?}"));
        for plan in &chosen {
            if plan.oblivious_required {
                // opaque-sim is the only access-pattern-hiding candidate.
                prop_assert_eq!(plan.engine.as_str(), "opaque-sim");
            }
        }

        let residual =
            Predicate::range(employee_relation().schema(), "Office", 1i64, 3i64).unwrap();
        let mut compiled = Vec::new();
        for _ in 0..2 {
            let binning =
                QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
            let engines: Vec<Box<dyn SecureSelectionEngine>> =
                chosen.iter().map(|p| engine_named(&p.engine)).collect();
            let mut executor = QbExecutor::new(binning, engine_named(&chosen[0].engine));
            let mut owner = DbOwner::new(5);
            let mut router =
                ShardRouter::new(shards, NetworkModel::paper_wan(), placement_seed).unwrap();
            executor
                .outsource_with_engines(&mut owner, &mut router, &parts, engines)
                .unwrap();
            executor.set_planner(PlannerConfig {
                residual: Some(residual.clone()),
                ..PlannerConfig::default()
            }).unwrap();
            let plan = executor.compile_workload(&mut owner, &router, &workload);
            compiled.push(format!("{plan:?}"));
        }
        prop_assert!(
            compiled[0] == compiled[1],
            "plan compilation diverged ({} shards, seed {}, rotation {})",
            shards, placement_seed, rotation
        );
    }

    /// Across 1–8 shards, the heterogeneous deployment the optimizer picks
    /// (residual pushed down the wire) returns byte-identical answers to
    /// every forced-homogeneous baseline evaluating the same residual
    /// owner-side only.
    #[test]
    fn planner_choice_matches_every_forced_homogeneous_baseline(
        shards in 1usize..=8,
        placement_seed in 0u64..1_000,
    ) {
        let (parts, values) = employee_setup();
        let residual =
            Predicate::range(employee_relation().schema(), "Office", 1i64, 3i64).unwrap();

        let (model, candidates) = synthetic_model(shards, placement_seed);
        let advantage = synthetic_advantages(shards, placement_seed);
        let chosen = choose_engines(&model, &candidates, &advantage, 0.5).unwrap();

        let planner_answers = run_deployment(
            &parts,
            &values,
            chosen.iter().map(|p| engine_named(&p.engine)).collect(),
            PlannerConfig {
                residual: Some(residual.clone()),
                pushdown: true,
                ..PlannerConfig::default()
            },
            placement_seed,
        );
        for backend_idx in 0..BACKENDS {
            let baseline = run_deployment(
                &parts,
                &values,
                (0..shards).map(|_| backend(backend_idx)).collect(),
                PlannerConfig {
                    residual: Some(residual.clone()),
                    pushdown: false,
                    ..PlannerConfig::default()
                },
                placement_seed,
            );
            prop_assert!(
                planner_answers == baseline,
                "planner answers diverged from forced backend {} ({} shards, seed {})",
                backend_idx, shards, placement_seed
            );
        }
    }
}

/// Pushing the residual down the wire filters the clear-text stream
/// cloud-side on all six back-ends in both plan modes — the fine-grained
/// path included — so every deployment returns strictly fewer tuples than
/// with the residual applied owner-side only, with identical answers and
/// partitioned security intact per shard and composed.  Each batch's
/// reported rounds equal the shards' own `round_trips` delta.
#[test]
fn pushdown_filters_cloud_side_on_every_backend_in_both_plan_modes() {
    let (parts, values) = employee_setup();
    let residual = Predicate::range(employee_relation().schema(), "Office", 1i64, 3i64).unwrap();
    for backend_idx in 0..BACKENDS {
        let name = backend(backend_idx).name();
        for mode in [PlanMode::Composed, PlanMode::FineGrained] {
            let mut answers = Vec::new();
            let mut returned = Vec::new();
            for pushdown in [false, true] {
                let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
                let mut executor =
                    QbExecutor::new(binning, backend(backend_idx)).with_plan_mode(mode);
                let mut owner = DbOwner::new(5);
                let mut router = ShardRouter::new(2, NetworkModel::paper_wan(), 11).unwrap();
                executor.outsource(&mut owner, &mut router, &parts).unwrap();
                executor
                    .set_planner(PlannerConfig {
                        residual: Some(residual.clone()),
                        pushdown,
                        ..PlannerConfig::default()
                    })
                    .unwrap();
                let outsourcing = router.metrics();
                let run = executor
                    .run_workload_transported(
                        &mut owner,
                        &mut router,
                        &values,
                        &BinTransport::Sequential,
                    )
                    .unwrap();
                answers.push(
                    run.answers
                        .iter()
                        .map(|ts| answer_bytes(ts))
                        .collect::<Vec<_>>(),
                );
                let delta = router.metrics().delta_since(&outsourcing);
                assert_eq!(
                    run.rounds, delta.round_trips,
                    "{name} {mode:?} pushdown={pushdown}: the batch's rounds are the cloud's"
                );
                returned.push(delta.tuples_returned);
                let report = check_sharded_partitioned_security(&router.adversarial_views());
                assert!(
                    report.is_secure(),
                    "{name} {mode:?} pushdown={pushdown}: {report:?}"
                );
            }
            assert!(
                answers[0] == answers[1],
                "{name} {mode:?}: pushdown changed the answers"
            );
            assert!(
                returned[1] < returned[0],
                "{name} {mode:?}: pushdown must return fewer tuples ({} vs {})",
                returned[1],
                returned[0]
            );
        }
    }
}
