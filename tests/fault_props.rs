//! Property-based robustness tests: fault injection must conserve
//! queries, stay bit-identical across same-seed runs, and the guarded
//! scheduler must absorb a NaN-poisoned learned policy end-to-end.

use lsched::prelude::*;
use lsched::sched::GuardedScheduler as Guard;
use lsched::workloads::tpch;
use proptest::prelude::*;

fn policy(which: u8) -> Box<dyn Scheduler> {
    match which % 5 {
        0 => Box::new(FifoScheduler),
        1 => Box::new(FairScheduler::default()),
        2 => Box::new(SjfScheduler),
        3 => Box::new(CriticalPathScheduler),
        _ => Box::new(QuickstepScheduler),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Conservation under randomized fault plans: every planned query is
    /// accounted for exactly once, as completed or aborted, and the
    /// fault counters agree with the abort list.
    #[test]
    fn faults_conserve_queries(
        n_queries in 1usize..12,
        threads in 2usize..12,
        seed in 0u64..500,
        which in 0u8..5,
        losses in 0usize..4,
        rejoins in 0usize..4,
        fail_prob in 0.0f64..0.15,
        straggler_prob in 0.0f64..0.1,
        n_cancel in 0usize..3,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 80.0 }, seed);
        let faults = FaultPlan {
            seed,
            worker_loss: (0..losses).map(|i| (0.01 + 0.02 * i as f64, 1)).collect(),
            worker_rejoin: (0..rejoins).map(|i| (0.05 + 0.03 * i as f64, 1)).collect(),
            wo_failure_prob: fail_prob,
            straggler_prob,
            cancellations: (0..n_cancel).map(|i| (0.02 + 0.05 * i as f64, i as u64)).collect(),
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            num_threads: threads,
            seed,
            faults: Some(faults),
            ..Default::default()
        };
        let mut s = policy(which);
        let res = try_simulate(cfg, &wl, s.as_mut()).expect("fault run must not error");
        prop_assert_eq!(
            res.outcomes.len() + res.aborted.len(),
            n_queries,
            "completed + aborted must equal planned"
        );
        let mut ids: Vec<u64> = res
            .outcomes
            .iter()
            .chain(res.aborted.iter())
            .map(|o| o.qid.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n_queries, "each query accounted exactly once");
        prop_assert_eq!(
            res.fault_summary.queries_cancelled + res.fault_summary.queries_failed,
            res.aborted.len() as u64
        );
        for o in res.outcomes.iter().chain(res.aborted.iter()) {
            prop_assert!(o.finish >= o.arrival);
        }
    }

    /// A worker rejoin scheduled at the same tick as a worker loss must
    /// never double-count pool capacity: the drained pool size is exactly
    /// `initial - lost + joined`, whatever order the two events pop in.
    #[test]
    fn same_tick_loss_and_rejoin_conserves_pool_capacity(
        n_queries in 1usize..10,
        threads in 3usize..10,
        seed in 0u64..300,
        which in 0u8..5,
        k in 1usize..3,
        tick in 0.01f64..0.2,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Batch, seed);
        let faults = FaultPlan {
            seed,
            worker_loss: vec![(tick, k)],
            worker_rejoin: vec![(tick, k)],
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            num_threads: threads,
            seed,
            faults: Some(faults),
            ..Default::default()
        };
        let mut s = policy(which);
        let res = try_simulate(cfg, &wl, s.as_mut()).expect("fault run must not error");
        prop_assert_eq!(res.outcomes.len(), n_queries, "loss+rejoin must not abort queries");
        let expected = threads as u64 - res.fault_summary.workers_lost
            + res.fault_summary.workers_joined;
        prop_assert_eq!(
            res.final_pool_size as u64,
            expected,
            "pool capacity must balance: {:?}",
            res.fault_summary
        );
    }

    /// Same seed, same plan: fault-injected runs are bit-identical.
    #[test]
    fn faulted_runs_are_bit_identical(
        n_queries in 1usize..10,
        threads in 2usize..10,
        seed in 0u64..500,
        which in 0u8..5,
    ) {
        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Batch, seed);
        let faults = FaultPlan {
            seed,
            worker_loss: vec![(0.02, 1)],
            worker_rejoin: vec![(0.1, 1)],
            wo_failure_prob: 0.08,
            straggler_prob: 0.05,
            cancellations: vec![(0.05, 0)],
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            num_threads: threads,
            seed,
            faults: Some(faults),
            ..Default::default()
        };
        let r1 = try_simulate(cfg.clone(), &wl, policy(which).as_mut()).unwrap();
        let r2 = try_simulate(cfg, &wl, policy(which).as_mut()).unwrap();
        prop_assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        prop_assert_eq!(r1.avg_duration().to_bits(), r2.avg_duration().to_bits());
        prop_assert_eq!(r1.sched_decisions, r2.sched_decisions);
        prop_assert_eq!(r1.fault_summary, r2.fault_summary);
        prop_assert_eq!(r1.outcomes.len(), r2.outcomes.len());
        prop_assert_eq!(r1.aborted.len(), r2.aborted.len());
        for (a, b) in r1.outcomes.iter().zip(r2.outcomes.iter()) {
            prop_assert_eq!(a.qid, b.qid);
            prop_assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
    }
}

/// A NaN-poisoned learned policy behind the circuit breaker must not
/// take down the run: the breaker trips, the fallback heuristic finishes
/// every query.
#[test]
fn guarded_scheduler_absorbs_poisoned_model() {
    let pool = tpch::plan_pool(&[0.3]);
    let wl = gen_workload(&pool, 10, ArrivalPattern::Streaming { lambda: 60.0 }, 11);
    let mut model = LSchedModel::new(LSchedConfig::default(), 0);
    let ids: Vec<_> = model.store.iter_ids().map(|(id, _)| id).collect();
    for id in ids {
        model
            .store
            .value_mut(id)
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = f32::NAN);
    }
    let mut guard = Guard::new(LSchedScheduler::greedy(model));
    let res = simulate(SimConfig { num_threads: 6, ..Default::default() }, &wl, &mut guard);
    assert_eq!(res.outcomes.len(), 10, "fallback must finish every query");
    assert!(guard.stats().trips >= 1, "NaN policy must trip the breaker");
    assert!(guard.stats().fallback_events > 0);
    assert_eq!(guard.health(), PolicyHealth::Degraded, "guard off primary reports degraded");
}

/// Regression for the stale-clamp bug: a query cancelled while the
/// breaker is in `Fallback(cooldown)` used to leave a live-context clamp
/// failure behind — the first post-recovery decision naming it tripped
/// the breaker again. The guard must instead drop such decisions
/// silently and count them as `stale_decisions`.
#[test]
fn cancellation_during_cooldown_does_not_retrip_on_stale_decisions() {
    use lsched::engine::OpId;

    /// Panics once to open the breaker, then keeps re-issuing a decision
    /// for every query it saw cancelled — modelling a stateful policy
    /// whose cache missed a teardown during cooldown.
    struct CachesCancelled {
        seen: u32,
        dead: Vec<QueryId>,
        delegate: QuickstepScheduler,
    }
    impl Scheduler for CachesCancelled {
        fn name(&self) -> String {
            "caches_cancelled".into()
        }
        fn on_event(&mut self, ctx: &SchedContext<'_>, ev: &SchedEvent) -> Vec<SchedDecision> {
            self.seen += 1;
            if self.seen == 3 {
                panic!("one-shot inference failure");
            }
            let mut ds = self.delegate.on_event(ctx, ev);
            if let Some(&qid) = self.dead.last() {
                if ctx.queries.iter().all(|q| q.qid != qid) {
                    ds.push(SchedDecision {
                        query: qid,
                        root: OpId(0),
                        pipeline_degree: 1,
                        threads: 1,
                    });
                }
            }
            ds
        }
        fn on_query_cancelled(&mut self, _time: f64, query: QueryId) {
            self.dead.push(query);
        }
    }

    let pool = tpch::plan_pool(&[0.3]);
    let mut wl = gen_workload(&pool, 10, ArrivalPattern::Batch, 13);
    // The last query misses its SLO instantly: its deadline event fires
    // at arrival, during the breaker's cooldown (opened by the panic at
    // event 3, which is also an arrival in a batch workload).
    wl[9] = wl[9].clone().with_deadline(0.0);
    let inner = CachesCancelled { seen: 0, dead: Vec::new(), delegate: QuickstepScheduler };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut guard = lsched::sched::GuardedScheduler::with_fallback(
        inner,
        QuickstepScheduler,
        lsched::sched::GuardConfig { cooldown_events: 2 },
    );
    let res = simulate(SimConfig { num_threads: 2, seed: 13, ..Default::default() }, &wl, &mut guard);
    std::panic::set_hook(prev);
    assert_eq!(res.outcomes.len() + res.aborted.len(), 10);
    assert_eq!(res.resilience.deadline_timeouts, 1);
    let stats = guard.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.trips, 1, "only the panic may trip; stale decisions must not: {stats:?}");
    assert!(stats.stale_decisions >= 1, "stale decisions must be counted: {stats:?}");
    assert_eq!(stats.invalid_decisions, 0, "stale is not invalid: {stats:?}");
    assert!(stats.recoveries >= 1, "the probe must succeed despite stale decisions");
}

/// Admission control and deadline enforcement layered on top of the
/// standard fault matrix keep chaos runs bit-identical: neither path
/// consumes fault-injection RNG.
#[test]
fn admission_and_deadlines_bit_identical_under_fault_matrix() {
    use lsched::engine::RetryPolicy;
    use lsched::sched::{Admission, AdmissionConfig};

    let run = || {
        let pool = tpch::plan_pool(&[0.3]);
        let mut wl = gen_workload(&pool, 20, ArrivalPattern::Streaming { lambda: 60.0 }, 7);
        for (i, w) in wl.iter_mut().enumerate() {
            *w = w.clone().with_priority((i % 3) as i32).with_deadline(0.05 + 0.01 * i as f64);
        }
        let faults = FaultPlan::standard_matrix(7, 8, 20, 0.5);
        let cfg = SimConfig {
            num_threads: 8,
            seed: 7,
            faults: Some(faults),
            retry: RetryPolicy { max_retries: 1, ..Default::default() },
            ..Default::default()
        };
        let gate = Admission::new(AdmissionConfig { max_queued: 4, resume_queued: 2, ..Default::default() });
        let mut guard = lsched::sched::GuardedScheduler::new(QuickstepScheduler).with_admission(gate);
        let res = try_simulate(cfg, &wl, &mut guard).unwrap();
        let stats = guard.admission_stats().unwrap();
        (res, stats)
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
    assert_eq!(r1.fault_summary, r2.fault_summary);
    assert_eq!(r1.resilience, r2.resilience);
    assert_eq!(s1, s2, "gate counters must be deterministic");
    assert_eq!(r1.outcomes.len(), r2.outcomes.len());
    assert_eq!(r1.aborted.len(), r2.aborted.len());
    assert_eq!(
        r1.outcomes.len() + r1.aborted.len(),
        20,
        "every planned query has exactly one final fate"
    );
    for (a, b) in r1.outcomes.iter().zip(r2.outcomes.iter()) {
        assert_eq!(a.qid, b.qid);
        assert_eq!(a.finish.to_bits(), b.finish.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Enabling the predictive admission gate must not perturb RNG
    /// consumption: a *permissive* predictive gate (zero weights, so
    /// every arrival scores below threshold and is admitted, exactly
    /// like having no gate) leaves standard-fault-matrix runs
    /// bit-identical to gateless runs. Decisions may differ when the
    /// gate actually sheds; the random streams may never.
    #[test]
    fn predictive_gate_is_rng_neutral_under_fault_matrix(
        n_queries in 4usize..16,
        threads in 2usize..8,
        seed in 0u64..200,
        which in 0u8..5,
    ) {
        use lsched::core::features::ADMIT_DIM;
        use lsched::core::{PredictiveAdmission, PredictiveAdmissionConfig};
        use lsched::sched::AdmissionStack;

        let pool = tpch::plan_pool(&[0.3]);
        let wl = gen_workload(&pool, n_queries, ArrivalPattern::Streaming { lambda: 60.0 }, seed);
        let faults = FaultPlan::standard_matrix(seed, threads, n_queries, 0.5);
        let cfg = SimConfig {
            num_threads: threads,
            seed,
            faults: Some(faults),
            ..Default::default()
        };

        let mut bare = Guard::with_fallback(
            policy(which),
            QuickstepScheduler,
            lsched::sched::GuardConfig::default(),
        );
        let r_bare = try_simulate(cfg.clone(), &wl, &mut bare).unwrap();

        let mut gate = PredictiveAdmission::new(PredictiveAdmissionConfig::default());
        // Permissive warm start: score = tanh(-1.0) for every arrival,
        // always under the admit threshold.
        gate.head_mut().warm_start_linear(&[0.0; ADMIT_DIM], -1.0);
        let stack = AdmissionStack::with_primary(
            Box::new(gate),
            Admission::new(AdmissionConfig::default()),
            32,
        );
        let mut gated = Guard::with_fallback(
            policy(which),
            QuickstepScheduler,
            lsched::sched::GuardConfig::default(),
        )
        .with_admission_stack(stack);
        let r_gated = try_simulate(cfg, &wl, &mut gated).unwrap();

        prop_assert_eq!(r_bare.makespan.to_bits(), r_gated.makespan.to_bits());
        prop_assert_eq!(r_bare.fault_summary, r_gated.fault_summary);
        prop_assert_eq!(r_bare.sched_decisions, r_gated.sched_decisions);
        prop_assert_eq!(r_bare.outcomes.len(), r_gated.outcomes.len());
        for (a, b) in r_bare.outcomes.iter().zip(r_gated.outcomes.iter()) {
            prop_assert_eq!(a.qid, b.qid);
            prop_assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
        let gs = gated.gate_stats().unwrap();
        prop_assert_eq!(gs.trips, 0, "a permissive sane gate must never trip: {:?}", gs);
    }

    /// An *actively shedding* predictive gate stays bit-identical across
    /// same-seed faulted runs: its decisions change the schedule but
    /// consume no randomness.
    #[test]
    fn active_predictive_shedding_is_deterministic_under_fault_matrix(
        n_queries in 8usize..20,
        threads in 2usize..6,
        seed in 0u64..200,
    ) {
        use lsched::core::{PredictiveAdmission, PredictiveAdmissionConfig};
        use lsched::sched::AdmissionStack;

        let run = || {
            let pool = tpch::plan_pool(&[0.3]);
            let wl = gen_workload(&pool, n_queries, ArrivalPattern::Batch, seed);
            let faults = FaultPlan::standard_matrix(seed, threads, n_queries, 0.5);
            let cfg = SimConfig {
                num_threads: threads,
                seed,
                faults: Some(faults),
                ..Default::default()
            };
            // A low threshold on a batch burst: the gate sheds for real.
            let gate = PredictiveAdmission::new(PredictiveAdmissionConfig {
                admit_threshold: -0.5,
                ..Default::default()
            });
            let stack = AdmissionStack::with_primary(
                Box::new(gate),
                Admission::new(AdmissionConfig::default()),
                32,
            );
            let mut guard = Guard::new(QuickstepScheduler).with_admission_stack(stack);
            let res = try_simulate(cfg, &wl, &mut guard).unwrap();
            let gs = guard.gate_stats().unwrap();
            (res, gs)
        };
        let (r1, g1) = run();
        let (r2, g2) = run();
        prop_assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        prop_assert_eq!(r1.fault_summary, r2.fault_summary);
        prop_assert_eq!(&r1.resilience, &r2.resilience);
        prop_assert_eq!(g1, g2, "gate breaker counters must be deterministic");
        prop_assert_eq!(r1.outcomes.len() + r1.aborted.len(), n_queries);
        for (a, b) in r1.outcomes.iter().zip(r2.outcomes.iter()) {
            prop_assert_eq!(a.qid, b.qid);
            prop_assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
    }
}

/// End-to-end starvation bound: under a deferring predictive gate no
/// query is deferred more than `max_defer_bound()` times, and the sim's
/// observed `max_defer_attempts` metric proves it.
#[test]
fn predictive_starvation_bound_holds_under_overload() {
    use lsched::core::{PredictiveAdmission, PredictiveAdmissionConfig};
    use lsched::sched::AdmissionStack;

    let cfg_gate = PredictiveAdmissionConfig {
        admit_threshold: -0.2, // aggressive: defers readily
        starve_penalty: 0.08,
        ..Default::default()
    };
    let bound = PredictiveAdmission::new(cfg_gate.clone()).max_defer_bound();
    assert!((1..=31).contains(&bound), "bound {bound} must be within the engine cap");

    let pool = tpch::plan_pool(&[0.3]);
    let wl = gen_workload(&pool, 30, ArrivalPattern::Batch, 21);
    let gate = PredictiveAdmission::new(cfg_gate);
    let stack = AdmissionStack::with_primary(
        Box::new(gate),
        Admission::new(AdmissionConfig::default()),
        32,
    );
    let mut guard = lsched::sched::GuardedScheduler::new(QuickstepScheduler)
        .with_admission_stack(stack);
    let res = simulate(SimConfig { num_threads: 2, seed: 21, ..Default::default() }, &wl, &mut guard);
    assert_eq!(res.outcomes.len() + res.aborted.len(), 30);
    assert!(
        res.resilience.deferred >= 1,
        "a 30-query burst on 2 threads must trigger deferrals: {:?}",
        res.resilience
    );
    assert!(
        res.resilience.max_defer_attempts <= bound,
        "observed defers {} exceed the proven bound {bound}",
        res.resilience.max_defer_attempts
    );
    assert_eq!(guard.gate_stats().unwrap().trips, 0, "the warm-start head is sane");
}

/// The breaker stays transparent when faults hammer a healthy heuristic:
/// guarded and bare runs of the standard fault matrix are bit-identical.
#[test]
fn guard_is_transparent_under_fault_matrix() {
    let pool = tpch::plan_pool(&[0.3]);
    let wl = gen_workload(&pool, 20, ArrivalPattern::Streaming { lambda: 60.0 }, 5);
    let faults = FaultPlan::standard_matrix(5, 8, 20, 0.5);
    let cfg = SimConfig {
        num_threads: 8,
        seed: 5,
        faults: Some(faults),
        ..Default::default()
    };
    let bare = try_simulate(cfg.clone(), &wl, &mut QuickstepScheduler).unwrap();
    let mut guard = Guard::new(QuickstepScheduler);
    let guarded = try_simulate(cfg, &wl, &mut guard).unwrap();
    assert_eq!(bare.makespan.to_bits(), guarded.makespan.to_bits());
    assert_eq!(bare.fault_summary, guarded.fault_summary);
    assert_eq!(guard.stats().trips, 0, "healthy policy never trips");
}
