//! The real multi-threaded execution engine.
//!
//! Mirrors the execution model of Section 5.1: one scheduler (control)
//! thread plus a pool of worker threads, each worker executing the work
//! orders of the operator pipelines the scheduler assigns to it. Workers
//! send completion messages carrying execution statistics back to the
//! control thread (Section 2), which updates the per-operator runtime
//! state, fires scheduling events, and dispatches further work orders.
//!
//! The executor accepts the same [`Scheduler`] implementations and the
//! same [`WorkloadItem`]s as the simulator, but runs plans for real over
//! catalog blocks via [`crate::ops`], with durations measured on the wall
//! clock — this is what calibrates the simulator's cost model.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::catalog::Catalog;
use crate::ops::{execute_work_order, OpExecState, WorkOrderInput};
use crate::plan::{OpId, OpSpec, PhysicalPlan};
use crate::fault::FaultSummary;
use crate::scheduler::{
    clamp_decision_for, AdmitAction, OpStatus, QueryHot, QueryId, QueryRuntime, SchedContext,
    SchedDecision, SchedEvent, Scheduler,
};
use crate::sim::{QueryOutcome, ResilienceSummary, SimResult, WorkloadItem};
use crate::stats::WorkOrderStats;

struct Task {
    query: QueryId,
    pipeline: usize,
    op: OpId,
    input: WorkOrderInput,
    plan: Arc<PhysicalPlan>,
    states: Arc<Vec<OpExecState>>,
    catalog: Arc<Catalog>,
}

struct Completion {
    thread: usize,
    query: QueryId,
    pipeline: usize,
    op: OpId,
    duration: f64,
    memory: f64,
    output_rows: u64,
}

/// Executor-side per-query state, kept parallel to the
/// `ControlState::queries` runtime vector (same indexing, removed
/// together). Splitting the runtimes out lets [`SchedContext`] borrow
/// them as a `&[QueryRuntime]` slice directly — the legacy layout
/// deep-cloned every runtime (ops, estimators, plans) once per
/// scheduler invocation *and* once per applied decision.
struct QueryExec {
    states: Arc<Vec<OpExecState>>,
    /// Input units dispatched per op.
    consumed: Vec<usize>,
    /// Input units completed per op.
    done: Vec<usize>,
}

struct Pipeline {
    query: QueryId,
    chain: Vec<OpId>,
    threads: Vec<usize>,
    stalled: Vec<usize>,
    alive: bool,
}

/// The real threaded executor.
pub struct Executor {
    catalog: Arc<Catalog>,
    num_threads: usize,
}

impl Executor {
    /// Creates an executor over `catalog` with a worker pool of
    /// `num_threads` threads.
    pub fn new(catalog: Arc<Catalog>, num_threads: usize) -> Self {
        assert!(num_threads >= 1);
        Self { catalog, num_threads }
    }

    /// Runs `workload` (plans must carry executable [`OpSpec`]s) under
    /// `scheduler`, returning the same result shape as the simulator.
    pub fn run(&self, workload: &[WorkloadItem], scheduler: &mut dyn Scheduler) -> SimResult {
        self.run_keeping_first(workload, scheduler, false).0
    }

    /// [`Executor::run`]; with `keep_first` it also returns the operator
    /// states of the first admitted query (`None` when nothing was
    /// admitted) so a caller can read its final output rows. Without it
    /// every query's states are freed when the query leaves the run.
    fn run_keeping_first(
        &self,
        workload: &[WorkloadItem],
        scheduler: &mut dyn Scheduler,
        keep_first: bool,
    ) -> (SimResult, Option<Arc<Vec<OpExecState>>>) {
        let mut senders: Vec<Sender<Task>> = Vec::with_capacity(self.num_threads);
        let (done_tx, done_rx): (Sender<Completion>, Receiver<Completion>) = unbounded();
        let mut joins = Vec::with_capacity(self.num_threads);
        for t in 0..self.num_threads {
            let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
            senders.push(tx);
            let done = done_tx.clone();
            joins.push(std::thread::spawn(move || worker_loop(t, rx, done)));
        }
        drop(done_tx);

        let mut state = ControlState {
            catalog: Arc::clone(&self.catalog),
            num_threads: self.num_threads,
            senders,
            start: Instant::now(),
            queries: Vec::new(),
            hot: QueryHot::new(),
            exec: Vec::new(),
            pipelines: Vec::new(),
            free_threads: (0..self.num_threads).collect(),
            in_flight: 0,
            outcomes: Vec::new(),
            aborted: Vec::new(),
            resilience: ResilienceSummary::default(),
            invocations: 0,
            decisions: 0,
            rejected: 0,
            fallbacks: 0,
            sched_wall: 0.0,
            work_orders: 0,
            keep_first,
            first_states: None,
        };

        let mut arrivals: Vec<(f64, usize)> =
            workload.iter().enumerate().map(|(i, w)| (w.arrival_time, i)).collect();
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut next_arrival = 0usize;

        loop {
            // Admit due arrivals.
            let now = state.now();
            while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
                let (_, wi) = arrivals[next_arrival];
                next_arrival += 1;
                state.admit(&workload[wi], wi, scheduler);
            }

            // SLO enforcement: cancel overdue queries cooperatively.
            state.enforce_deadlines(scheduler);

            let finished_all = state.queries.is_empty() && next_arrival >= arrivals.len();
            if finished_all {
                break;
            }

            // Progress guard: nothing running, nothing arriving soon.
            if state.in_flight == 0 && !state.queries.is_empty() {
                state.invoke_scheduler(scheduler, SchedEvent::ThreadsFreed(0));
                if state.in_flight == 0 {
                    state.force_fallback();
                }
                if state.in_flight == 0 && next_arrival >= arrivals.len() {
                    // Structural dead end; abandon remaining queries.
                    break;
                }
            }

            // Wait for the next completion or the next arrival.
            let timeout = if next_arrival < arrivals.len() {
                let dt = (arrivals[next_arrival].0 - state.now()).max(0.0);
                Duration::from_secs_f64(dt.clamp(0.0005, 0.05))
            } else {
                Duration::from_millis(50)
            };
            match done_rx.recv_timeout(timeout) {
                Ok(c) => state.handle_completion(c, scheduler),
                Err(_) => continue,
            }
        }

        // Shut the pool down.
        state.senders.clear();
        for j in joins {
            let _ = j.join();
        }

        let result = SimResult {
            makespan: state.outcomes.iter().map(|o| o.finish).fold(0.0, f64::max),
            outcomes: state.outcomes,
            sched_invocations: state.invocations,
            sched_decisions: state.decisions,
            sched_rejected: state.rejected,
            fallback_decisions: state.fallbacks,
            sched_wall_time: state.sched_wall,
            total_work_orders: state.work_orders,
            events_processed: state.work_orders,
            aborted: state.aborted,
            fault_summary: FaultSummary::default(),
            resilience: state.resilience,
            final_pool_size: self.num_threads,
            crashed_at: None,
            unfinished: Vec::new(),
        };
        (result, state.first_states)
    }

    /// Runs a single plan to completion under a trivially greedy policy
    /// and returns `(result, final output rows)` — the easiest way to
    /// execute one query and read its answer.
    pub fn run_single(
        &self,
        plan: Arc<PhysicalPlan>,
    ) -> (SimResult, Vec<Vec<crate::value::Value>>) {
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> String {
                "greedy".into()
            }
            fn on_event(&mut self, ctx: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                let mut out = Vec::new();
                for q in ctx.queries {
                    for &root in q.schedulable_ops() {
                        out.push(SchedDecision {
                            query: q.qid,
                            root,
                            pipeline_degree: q.plan.longest_npb_chain(root),
                            threads: ctx.free_threads.max(1),
                        });
                    }
                }
                out
            }
        }
        let wl = vec![WorkloadItem::new(0.0, Arc::clone(&plan))];
        let (res, states) = self.run_keeping_first(&wl, &mut Greedy, true);
        let rows = states.map(|states| states[plan.root.0].collect_rows()).unwrap_or_default();
        (res, rows)
    }
}

fn worker_loop(thread: usize, rx: Receiver<Task>, done: Sender<Completion>) {
    while let Ok(task) = rx.recv() {
        let t0 = Instant::now();
        let out = execute_work_order(&task.catalog, &task.plan, &task.states, task.op, &task.input);
        let duration = t0.elapsed().as_secs_f64();
        let _ = done.send(Completion {
            thread,
            query: task.query,
            pipeline: task.pipeline,
            op: task.op,
            duration,
            memory: out.memory_bytes as f64,
            output_rows: out.output_rows,
        });
    }
}

struct ControlState {
    catalog: Arc<Catalog>,
    num_threads: usize,
    senders: Vec<Sender<Task>>,
    start: Instant,
    /// Active query runtimes, borrowable as the `SchedContext` slice.
    queries: Vec<QueryRuntime>,
    /// SoA mirror of the per-query hot columns, rebuilt from `queries`
    /// (after fitting their regressors) right before each scheduler
    /// invocation. The executor's policy invocations are wall-clock-rare,
    /// so a wholesale rebuild is cheaper to maintain than the
    /// simulator's incremental lockstep.
    hot: QueryHot,
    /// Execution state parallel to `queries`.
    exec: Vec<QueryExec>,
    pipelines: Vec<Pipeline>,
    free_threads: Vec<usize>,
    in_flight: usize,
    outcomes: Vec<QueryOutcome>,
    /// Queries torn down before completing (deadline miss or shed).
    aborted: Vec<QueryOutcome>,
    resilience: ResilienceSummary,
    invocations: u64,
    decisions: u64,
    rejected: u64,
    fallbacks: u64,
    sched_wall: f64,
    work_orders: u64,
    /// Whether to keep the first admitted query's operator states.
    keep_first: bool,
    /// Operator states of the first admitted query when `keep_first`,
    /// kept so [`Executor::run_single`] can read its output rows.
    first_states: Option<Arc<Vec<OpExecState>>>,
}

impl ControlState {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn qidx(&self, qid: QueryId) -> Option<usize> {
        self.queries.iter().position(|q| q.qid == qid)
    }

    /// The policy-facing snapshot at `time`: fits the regressors that
    /// observed work orders since the last snapshot, then rebuilds the
    /// hot mirror from `queries` (the executor keeps no incremental
    /// mirror).
    fn snapshot(&mut self, time: f64) -> SchedContext<'_> {
        for q in &mut self.queries {
            q.refresh_estimates();
        }
        self.hot.rebuild(&self.queries);
        SchedContext {
            time,
            total_threads: self.num_threads,
            free_threads: self.free_threads.len(),
            free_thread_ids: &self.free_threads,
            queries: &self.queries,
            hot: &self.hot,
            // The threaded executor does not model a memory budget; the
            // neutral values make `mem_pressure()` read 0.
            in_flight_mem: 0.0,
            mem_budget: f64::INFINITY,
        }
    }

    fn admit(&mut self, item: &WorkloadItem, index: usize, scheduler: &mut dyn Scheduler) {
        let qid = QueryId(index as u64);
        let now = self.now();
        let mut runtime = QueryRuntime::new(qid, Arc::clone(&item.plan), now, self.num_threads);
        runtime.priority = item.priority;
        runtime.deadline = item.deadline.map(|d| now + d);
        let states: Arc<Vec<OpExecState>> =
            Arc::new((0..item.plan.num_ops()).map(|_| OpExecState::new()).collect());
        if self.keep_first && self.first_states.is_none() {
            self.first_states = Some(Arc::clone(&states));
        }
        let n = item.plan.num_ops();
        self.queries.push(runtime);
        self.exec.push(QueryExec { states, consumed: vec![0; n], done: vec![0; n] });

        // Admission gate. The real engine has no re-submission machinery
        // (that is the client's job), so a `Defer` verdict sheds like
        // `Reject`; the delay is surfaced through the sim only.
        let response = scheduler.admit(&self.snapshot(now), qid, 0);
        for victim in response.shed {
            if victim == qid {
                continue;
            }
            if let Some(vi) = self.qidx(victim) {
                self.resilience.shed += 1;
                self.abort_query(vi, scheduler);
            }
        }
        match response.action {
            AdmitAction::Admit => {
                self.invoke_scheduler(scheduler, SchedEvent::QueryArrived(qid));
            }
            AdmitAction::Reject | AdmitAction::Defer { .. } => {
                if let Some(qi) = self.qidx(qid) {
                    self.resilience.shed += 1;
                    self.abort_query(qi, scheduler);
                }
            }
        }
    }

    /// Cancels every query whose absolute deadline has passed: the
    /// policy is notified (`DeadlineExceeded`) before the cooperative
    /// teardown, matching the simulator's ordering. The real engine does
    /// not re-submit — a timed-out query is surfaced in `aborted`.
    fn enforce_deadlines(&mut self, scheduler: &mut dyn Scheduler) {
        loop {
            let now = self.now();
            let overdue = self
                .queries
                .iter()
                .position(|q| q.deadline.is_some_and(|d| d < now) && q.finish_time.is_none());
            let Some(qi) = overdue else { return };
            let qid = self.queries[qi].qid;
            self.resilience.deadline_timeouts += 1;
            self.invoke_scheduler(scheduler, SchedEvent::DeadlineExceeded(qid));
            if let Some(qi) = self.qidx(qid) {
                self.abort_query(qi, scheduler);
            }
        }
    }

    /// Tears down `self.queries[qi]` before completion: marks its
    /// pipelines dead (stalled threads are reclaimed now; busy threads
    /// come home through [`ControlState::handle_completion`]'s orphan
    /// path when their in-flight work order drains), records the aborted
    /// outcome, and fires the cancellation events.
    fn abort_query(&mut self, qi: usize, scheduler: &mut dyn Scheduler) {
        let qid = self.queries[qi].qid;
        let mut freed = 0usize;
        for p in &mut self.pipelines {
            if !p.alive || p.query != qid {
                continue;
            }
            p.alive = false;
            for t in p.stalled.drain(..) {
                p.threads.retain(|&x| x != t);
                if let Err(pos) = self.free_threads.binary_search(&t) {
                    self.free_threads.insert(pos, t);
                    freed += 1;
                }
            }
            p.threads.clear();
        }
        let now = self.now();
        let q = self.queries.remove(qi);
        self.exec.remove(qi);
        self.aborted.push(QueryOutcome {
            qid,
            name: q.plan.name.clone(),
            arrival: q.arrival_time,
            finish: now,
            duration: now - q.arrival_time,
        });
        scheduler.on_query_cancelled(now, qid);
        self.invoke_scheduler(scheduler, SchedEvent::QueryCancelled(qid));
        if freed > 0 {
            self.invoke_scheduler(scheduler, SchedEvent::ThreadsFreed(freed));
        }
    }

    /// The child an op streams from (its unique non-breaking-edge child),
    /// if any.
    fn streaming_child(plan: &PhysicalPlan, op: OpId) -> Option<OpId> {
        plan.children(op).iter().find(|e| e.non_pipeline_breaking).map(|e| e.op)
    }

    /// Whether `op` executes as a single blocking work order over all
    /// accumulated inputs.
    fn is_blocking_single(plan: &PhysicalPlan, op: OpId) -> bool {
        matches!(
            plan.op(op).spec,
            OpSpec::FinalizeAggregate
                | OpSpec::SortMergeRun { .. }
                | OpSpec::TopK { .. }
                | OpSpec::UnionAll
                | OpSpec::Materialize
        )
    }

    /// Number of input units currently available to dispatch for `op`.
    fn available_inputs(&self, qi: usize, op: OpId) -> usize {
        let q = &self.queries[qi];
        let plan = &q.plan;
        match &plan.op(op).spec {
            OpSpec::TableScan { table, .. } | OpSpec::IndexScan { table, .. } => {
                let bitmap = &plan.op(op).block_bitmap;
                if bitmap.is_empty() {
                    self.catalog.table(*table).num_blocks()
                } else {
                    bitmap.iter().filter(|&&b| b).count()
                }
            }
            _ if Self::is_blocking_single(plan, op) => {
                let ready =
                    plan.children(op).iter().all(|e| q.ops[e.op.0].status == OpStatus::Finished);
                usize::from(ready)
            }
            _ => match Self::streaming_child(plan, op) {
                Some(c) => self.exec[qi].states[c.0].output_len(),
                None => 0,
            },
        }
    }

    /// Total input units, once knowable (None while the producer still
    /// streams).
    fn total_inputs(&self, qi: usize, op: OpId) -> Option<usize> {
        let q = &self.queries[qi];
        let plan = &q.plan;
        match &plan.op(op).spec {
            OpSpec::TableScan { .. } | OpSpec::IndexScan { .. } => {
                Some(self.available_inputs(qi, op))
            }
            _ if Self::is_blocking_single(plan, op) => Some(1),
            _ => match Self::streaming_child(plan, op) {
                Some(c) => {
                    if q.ops[c.0].status == OpStatus::Finished {
                        Some(self.exec[qi].states[c.0].output_len())
                    } else {
                        None
                    }
                }
                None => Some(0),
            },
        }
    }

    /// Maps the op's input unit `idx` to a [`WorkOrderInput`].
    fn input_for(&self, qi: usize, op: OpId, idx: usize) -> WorkOrderInput {
        let q = &self.queries[qi];
        let plan = &q.plan;
        match &plan.op(op).spec {
            OpSpec::TableScan { .. } | OpSpec::IndexScan { .. } => {
                let bitmap = &plan.op(op).block_bitmap;
                if bitmap.is_empty() {
                    WorkOrderInput::BaseBlock { idx }
                } else {
                    // Defensive: an out-of-range unit (counters drifted)
                    // degrades to the raw index; the operator treats a
                    // missing block as empty input rather than panicking.
                    let real = bitmap
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b)
                        .map(|(i, _)| i)
                        .nth(idx)
                        .unwrap_or(idx);
                    WorkOrderInput::BaseBlock { idx: real }
                }
            }
            _ if Self::is_blocking_single(plan, op) => WorkOrderInput::AllInputs,
            _ => match Self::streaming_child(plan, op) {
                Some(child) => WorkOrderInput::ChildBlock { child, idx },
                // A streaming op with no child never reports available
                // inputs; degrade to a full-input order if it happens.
                None => WorkOrderInput::AllInputs,
            },
        }
    }

    fn dispatch_thread(&mut self, pid: usize, thread: usize) {
        let (qid, chain) = {
            let p = &self.pipelines[pid];
            (p.query, p.chain.clone())
        };
        let qi = match self.qidx(qid) {
            Some(i) => i,
            None => return,
        };
        for &op in &chain {
            if self.maybe_finish_exhausted(qi, op) {
                continue;
            }
            let consumed = self.exec[qi].consumed[op.0];
            let avail = self.available_inputs(qi, op);
            if consumed < avail {
                let input = self.input_for(qi, op, consumed);
                self.exec[qi].consumed[op.0] += 1;
                // Keep the feature-facing counters coherent with reality.
                let rt = &mut self.queries[qi].ops[op.0];
                let dispatched_total = rt.completed_work_orders + rt.dispatched_work_orders + 1;
                if dispatched_total > rt.total_work_orders {
                    rt.total_work_orders = dispatched_total;
                }
                rt.dispatched_work_orders += 1;
                if let Some(slot) = self.queries[qi].executed_on.get_mut(thread) {
                    *slot = true;
                }
                let task = Task {
                    query: qid,
                    pipeline: pid,
                    op,
                    input,
                    plan: Arc::clone(&self.queries[qi].plan),
                    states: Arc::clone(&self.exec[qi].states),
                    catalog: Arc::clone(&self.catalog),
                };
                self.in_flight += 1;
                self.work_orders += 1;
                let _ = self.senders[thread].send(task);
                return;
            }
        }
        let p = &mut self.pipelines[pid];
        if !p.stalled.contains(&thread) {
            p.stalled.push(thread);
        }
    }

    /// Finalizes an operator whose real input turned out exhausted with
    /// no work in flight (e.g. a scan over an empty bitmap). Returns
    /// whether the operator is finished.
    fn maybe_finish_exhausted(&mut self, qi: usize, op: OpId) -> bool {
        if self.queries[qi].ops[op.0].status == OpStatus::Finished {
            return true;
        }
        if self.queries[qi].ops[op.0].dispatched_work_orders > 0 {
            return false;
        }
        if let Some(total) = self.total_inputs(qi, op) {
            if self.exec[qi].done[op.0] >= total {
                let rt = &mut self.queries[qi].ops[op.0];
                rt.total_work_orders = rt.completed_work_orders;
                self.queries[qi].force_finish(op);
                return true;
            }
        }
        false
    }

    fn handle_completion(&mut self, c: Completion, scheduler: &mut dyn Scheduler) {
        self.in_flight -= 1;
        let qi = match self.qidx(c.query) {
            Some(i) => i,
            None => {
                // Orphaned completion: the query was aborted (deadline
                // or shed) while this work order was in flight. Route
                // the worker home so the pool does not leak capacity.
                if let Err(pos) = self.free_threads.binary_search(&c.thread) {
                    self.free_threads.insert(pos, c.thread);
                    self.invoke_scheduler(scheduler, SchedEvent::ThreadsFreed(1));
                }
                return;
            }
        };
        self.exec[qi].done[c.op.0] += 1;

        let stats = WorkOrderStats {
            duration: c.duration,
            memory: c.memory,
            output_rows: c.output_rows,
            completed_at: self.now(),
        };
        self.queries[qi].observe_wo_completion(c.op, &stats);

        // Exact-finish detection against real input totals.
        let mut op_finished = self.queries[qi].ops[c.op.0].status == OpStatus::Finished;
        if !op_finished {
            if let Some(total) = self.total_inputs(qi, c.op) {
                if self.exec[qi].done[c.op.0] >= total
                    && self.queries[qi].ops[c.op.0].dispatched_work_orders == 0
                {
                    let rt = &mut self.queries[qi].ops[c.op.0];
                    rt.total_work_orders = rt.completed_work_orders;
                    self.queries[qi].force_finish(c.op);
                    op_finished = true;
                }
            }
        }

        // Wake threads: the completing one, plus stalled threads of all of
        // this query's pipelines (producer progress unblocks consumers).
        let mut wake: Vec<(usize, usize)> = vec![(c.pipeline, c.thread)];
        for (i, p) in self.pipelines.iter_mut().enumerate() {
            if p.alive && p.query == c.query {
                wake.extend(p.stalled.drain(..).map(|t| (i, t)));
            }
        }
        for (p, t) in wake {
            self.dispatch_thread(p, t);
        }

        // Pipeline completion: any pipeline of this query whose chain is
        // fully finished and whose threads are all stalled can release.
        let mut freed = 0usize;
        for pi in 0..self.pipelines.len() {
            let done = {
                let p = &self.pipelines[pi];
                p.alive
                    && p.query == c.query
                    && p.chain.iter().all(|o| {
                        self.queries[qi].ops[o.0].status == OpStatus::Finished
                    })
                    && p.threads.iter().all(|t| p.stalled.contains(t))
            };
            if done {
                let p = &mut self.pipelines[pi];
                p.alive = false;
                let n = p.threads.len();
                freed += n;
                let threads = std::mem::take(&mut p.threads);
                p.stalled.clear();
                self.queries[qi].assigned_threads -= n;
                self.free_threads.extend(threads);
                self.free_threads.sort_unstable();
            }
        }

        // Query completion.
        let mut query_finished = false;
        if self.queries[qi].is_finished() {
            query_finished = true;
            let now = self.now();
            let q = &mut self.queries[qi];
            q.finish_time = Some(now);
            self.outcomes.push(QueryOutcome {
                qid: q.qid,
                name: q.plan.name.clone(),
                arrival: q.arrival_time,
                finish: now,
                duration: now - q.arrival_time,
            });
            scheduler.on_query_finished(now, c.query);
            self.queries.remove(qi);
            self.exec.remove(qi);
        }

        if op_finished && !query_finished {
            self.invoke_scheduler(
                scheduler,
                SchedEvent::OperatorCompleted { query: c.query, op: c.op },
            );
        }
        if freed > 0 {
            self.invoke_scheduler(scheduler, SchedEvent::ThreadsFreed(freed));
        }
    }

    fn apply_decision(&mut self, d: &SchedDecision) -> bool {
        // Re-validate against the *current* state, re-clamping the thread
        // grant in case the pool state changed since the event snapshot.
        let Some((d, qi)) = self.qidx(d.query).and_then(|qi| {
            clamp_decision_for(&self.queries[qi], self.free_threads.len(), d).ok().map(|c| (c, qi))
        }) else {
            self.rejected += 1;
            return false;
        };
        let chain = self.queries[qi].startable_chain(d.root, d.pipeline_degree).to_vec();
        let grant = d.threads.min(self.free_threads.len()).max(1);
        let threads: Vec<usize> = self.free_threads.drain(..grant).collect();
        for &op in &chain {
            self.queries[qi].mark_running(op);
        }
        self.queries[qi].assigned_threads += threads.len();
        let pid = self.pipelines.len();
        self.pipelines.push(Pipeline {
            query: d.query,
            chain,
            threads: threads.clone(),
            stalled: Vec::new(),
            alive: true,
        });
        for t in threads {
            self.dispatch_thread(pid, t);
        }
        self.decisions += 1;
        true
    }

    fn invoke_scheduler(&mut self, scheduler: &mut dyn Scheduler, event: SchedEvent) {
        if self.free_threads.is_empty() {
            return;
        }
        let has_work = self.queries.iter().any(QueryRuntime::has_schedulable);
        if !has_work {
            return;
        }
        let (decisions, elapsed) = {
            let ctx = self.snapshot(self.now());
            let t0 = Instant::now();
            let ds = scheduler.on_event(&ctx, &event);
            (ds, t0.elapsed().as_secs_f64())
        };
        self.sched_wall += elapsed;
        self.invocations += 1;
        for d in &decisions {
            if self.free_threads.is_empty() {
                break;
            }
            self.apply_decision(d);
        }
    }

    fn force_fallback(&mut self) {
        if self.free_threads.is_empty() {
            // Pipelines hold threads but everything is stalled — should
            // not happen; release stalled threads of dead-end pipelines.
            return;
        }
        let candidate = self
            .queries
            .iter()
            .find_map(|q| q.schedulable_ops().first().map(|&op| (q.qid, op)));
        if let Some((qid, op)) = candidate {
            let d = SchedDecision { query: qid, root: op, pipeline_degree: 1, threads: 1 };
            if self.apply_decision(&d) {
                self.fallbacks += 1;
                self.decisions -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Column;
    use crate::catalog::{Schema, Table};
    use crate::expr::{CmpOp, Predicate, ScalarExpr};
    use crate::plan::{AggFunc, OpKind, PlanBuilder};
    use crate::value::{ColumnType, Value};

    fn catalog_with_nums(rows: i64, per_block: usize) -> Arc<Catalog> {
        let mut cat = Catalog::new();
        cat.add_table(Table::from_columns(
            "nums",
            Schema::new(vec![("id", ColumnType::Int64), ("v", ColumnType::Float64)]),
            vec![
                Column::I64((0..rows).collect()),
                Column::F64((0..rows).map(|i| i as f64).collect()),
            ],
            per_block,
        ));
        Arc::new(cat)
    }

    /// scan(nums) -> select(id >= 100) -> aggregate(sum v, count) -> finalize
    fn agg_plan(cat: &Catalog) -> Arc<PhysicalPlan> {
        let tid = cat.table_id("nums").unwrap();
        let nblocks = cat.table(tid).num_blocks() as u32;
        let mut b = PlanBuilder::new("exec_agg");
        let scan = b.add_op(
            OpKind::TableScan,
            OpSpec::TableScan { table: tid, predicate: Predicate::True, project: None },
            vec![0],
            vec![0, 1],
            1000.0,
            nblocks,
            1e-4,
            1e4,
        );
        let sel = b.add_op(
            OpKind::Select,
            OpSpec::Select { predicate: Predicate::col_cmp(0, CmpOp::Ge, 100i64) },
            vec![0],
            vec![0],
            900.0,
            nblocks,
            1e-4,
            1e4,
        );
        let agg = b.add_op(
            OpKind::Aggregate,
            OpSpec::Aggregate {
                group_by: vec![],
                aggs: vec![
                    (AggFunc::Sum, ScalarExpr::col(1)),
                    (AggFunc::Count, ScalarExpr::col(0)),
                ],
            },
            vec![0],
            vec![1],
            900.0,
            nblocks,
            2e-4,
            2e4,
        );
        let fin = b.add_op(
            OpKind::FinalizeAggregate,
            OpSpec::FinalizeAggregate,
            vec![0],
            vec![1],
            1.0,
            1,
            1e-4,
            1e3,
        );
        b.connect(scan, sel, true);
        b.connect(sel, agg, true);
        b.connect(agg, fin, false);
        Arc::new(b.finish(fin))
    }

    #[test]
    fn executor_runs_aggregation_correctly() {
        let cat = catalog_with_nums(1000, 64);
        let plan = agg_plan(&cat);
        let exec = Executor::new(Arc::clone(&cat), 4);
        let (res, rows) = exec.run_single(plan);
        assert_eq!(res.outcomes.len(), 1);
        assert!(res.makespan > 0.0);
        // ids 100..1000: sum v = sum(100..999) = (100+999)*900/2, count 900.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Float64((100.0 + 999.0) * 900.0 / 2.0));
        assert_eq!(rows[0][1], Value::Int64(900));
    }

    #[test]
    fn executor_hash_join_end_to_end() {
        let mut cat = Catalog::new();
        cat.add_table(Table::from_columns(
            "dim",
            Schema::new(vec![("k", ColumnType::Int64), ("label", ColumnType::Int64)]),
            vec![Column::I64((0..10).collect()), Column::I64((0..10).map(|i| i * 100).collect())],
            4,
        ));
        cat.add_table(Table::from_columns(
            "fact",
            Schema::new(vec![("fk", ColumnType::Int64), ("m", ColumnType::Float64)]),
            vec![
                Column::I64((0..100).map(|i| i % 10).collect()),
                Column::F64((0..100).map(|i| i as f64).collect()),
            ],
            16,
        ));
        let cat = Arc::new(cat);
        let dim = cat.table_id("dim").unwrap();
        let fact = cat.table_id("fact").unwrap();

        let mut b = PlanBuilder::new("exec_join");
        let sd = b.add_op(
            OpKind::TableScan,
            OpSpec::TableScan { table: dim, predicate: Predicate::True, project: None },
            vec![0], vec![0, 1], 10.0, 3, 1e-4, 1e3,
        );
        let sf = b.add_op(
            OpKind::TableScan,
            OpSpec::TableScan { table: fact, predicate: Predicate::True, project: None },
            vec![1], vec![2, 3], 100.0, 7, 1e-4, 1e3,
        );
        let bh = b.add_op(OpKind::BuildHash, OpSpec::BuildHash { keys: vec![0] }, vec![0], vec![0], 10.0, 3, 1e-4, 1e3);
        let ph = b.add_op(OpKind::ProbeHash, OpSpec::ProbeHash { keys: vec![0] }, vec![0, 1], vec![0, 2], 100.0, 7, 1e-4, 1e3);
        // count joined rows
        let agg = b.add_op(
            OpKind::Aggregate,
            OpSpec::Aggregate { group_by: vec![], aggs: vec![(AggFunc::Count, ScalarExpr::col(0))] },
            vec![0, 1], vec![], 100.0, 7, 1e-4, 1e3,
        );
        let fin = b.add_op(OpKind::FinalizeAggregate, OpSpec::FinalizeAggregate, vec![0, 1], vec![], 1.0, 1, 1e-4, 1e3);
        b.connect(sd, bh, true);
        b.connect(sf, ph, true);
        b.connect(bh, ph, false);
        b.connect(ph, agg, true);
        b.connect(agg, fin, false);
        let plan = Arc::new(b.finish(fin));

        let exec = Executor::new(Arc::clone(&cat), 3);
        let (res, rows) = exec.run_single(plan);
        assert_eq!(res.outcomes.len(), 1);
        // Every fact row matches exactly one dim row.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int64(100));
    }

    #[test]
    fn executor_multi_query_batch() {
        let cat = catalog_with_nums(400, 32);
        let plans: Vec<_> = (0..4).map(|_| agg_plan(&cat)).collect();
        let wl: Vec<WorkloadItem> = plans
            .into_iter()
            .map(|plan| WorkloadItem::new(0.0, plan))
            .collect();
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> String {
                "greedy".into()
            }
            fn on_event(&mut self, ctx: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                let mut out = Vec::new();
                for q in ctx.queries {
                    for &root in q.schedulable_ops() {
                        out.push(SchedDecision {
                            query: q.qid,
                            root,
                            pipeline_degree: q.plan.longest_npb_chain(root),
                            threads: 1,
                        });
                    }
                }
                out
            }
        }
        let exec = Executor::new(cat, 4);
        let res = exec.run(&wl, &mut Greedy);
        assert_eq!(res.outcomes.len(), 4);
        assert!(res.total_work_orders >= 4 * (13 + 13 + 13 + 1) as u64 / 2);
        assert!(res.sched_invocations > 0);
    }

    /// Every context the threaded executor builds after work orders
    /// complete shows the operator estimates an eager refit would give:
    /// each regressor's prediction equals a fresh least-squares fit of
    /// its window, and the `est_work` / `remaining_wos` columns equal
    /// the sums over those fits, bit for bit. Reading a prediction the
    /// snapshot did not refresh trips `predict_next`'s debug assertion.
    #[test]
    fn executor_context_sees_refreshed_estimates() {
        #[derive(Default)]
        struct Checker {
            contexts: usize,
            observed_ops: usize,
            mismatches: usize,
        }
        impl Scheduler for Checker {
            fn name(&self) -> String {
                "estimate-checker".into()
            }
            fn on_event(&mut self, ctx: &SchedContext<'_>, _: &SchedEvent) -> Vec<SchedDecision> {
                self.contexts += 1;
                let mut out = Vec::new();
                for (qi, q) in ctx.queries.iter().enumerate() {
                    for o in &q.ops {
                        self.observed_ops += usize::from(o.dur_estimator.count() > 0);
                        self.mismatches += usize::from(
                            o.dur_estimator.predict_next().to_bits()
                                != o.dur_estimator.fit().to_bits()
                                || o.mem_estimator.predict_next().to_bits()
                                    != o.mem_estimator.fit().to_bits(),
                        );
                    }
                    let est: f64 = q
                        .ops
                        .iter()
                        .map(|o| o.dur_estimator.fit() * o.remaining_work_orders() as f64)
                        .sum();
                    let remaining: u32 = q.ops.iter().map(|o| o.remaining_work_orders()).sum();
                    self.mismatches += usize::from(
                        ctx.hot.est_work[qi].to_bits() != est.to_bits()
                            || ctx.hot.remaining_wos[qi] != remaining,
                    );
                    for &root in q.schedulable_ops() {
                        out.push(SchedDecision { query: q.qid, root, pipeline_degree: 1, threads: 1 });
                    }
                }
                out
            }
        }
        let cat = catalog_with_nums(400, 32);
        let wl: Vec<WorkloadItem> = (0..4).map(|_| WorkloadItem::new(0.0, agg_plan(&cat))).collect();
        let mut checker = Checker::default();
        let res = Executor::new(cat, 2).run(&wl, &mut checker);
        assert_eq!(res.outcomes.len(), 4);
        assert!(checker.contexts > 0);
        assert!(checker.observed_ops > 0, "no context saw a completed work order");
        assert_eq!(checker.mismatches, 0);
    }
}
