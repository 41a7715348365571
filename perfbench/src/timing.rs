//! A forwarding [`SchedulerPolicy`] wrapper that times the policy layer.
//!
//! The traced run wraps the workload's policy in [`Timed`]; every trait
//! method forwards to the inner policy, and the two that do the policy's
//! work (`schedule` and `on_event`) are timed with [`Instant`]. The tally
//! lives behind an `Rc` so it outlives the boxed policy the simulation
//! consumes. Wrapping must never change a decision: the tests at the
//! bottom pin the wrapped run's serialized outcome to the unwrapped one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tetris_obs::{MetricsRegistry, PlacementProvenance};
use tetris_sim::{Assignment, ClusterView, SchedulerEvent, SchedulerPolicy};
use tetris_workload::TaskUid;

/// What the wrapper measured over one or more runs.
#[derive(Debug, Default)]
pub struct PolicyTally {
    /// Nanoseconds of each `schedule` call, in call order.
    pub schedule_ns: Vec<u64>,
    /// Total nanoseconds inside `on_event`.
    pub on_event_ns: u64,
    /// `on_event` calls.
    pub on_event_calls: u64,
    /// Assignments returned by `schedule`.
    pub assignments: u64,
    /// `RoundComplete` events seen: one per scheduling heartbeat.
    pub heartbeats: u64,
}

impl PolicyTally {
    /// Seconds spent inside `schedule`.
    pub fn schedule_s(&self) -> f64 {
        self.schedule_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Seconds spent inside `on_event`.
    pub fn on_event_s(&self) -> f64 {
        self.on_event_ns as f64 * 1e-9
    }
}

/// Shared handle to a [`PolicyTally`].
pub type Tally = Rc<RefCell<PolicyTally>>;

/// Forwarding timer around any policy.
pub struct Timed {
    inner: Box<dyn SchedulerPolicy>,
    tally: Tally,
}

impl Timed {
    /// Wrap `inner`, recording into `tally`.
    pub fn new(inner: Box<dyn SchedulerPolicy>, tally: Tally) -> Self {
        Timed { inner, tally }
    }
}

impl SchedulerPolicy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        let start = Instant::now();
        self.inner.on_event(view, event);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.tally.borrow_mut();
        t.on_event_ns += ns;
        t.on_event_calls += 1;
        if matches!(event, SchedulerEvent::RoundComplete) {
            t.heartbeats += 1;
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let start = Instant::now();
        let out = self.inner.schedule(view);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = self.tally.borrow_mut();
        t.schedule_ns.push(ns);
        t.assignments += out.len() as u64;
        out
    }

    fn uses_tracker(&self) -> bool {
        self.inner.uses_tracker()
    }

    fn set_capture_provenance(&mut self, on: bool) {
        self.inner.set_capture_provenance(on);
    }

    fn take_provenance(&mut self, task: TaskUid) -> Option<PlacementProvenance> {
        self.inner.take_provenance(task)
    }

    fn drain_metrics(&mut self, metrics: &mut MetricsRegistry) {
        self.inner.drain_metrics(metrics);
    }

    fn export_state(&self) -> Option<String> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &str) {
        self.inner.import_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{wire, PolicyKind};
    use tetris_resources::MachineSpec;
    use tetris_sim::{ClusterConfig, Journal, RunResult, SchedulerCrash, SimConfig, Simulation};
    use tetris_workload::WorkloadSuiteConfig;

    fn small_run(kind: PolicyKind, wrap: Option<Tally>) -> String {
        let workload = WorkloadSuiteConfig::scaled(8, 0.03).generate(3);
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let mut cfg = SimConfig::default();
        cfg.seed = 3;
        let policy = kind.build();
        let policy: Box<dyn SchedulerPolicy> = match wrap {
            Some(t) => Box::new(Timed::new(policy, t)),
            None => policy,
        };
        let outcome = Simulation::build(cluster, workload)
            .scheduler(policy)
            .config(cfg)
            .run();
        assert!(outcome.all_jobs_completed());
        wire(&outcome)
    }

    #[test]
    fn wrapped_outcome_equals_unwrapped_for_every_policy() {
        for kind in [PolicyKind::Tetris, PolicyKind::Drf, PolicyKind::Srtf] {
            let tally = Tally::default();
            let wrapped = small_run(kind, Some(tally.clone()));
            assert_eq!(wrapped, small_run(kind, None), "{kind:?}");
            let t = tally.borrow();
            assert!(!t.schedule_ns.is_empty() && t.assignments > 0, "{kind:?}");
            assert!(t.heartbeats > 0 && t.on_event_calls >= t.heartbeats);
        }
    }

    #[test]
    fn wrapper_forwards_state_through_crash_recovery() {
        // export_state/import_state ride checkpoints: a recovery through
        // the wrapper must still reproduce the uninterrupted run.
        let workload = WorkloadSuiteConfig::scaled(8, 0.03).generate(5);
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let mut cfg = SimConfig::default();
        cfg.seed = 5;
        cfg.checkpoint_every = 4;
        let wrapped = |t: &Tally| -> Box<dyn SchedulerPolicy> {
            Box::new(Timed::new(PolicyKind::Tetris.build(), t.clone()))
        };
        let tally = Tally::default();
        let golden = Simulation::build(cluster.clone(), workload.clone())
            .scheduler(wrapped(&tally))
            .config(cfg.clone())
            .run();
        let beats = tally.borrow().heartbeats;
        let mut crash = cfg.clone();
        crash.faults.sched_crash = Some(SchedulerCrash {
            at_heartbeat: beats / 2,
            mid_commit: false,
        });
        let mut j = Journal::new();
        let r = Simulation::build(cluster.clone(), workload.clone())
            .scheduler(wrapped(&tally))
            .config(crash)
            .run_result(Some(&mut j));
        assert!(matches!(r, RunResult::Crashed { .. }));
        let rec = Simulation::build(cluster, workload)
            .scheduler(wrapped(&tally))
            .config(cfg)
            .recover(&j)
            .expect("recovers");
        assert_eq!(wire(&rec.outcome), wire(&golden));
    }
}
