//! The four workloads and how each run's inputs are made.
//!
//! A round of a workload runs several independent simulations ("parts").
//! Part `i` replays a fixed job trace, drawn by the program's own
//! generator at trace seed `trace_seed + i`; `--seed` seeds the simulator
//! of every part (block and replica placement, fault-plan draws,
//! tie-breaks). The same seed therefore gives the same inputs. The traces
//! are fixed because, measured while sizing, drawing them from the run
//! seed moved a run's cost by up to 9x on the Facebook-like trace and by
//! 40% on the suite: the figures would report the draw, not the code.
//! Many small parts instead of one large simulation average out how
//! chaotically a single simulation's cost reacts to the simulator seed.

use std::time::Instant;

use tetris_baselines::{DrfScheduler, SrtfScheduler};
use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::MachineSpec;
use tetris_sim::{ClusterConfig, SchedulerPolicy, SimConfig, SimOutcome};
use tetris_workload::{FacebookTraceConfig, Workload, WorkloadSuiteConfig};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tetris on the §5.1 suite with online arrivals; `schedule()` bound.
    TetrisSuite,
    /// DRF on the Facebook-like trace, all jobs at t=0; engine bound.
    DrfFacebook,
    /// The SRTF baseline under machine crash/recover churn.
    SrtfChurn,
    /// Tetris with the journal on, killed at ¾ of its heartbeats and
    /// recovered.
    TetrisJournal,
}

impl Kind {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Kind; 4] = [
        Kind::TetrisSuite,
        Kind::DrfFacebook,
        Kind::SrtfChurn,
        Kind::TetrisJournal,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TetrisSuite => "tetris-suite",
            Kind::DrfFacebook => "drf-facebook",
            Kind::SrtfChurn => "srtf-churn",
            Kind::TetrisJournal => "tetris-journal",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The policies the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `TetrisScheduler` with the default configuration.
    Tetris,
    /// `DrfScheduler`.
    Drf,
    /// `SrtfScheduler`.
    Srtf,
}

impl PolicyKind {
    /// A fresh policy.
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            PolicyKind::Tetris => Box::new(TetrisScheduler::new(TetrisConfig::default())),
            PolicyKind::Drf => Box::new(DrfScheduler::new()),
            PolicyKind::Srtf => Box::new(SrtfScheduler::new()),
        }
    }
}

/// Checkpoint interval of `tetris-journal`, in heartbeats.
pub const CHECKPOINT_EVERY: u64 = 32;
/// `tetris-journal` kills the scheduler at this share of the
/// uninterrupted run's heartbeats.
pub const CRASH_AT: (u64, u64) = (3, 4);

/// One independent simulation of a workload: its cluster, jobs and
/// simulator settings.
pub struct Part {
    /// The cluster.
    pub cluster: ClusterConfig,
    /// The generated jobs.
    pub workload: Workload,
    /// Simulator settings (seed, faults, checkpoint cadence).
    pub cfg: SimConfig,
}

/// Everything one run of a workload needs.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The independent simulations one round runs, in order.
    pub parts: Vec<Part>,
    /// The policy every simulation builds afresh.
    pub policy: PolicyKind,
    /// Seconds spent in the workload generator.
    pub gen_s: f64,
}

impl Inputs {
    /// Tasks in one round.
    pub fn tasks(&self) -> usize {
        self.parts.iter().map(|p| p.workload.num_tasks()).sum()
    }
}

/// The fixed shape of a workload: how many simulations a round runs, the
/// cluster each runs on, and the trace seed of the first one (part `i`
/// replays the trace drawn from `trace_seed + i`).
pub struct Shape {
    /// Simulations per round.
    pub parts: usize,
    /// Machines per simulation.
    pub machines: usize,
    /// Generator seed of part 0's jobs.
    pub trace_seed: u64,
}

/// The shape of `kind`.
pub fn shape(kind: Kind) -> Shape {
    let (parts, machines, trace_seed) = match kind {
        Kind::TetrisSuite => (8, 30, 100),
        Kind::DrfFacebook => (96, 10, 53),
        Kind::SrtfChurn => (96, 10, 60),
        Kind::TetrisJournal => (4, 8, 90),
    };
    Shape {
        parts,
        machines,
        trace_seed,
    }
}

/// The jobs of one simulation, drawn from `trace_seed`.
fn workload(kind: Kind, trace_seed: u64) -> Workload {
    let suite = |n_jobs, scale, arrival_horizon| {
        WorkloadSuiteConfig {
            n_jobs,
            scale,
            arrival_horizon,
            ..WorkloadSuiteConfig::default()
        }
        .generate(trace_seed)
    };
    match kind {
        Kind::TetrisSuite => suite(32, 0.3, 1000.0),
        Kind::DrfFacebook => zero_arrivals(
            FacebookTraceConfig {
                n_jobs: 20,
                scale: 0.05,
                ..FacebookTraceConfig::default()
            }
            .generate(trace_seed),
        ),
        Kind::SrtfChurn => suite(8, 0.08, 400.0),
        Kind::TetrisJournal => suite(8, 0.08, 300.0),
    }
}

fn sim_config(kind: Kind, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    match kind {
        Kind::SrtfChurn => {
            // The churn experiment's 10% point: crash/recover cycling with
            // a flaky tracker ahead of each crash and re-replication of
            // lost blocks (on by default in the fault plan).
            cfg.faults.crash_frac = 0.10;
            cfg.faults.crash_cycles = 3;
            cfg.faults.downtime = 150.0;
            cfg.faults.window = (60.0, 1500.0);
            cfg.faults.flake_lead = 90.0;
        }
        Kind::TetrisJournal => cfg.checkpoint_every = CHECKPOINT_EVERY,
        Kind::TetrisSuite | Kind::DrfFacebook => {}
    }
    cfg
}

/// The simulator seed of part `i` of a run seeded `seed`.
fn part_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Make the inputs of `kind` for a run seeded `seed`, timing the
/// generator.
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    let shape = shape(kind);
    let mut gen_s = 0.0;
    let parts = (0..shape.parts)
        .map(|i| {
            let t0 = Instant::now();
            let workload = workload(kind, shape.trace_seed + i as u64);
            gen_s += t0.elapsed().as_secs_f64();
            Part {
                cluster: ClusterConfig::uniform(shape.machines, MachineSpec::paper_large()),
                workload,
                cfg: sim_config(kind, part_seed(seed, i)),
            }
        })
        .collect();
    let policy = match kind {
        Kind::TetrisSuite | Kind::TetrisJournal => PolicyKind::Tetris,
        Kind::DrfFacebook => PolicyKind::Drf,
        Kind::SrtfChurn => PolicyKind::Srtf,
    };
    // Construction is part of set-up; every simulation builds its own.
    drop(std::hint::black_box(policy.build()));
    Inputs {
        kind,
        parts,
        policy,
        gen_s,
    }
}

/// Every job arrives at t=0, as in the paper's makespan runs (§5.3.1).
fn zero_arrivals(mut w: Workload) -> Workload {
    for j in &mut w.jobs {
        j.arrival = 0.0;
    }
    w
}

/// The outcome serialized, for byte-for-byte comparison.
pub fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in Kind::ALL {
            let (a, b) = (setup(kind, 4), setup(kind, 4));
            assert_eq!(a.parts.len(), shape(kind).parts);
            for (pa, pb) in a.parts.iter().zip(&b.parts) {
                assert_eq!(
                    serde_json::to_string(&pa.workload).unwrap(),
                    serde_json::to_string(&pb.workload).unwrap(),
                    "{}",
                    kind.name()
                );
                assert!(pa.workload.validate_for_cluster(pa.cluster.len()).is_ok());
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
