//! Outcome checks that work apart from the program.
//!
//! The checker reads only the workload the benchmark generated, the
//! cluster it configured, and the job and task records of a
//! [`SimOutcome`]. It never calls the outcome's own summary methods: the
//! makespan and mean job completion time it reports are recomputed from
//! the records, so a change that alters the schedule shows in them.
//!
//! A job fails if it did not complete or if any of its records breaks a
//! check:
//!
//! * every task has a machine, a start and a finish, and none was
//!   abandoned;
//! * no task runs shorter than its ideal duration (contention only slows
//!   tasks);
//! * no task starts before its job arrived or before every stage it
//!   depends on has finished;
//! * the job's finish equals its last task's finish;
//! * on each machine, the memory demand of the tasks running at any
//!   instant stays within capacity. Memory is the space resource the
//!   program holds at peak for a task's lifetime; CPU is not checked,
//!   because tracker-aware policies reclaim idle CPU by design.

use std::collections::BTreeSet;

use tetris_resources::Resource;
use tetris_sim::{ClusterConfig, SimOutcome};
use tetris_workload::Workload;

/// Slack for comparing simulated times: the engine keeps time in whole
/// microseconds, so two derived instants may differ by rounding.
const TIME_EPS: f64 = 2e-6;
/// Relative slack for the memory sum (demands are sums of `f64` bytes).
const MEM_REL_EPS: f64 = 1e-9;

/// What one outcome check found.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Jobs in the workload.
    pub attempted: u64,
    /// Jobs that did not complete or broke a check.
    pub failed: u64,
    /// Makespan recomputed from the job records (seconds).
    pub makespan_s: f64,
    /// Mean job completion time recomputed from the records (seconds).
    pub avg_jct_s: f64,
    /// The first few violations, for the log.
    pub problems: Vec<String>,
}

/// Check `outcome` against the inputs that produced it.
pub fn check(workload: &Workload, cluster: &ClusterConfig, outcome: &SimOutcome) -> Verdict {
    let mut bad: BTreeSet<usize> = BTreeSet::new();
    let mut problems: Vec<String> = Vec::new();
    let mut fail = |job: usize, msg: String, bad: &mut BTreeSet<usize>| {
        bad.insert(job);
        if problems.len() < 8 {
            problems.push(msg);
        }
    };

    let n_jobs = workload.jobs.len();
    if outcome.jobs.len() != n_jobs || outcome.tasks.len() != workload.num_tasks() {
        fail(
            0,
            format!(
                "outcome holds {} jobs / {} tasks for a workload of {} / {}",
                outcome.jobs.len(),
                outcome.tasks.len(),
                n_jobs,
                workload.num_tasks()
            ),
            &mut bad,
        );
        return Verdict {
            attempted: n_jobs as u64,
            failed: n_jobs as u64,
            makespan_s: 0.0,
            avg_jct_s: 0.0,
            problems,
        };
    }

    // Per machine: (time, +1 start / -1 end, memory, job).
    let mut mem_events: Vec<Vec<(f64, i8, f64, usize)>> = vec![Vec::new(); cluster.len()];
    // Finish recomputed from the task records, for every job whose
    // records are complete and agree with its job record.
    let mut job_finish: Vec<Option<f64>> = vec![None; n_jobs];

    for spec in &workload.jobs {
        let j = spec.id.index();
        let mut stage_span: Vec<(f64, f64)> = Vec::with_capacity(spec.stages.len());
        let mut job_ok = true;
        let mut last_finish: f64 = f64::NEG_INFINITY;
        for stage in &spec.stages {
            let (mut first, mut last) = (f64::INFINITY, f64::NEG_INFINITY);
            for task in &stage.tasks {
                let rec = &outcome.tasks[task.uid.index()];
                let placed = (rec.machine, rec.start, rec.finish);
                let (Some(m), Some(start), Some(finish)) = placed else {
                    fail(
                        j,
                        format!("task {} never ran to its end", task.uid.index()),
                        &mut bad,
                    );
                    job_ok = false;
                    continue;
                };
                if rec.abandoned || rec.uid != task.uid || rec.job != spec.id {
                    fail(
                        j,
                        format!("task {} abandoned or misfiled", task.uid.index()),
                        &mut bad,
                    );
                    job_ok = false;
                }
                if m.0 >= cluster.len() {
                    fail(
                        j,
                        format!("task {} on unknown machine {}", task.uid.index(), m.0),
                        &mut bad,
                    );
                    job_ok = false;
                    continue;
                }
                let ideal = task.ideal_duration();
                if finish - start < ideal - TIME_EPS - ideal * 1e-9 {
                    fail(
                        j,
                        format!(
                            "task {} ran {:.6}s, shorter than its ideal {:.6}s",
                            task.uid.index(),
                            finish - start,
                            ideal
                        ),
                        &mut bad,
                    );
                    job_ok = false;
                }
                if start < spec.arrival - TIME_EPS {
                    fail(
                        j,
                        format!("task {} started before its job arrived", task.uid.index()),
                        &mut bad,
                    );
                    job_ok = false;
                }
                first = first.min(start);
                last = last.max(finish);
                let mem = task.demand.get(Resource::Mem);
                mem_events[m.0].push((start, 1, mem, j));
                mem_events[m.0].push((finish, -1, mem, j));
            }
            stage_span.push((first, last));
            last_finish = last_finish.max(last);
        }
        for (k, stage) in spec.stages.iter().enumerate() {
            for &d in &stage.deps {
                if stage_span[k].0 < stage_span[d].1 - TIME_EPS {
                    fail(
                        j,
                        format!("job {j}: stage {k} started before stage {d} finished"),
                        &mut bad,
                    );
                    job_ok = false;
                }
            }
        }
        let rec = &outcome.jobs[j];
        match rec.finish {
            Some(f) if job_ok => {
                if (f - last_finish).abs() > TIME_EPS {
                    fail(
                        j,
                        format!("job {j}: finish {f} but last task finished at {last_finish}"),
                        &mut bad,
                    );
                } else {
                    job_finish[j] = Some(last_finish);
                }
            }
            Some(_) => {}
            None => fail(j, format!("job {j} did not complete"), &mut bad),
        }
    }

    for (m, events) in mem_events.iter_mut().enumerate() {
        let cap = cluster
            .capacity(tetris_sim::MachineId(m))
            .get(Resource::Mem);
        // Ends sort before starts at the same instant: a task may take
        // the memory another releases at that moment.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut held = 0.0;
        for &(t, kind, mem, job) in events.iter() {
            held += f64::from(kind) * mem;
            if kind > 0 && held > cap * (1.0 + MEM_REL_EPS) {
                fail(
                    job,
                    format!(
                        "machine {m} holds {held:.0} B of memory at t={t}, capacity {cap:.0} B"
                    ),
                    &mut bad,
                );
            }
        }
    }

    let (mut makespan, mut jct_sum, mut finished) = (0.0f64, 0.0, 0usize);
    for (spec, f) in workload.jobs.iter().zip(&job_finish) {
        if let Some(f) = *f {
            makespan = makespan.max(f);
            jct_sum += f - spec.arrival;
            finished += 1;
        }
    }
    Verdict {
        attempted: n_jobs as u64,
        failed: bad.len() as u64,
        makespan_s: makespan,
        avg_jct_s: if finished == 0 {
            0.0
        } else {
            jct_sum / finished as f64
        },
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_core::{TetrisConfig, TetrisScheduler};
    use tetris_resources::MachineSpec;
    use tetris_sim::{MachineId, SimConfig, Simulation};
    use tetris_workload::{TaskUid, WorkloadSuiteConfig};

    fn fixture() -> (Workload, ClusterConfig, SimOutcome) {
        let workload = WorkloadSuiteConfig::scaled(6, 0.03).generate(9);
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_large());
        let mut cfg = SimConfig::default();
        cfg.seed = 9;
        let outcome = Simulation::build(cluster.clone(), workload.clone())
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .config(cfg)
            .run();
        (workload, cluster, outcome)
    }

    /// First task of the first stage that has a dependency, and the last
    /// finishing task of the stage it depends on.
    fn dependent_pair(w: &Workload, o: &SimOutcome) -> (usize, TaskUid, TaskUid) {
        for job in &w.jobs {
            for stage in &job.stages {
                if let Some(&d) = stage.deps.first() {
                    let upstream = job.stages[d]
                        .tasks
                        .iter()
                        .max_by(|a, b| {
                            let fa = o.tasks[a.uid.index()].finish.unwrap();
                            let fb = o.tasks[b.uid.index()].finish.unwrap();
                            fa.total_cmp(&fb)
                        })
                        .unwrap()
                        .uid;
                    return (job.id.index(), stage.tasks[0].uid, upstream);
                }
            }
        }
        panic!("fixture has no multi-stage job");
    }

    #[test]
    fn clean_outcome_passes_and_matches_program_summaries() {
        let (w, c, o) = fixture();
        let v = check(&w, &c, &o);
        assert_eq!(v.failed, 0, "{:?}", v.problems);
        assert_eq!(v.attempted, w.jobs.len() as u64);
        assert!((v.makespan_s - o.makespan()).abs() < 1e-9);
        assert!((v.avg_jct_s - o.avg_jct()).abs() < 1e-6);
    }

    #[test]
    fn missing_machine_fails_its_job() {
        let (w, c, mut o) = fixture();
        o.tasks[3].machine = None;
        let v = check(&w, &c, &o);
        assert_eq!(v.failed, 1);
        assert!(v.problems[0].contains("never ran"), "{:?}", v.problems);
    }

    #[test]
    fn abandoned_task_fails_its_job() {
        let (w, c, mut o) = fixture();
        o.tasks[0].abandoned = true;
        assert_eq!(check(&w, &c, &o).failed, 1);
    }

    #[test]
    fn incomplete_job_fails() {
        let (w, c, mut o) = fixture();
        o.jobs[2].finish = None;
        let v = check(&w, &c, &o);
        assert_eq!(v.failed, 1);
        assert!(v.problems[0].contains("did not complete"));
    }

    #[test]
    fn task_faster_than_ideal_fails() {
        let (w, c, mut o) = fixture();
        let t = &mut o.tasks[5];
        let ideal = w.task(t.uid).unwrap().ideal_duration();
        t.finish = Some(t.start.unwrap() + ideal * 0.5);
        let v = check(&w, &c, &o);
        assert!(v.failed >= 1);
        assert!(v
            .problems
            .iter()
            .any(|p| p.contains("shorter than its ideal")));
    }

    #[test]
    fn stage_overlap_fails() {
        let (w, c, mut o) = fixture();
        let (job, down, up) = dependent_pair(&w, &o);
        let up_finish = o.tasks[up.index()].finish.unwrap();
        // Start the downstream task 1 s before its upstream stage ends,
        // keeping its duration so only the barrier check can fire.
        let t = &mut o.tasks[down.index()];
        let d = t.finish.unwrap() - t.start.unwrap();
        t.start = Some(up_finish - 1.0);
        t.finish = Some(up_finish - 1.0 + d);
        let v = check(&w, &c, &o);
        assert!(v
            .problems
            .iter()
            .any(|p| p.contains(&format!("job {job}: stage"))));
    }

    #[test]
    fn start_before_arrival_fails() {
        let (w, c, mut o) = fixture();
        let job = w.jobs.iter().find(|j| j.arrival > 10.0).expect("late job");
        let uid = job.stages[0].tasks[0].uid;
        let t = &mut o.tasks[uid.index()];
        let d = t.finish.unwrap() - t.start.unwrap();
        t.start = Some(job.arrival - 5.0);
        t.finish = Some(job.arrival - 5.0 + d);
        let v = check(&w, &c, &o);
        assert!(v
            .problems
            .iter()
            .any(|p| p.contains("before its job arrived")));
    }

    #[test]
    fn memory_overcommit_fails() {
        let (w, c, mut o) = fixture();
        // Collapse the schedule onto machine 0, times unchanged: the
        // cluster's concurrent memory no longer fits one machine.
        for t in &mut o.tasks {
            t.machine = Some(MachineId(0));
        }
        let v = check(&w, &c, &o);
        assert!(
            v.problems.iter().any(|p| p.contains("memory")),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn job_finish_disagreeing_with_tasks_fails() {
        let (w, c, mut o) = fixture();
        let f = o.jobs[1].finish.unwrap();
        o.jobs[1].finish = Some(f - 3.0);
        let v = check(&w, &c, &o);
        assert_eq!(v.failed, 1);
        assert!(v.problems[0].contains("last task finished"));
    }
}
