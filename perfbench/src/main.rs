//! Layered benchmark of the Tetris simulator.
//!
//! One workload per process, one thread, no worker pool:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tetris-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The process sets the workload up several times (timing each), runs
//! every simulation of the workload once untimed as the reference its
//! checks need, then runs whole rounds of the workload until `--seconds`
//! have passed. Every outcome must equal its reference byte for byte and
//! pass the independent checker in [`check`]. The last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` (jobs,
//! summed over rounds) and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod timing;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use tetris_obs::{names, Obs};
use tetris_sim::{
    EngineStats, Journal, JournalStats, RunResult, SchedulerCrash, SchedulerPolicy, SimConfig,
    SimOutcome, Simulation,
};

use crate::check::check;
use crate::timing::{Tally, Timed};
use crate::workloads::{setup, wire, Inputs, Kind, Part, CRASH_AT};

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let kind = kind.ok_or(format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What the untimed reference run of one part establishes.
struct Reference {
    /// The uninterrupted, unjournaled outcome, serialized: every timed
    /// run of the part must reproduce it byte for byte.
    wire: String,
    /// Its scheduling heartbeats, counted only where the crash point
    /// needs them.
    heartbeats: u64,
    /// Its host seconds.
    wall_s: f64,
}

/// Run `part` once, untimed and unjournaled. The journal workload counts
/// heartbeats through the forwarding wrapper (which the tests pin as
/// transparent); every other workload runs the bare policy, so its
/// reference is exactly what an untraced run computes.
fn reference(inputs: &Inputs, part: &Part) -> Reference {
    let tally = Tally::default();
    let p: Box<dyn SchedulerPolicy> = if inputs.kind == Kind::TetrisJournal {
        Box::new(Timed::new(inputs.policy.build(), tally.clone()))
    } else {
        inputs.policy.build()
    };
    let sim = Simulation::build(part.cluster.clone(), part.workload.clone())
        .scheduler(p)
        .config(part.cfg.clone());
    let t0 = Instant::now();
    let outcome = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let heartbeats = tally.borrow().heartbeats;
    Reference {
        wire: wire(&outcome),
        heartbeats,
        wall_s,
    }
}

/// What a traced round gathers across its parts.
#[derive(Default)]
struct Trace {
    tally: Tally,
    obs: Obs,
    journal_s: f64,
    recover_s: f64,
    replayed_batches: u64,
    journal: JournalStats,
}

fn observed<'a>(sim: Simulation<'static>, obs: Option<&'a mut Obs>) -> Simulation<'a> {
    match obs {
        Some(o) => sim.observe(o),
        None => sim,
    }
}

/// Run one part of a round: the timed simulation calls and then the
/// untimed journal check. Returns the final outcome, or why there is none
/// to trust, and the timed host seconds.
fn run_part(
    inputs: &Inputs,
    part: &Part,
    refr: &Reference,
    mut trace: Option<&mut Trace>,
) -> (Result<SimOutcome, String>, f64) {
    let build = |trace: &Option<&mut Trace>| -> Box<dyn SchedulerPolicy> {
        match trace {
            Some(t) => Box::new(Timed::new(inputs.policy.build(), t.tally.clone())),
            None => inputs.policy.build(),
        }
    };
    let sim = |cfg: SimConfig, policy: Box<dyn SchedulerPolicy>| {
        Simulation::build(part.cluster.clone(), part.workload.clone())
            .scheduler(policy)
            .config(cfg)
    };
    if inputs.kind != Kind::TetrisJournal {
        let s = sim(part.cfg.clone(), build(&trace));
        let t0 = Instant::now();
        let outcome = observed(s, trace.map(|t| &mut t.obs)).run();
        return (Ok(outcome), t0.elapsed().as_secs_f64());
    }

    let crash_hb = (refr.heartbeats * CRASH_AT.0 / CRASH_AT.1).max(1);
    let mut crash_cfg = part.cfg.clone();
    crash_cfg.faults.sched_crash = Some(SchedulerCrash {
        at_heartbeat: crash_hb,
        mid_commit: false,
    });
    let crash_sim = sim(crash_cfg, build(&trace));
    let recover_sim = sim(part.cfg.clone(), build(&trace));
    let mut journal = Journal::new();
    let t0 = Instant::now();
    let crashed =
        observed(crash_sim, trace.as_mut().map(|t| &mut t.obs)).run_result(Some(&mut journal));
    let t1 = Instant::now();
    let recovered = observed(recover_sim, trace.as_mut().map(|t| &mut t.obs)).recover(&journal);
    let t2 = Instant::now();
    let wall_s = (t2 - t0).as_secs_f64();

    let verified = journal.verify();
    if let Some(t) = trace {
        t.journal_s += (t1 - t0).as_secs_f64();
        t.recover_s += (t2 - t1).as_secs_f64();
        if let Ok(r) = &recovered {
            t.replayed_batches += r.stats.replayed_batches;
        }
        if let Ok(js) = &verified {
            t.journal.bytes += js.bytes;
            t.journal.records += js.records;
            t.journal.checkpoints += js.checkpoints;
        }
    }
    let result = match (crashed, verified, recovered) {
        (RunResult::Completed(_), _, _) => Err(format!("no crash at heartbeat {crash_hb}")),
        (RunResult::Crashed { heartbeat }, _, _) if heartbeat != crash_hb => {
            Err(format!("crashed at heartbeat {heartbeat}, not {crash_hb}"))
        }
        (_, Err(e), _) => Err(format!("the crashed run's journal fails verify: {e}")),
        (_, _, Err(e)) => Err(format!("recovery failed: {e}")),
        (_, _, Ok(r)) => Ok(r.outcome),
    };
    (result, wall_s)
}

/// Per-layer metrics of one traced round.
fn layer_metrics(
    inputs: &Inputs,
    trace: &Trace,
    stats: &EngineStats,
    wall_s: f64,
    ref_s: f64,
) -> Metrics {
    let t = trace.tally.borrow();
    let policy_s = t.schedule_s() + t.on_event_s();
    let events = stats.events as f64;
    let tasks = inputs.tasks() as f64;
    let engine_s = wall_s - policy_s;
    let mut ns: Vec<u64> = t.schedule_ns.clone();
    ns.sort_unstable();
    let counter = |name| trace.obs.metrics.counter(name) as f64;
    let journaled = inputs.kind == Kind::TetrisJournal;
    let mut m = Metrics::new();
    for (name, value, unit) in [
        ("workload.gen_s", inputs.gen_s, "s"),
        ("workload.tasks", tasks, "count"),
        ("engine.self_s", engine_s, "s"),
        ("engine.events", events, "count"),
        ("engine.events_per_task", events / tasks, "count"),
        ("engine.ns_per_event", engine_s * 1e9 / events, "ns"),
        (
            "engine.schedule_calls",
            stats.schedule_calls as f64,
            "count",
        ),
        ("engine.placements", stats.placements as f64, "count"),
        (
            "engine.rejected",
            stats.rejected_assignments as f64,
            "count",
        ),
        ("policy.schedule_s", t.schedule_s(), "s"),
        ("policy.schedule_calls", ns.len() as f64, "count"),
        ("policy.schedule_us_p50", quantile(&ns, 0.50) * 1e-3, "us"),
        ("policy.schedule_us_p99", quantile(&ns, 0.99) * 1e-3, "us"),
        ("policy.on_event_s", t.on_event_s(), "s"),
        ("policy.on_event_calls", t.on_event_calls as f64, "count"),
        ("policy.assignments", t.assignments as f64, "count"),
        ("index.queries", counter(names::INDEX_QUERIES), "count"),
        (
            "index.env_visits",
            counter(names::INDEX_ENV_VISITS),
            "count",
        ),
        ("index.returned", counter(names::INDEX_RETURNED), "count"),
        ("fault.crashes", stats.machine_crashes as f64, "count"),
        (
            "fault.killed_attempts",
            stats.crash_killed_attempts as f64,
            "count",
        ),
        ("tracker.reports", counter(names::TRACKER_REPORTS), "count"),
        ("journal.run_s", trace.journal_s, "s"),
        ("journal.bytes", trace.journal.bytes as f64, "bytes"),
        ("journal.records", trace.journal.records as f64, "count"),
        (
            "journal.checkpoints",
            trace.journal.checkpoints as f64,
            "count",
        ),
        (
            "journal.overhead_x",
            if journaled { wall_s / ref_s } else { 0.0 },
            "x",
        ),
        ("recovery.recover_s", trace.recover_s, "s"),
        (
            "recovery.replayed_batches",
            trace.replayed_batches as f64,
            "count",
        ),
    ] {
        m.insert(name, (value, unit));
    }
    m
}

/// Sum the counters the layer metrics read from each outcome.
fn add_stats(sum: &mut EngineStats, s: &EngineStats) {
    sum.events += s.events;
    sum.schedule_calls += s.schedule_calls;
    sum.placements += s.placements;
    sum.rejected_assignments += s.rejected_assignments;
    sum.machine_crashes += s.machine_crashes;
    sum.crash_killed_attempts += s.crash_killed_attempts;
}

/// Nearest-rank quantile of sorted nanoseconds.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut gen_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let made = setup(args.kind, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        gen_s.push(made.gen_s);
        inputs = Some(made);
    }
    let mut inputs = inputs.expect("at least one set-up");
    inputs.gen_s = median(gen_s);

    // Untimed references: the outcome every timed run of a part must
    // reproduce (which also checks that tracing and journaling change
    // nothing), the journal workload's crash points, and a warm-up.
    let refs: Vec<Reference> = inputs.parts.iter().map(|p| reference(&inputs, p)).collect();
    let ref_s: f64 = refs.iter().map(|r| r.wall_s).sum();

    let start = Instant::now();
    let mut part_walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.parts.len()];
    let mut layer_rounds: Vec<Metrics> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per part: makespan and mean job completion time recomputed by the
    // checker from the first round (every round reproduces the reference).
    let mut sim_figures: Vec<(f64, f64)> = Vec::new();
    let mut peak_mb = None;
    loop {
        let mut trace = args.trace.then(Trace::default);
        let mut stats = EngineStats::default();
        let mut wall_s = 0.0;
        for (i, (part, refr)) in inputs.parts.iter().zip(&refs).enumerate() {
            let jobs = part.workload.jobs.len() as u64;
            attempted += jobs;
            let (result, wall) = run_part(&inputs, part, refr, trace.as_mut());
            wall_s += wall;
            part_walls[i].push(wall);
            let outcome = result.and_then(|o| {
                if wire(&o) == refr.wire {
                    Ok(o)
                } else {
                    Err("outcome differs from the untraced, unjournaled run".to_string())
                }
            });
            let o = match outcome {
                Ok(o) => o,
                Err(why) => {
                    eprintln!("perfbench: part {i}: every job fails: {why}");
                    failed += jobs;
                    continue;
                }
            };
            let v = check(&part.workload, &part.cluster, &o);
            for p in &v.problems {
                eprintln!("perfbench: part {i}: {p}");
            }
            failed += v.failed;
            add_stats(&mut stats, &o.stats);
            if sim_figures.len() == i {
                sim_figures.push((v.makespan_s, v.avg_jct_s));
            }
        }
        if let Some(t) = &trace {
            layer_rounds.push(layer_metrics(&inputs, t, &stats, wall_s, ref_s));
        }
        // Later rounds repeat the same work; all they could add to the
        // peak is allocator fragmentation, which grows with however many
        // rounds the host's speed allows.
        peak_mb.get_or_insert_with(peak_rss_mb);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Host time: each simulation's median over the rounds, summed, so a
    // burst of load on the host moves one round, not the figure.
    let wall_s: f64 = part_walls.iter().map(|w| median(w.clone())).sum();
    let mut metrics = Metrics::new();
    if args.trace {
        for (&name, &(_, unit)) in layer_rounds.iter().flatten() {
            let values: Vec<f64> = layer_rounds
                .iter()
                .filter_map(|r| r.get(name).map(|v| v.0))
                .collect();
            metrics.insert(name, (median(values), unit));
        }
        metrics.insert("trace.wall_s", (wall_s, "s"));
    } else {
        let n = sim_figures.len().max(1) as f64;
        let makespan = sim_figures.iter().map(|f| f.0).sum::<f64>() / n;
        let avg_jct = sim_figures.iter().map(|f| f.1).sum::<f64>() / n;
        metrics.insert("wall_s", (wall_s, "s"));
        metrics.insert("setup_s", (median(setup_s), "s"));
        metrics.insert("peak_rss_mb", (peak_mb.unwrap_or(0.0), "MB"));
        metrics.insert("sim_makespan_s", (makespan, "s"));
        metrics.insert("sim_avg_jct_s", (avg_jct, "s"));
    }
    eprintln!(
        "perfbench: {} seed {} parts {} rounds {}",
        args.kind.name(),
        args.seed,
        inputs.parts.len(),
        part_walls.first().map_or(0, Vec::len),
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        sim_figures.len() == inputs.parts.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
