//! `failover-10k`: the paper's Fig. 8b metric on a 10k-node AdaptLab
//! cluster. Each round plans a 50%-failed cluster cold (`plan_with`,
//! PhoenixCost and PhoenixFair alternating), then runs a pair of warm
//! monitor ticks (`PhoenixController::replan(.., CapacityOnly)` with one
//! and two nodes down) on the converged cluster.

use std::time::Duration;

use phoenix_adaptlab::alibaba::AlibabaConfig;
use phoenix_adaptlab::metrics::{evaluate, revenue, SchemeMetrics};
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_adaptlab::tagging::TaggingScheme;
use phoenix_core::controller::{plan_with, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;

use super::{overhead, write_trace, EndToEnd, Layers, Site, Verify};
use crate::check::{all, unit_interval, Checks, Digest};
use crate::compose::{composed_plan, Busy};
use crate::report::Report;
use crate::spans::Tracer;
use crate::{sub_seed, timed, Deadline, Opts};

/// Cluster size.
pub const NODES: usize = 10_000;
/// Independently seeded clusters set up per run.
const SITES: u64 = 3;
/// Rounds every site runs whatever the budget. Deterministic metrics and
/// the digest cover exactly these.
const FIXED_ROUNDS: u64 = 1;
/// Each cold round plans the same failure under both objectives; the
/// pair's mean is one `cold_plan_ms` sample, so the two objectives'
/// different costs never make the median jump between modes.
const KINDS: [ObjectiveKind; 2] = [ObjectiveKind::Cost, ObjectiveKind::Fairness];
/// Warm tick pairs per round.
const WARM_PAIRS: usize = 4;
/// Share of nodes a cold round fails.
const FAILED: f64 = 0.5;

/// The AdaptLab environment of this workload (the shape of the
/// repository's replan benches, seeded).
pub fn env_config(nodes: usize, seed: u64) -> EnvConfig {
    EnvConfig {
        nodes,
        node_capacity: 64.0,
        target_utilization: 0.75,
        tagging: TaggingScheme::ServiceLevel { percentile: 0.9 },
        alibaba: AlibabaConfig {
            max_services: (nodes * 3).min(3000),
            ..AlibabaConfig::default()
        },
        seed,
        ..EnvConfig::default()
    }
}

/// Builds the cluster of `seed` and converges it: the set-up step.
pub fn setup(nodes: usize, seed: u64) -> (Site, f64) {
    let env = build_env(&env_config(nodes, seed));
    let site = Site::converge(env.workload, &env.baseline, seed ^ 0x5eed);
    let base_revenue = revenue(site.workload(), &site.live);
    (site, base_revenue)
}

fn kind_of(round: u64) -> ObjectiveKind {
    if round % 2 == 0 {
        ObjectiveKind::Cost
    } else {
        ObjectiveKind::Fairness
    }
}

fn check_metrics(m: &SchemeMetrics) -> Result<(), String> {
    all([
        unit_interval("availability", m.availability),
        unit_interval("revenue", m.revenue),
        unit_interval("utilization", m.utilization),
    ])
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    if opts.trace {
        return run_traced(opts);
    }
    let mut report = Report::default();
    let mut checks = Checks::new();
    let mut digest = Digest::default();
    let mut e2e = EndToEnd::default();
    let budget = opts.seconds / SITES as f64;
    for k in 0..SITES {
        let site_seed = sub_seed(opts.seed, k);
        let ((mut site, base_revenue), d) = timed(|| setup(NODES, site_seed));
        e2e.setup.push(d);
        site.warm_up(&mut checks);
        let deadline = Deadline::after(budget);
        let mut round = 0;
        let mut step = Duration::ZERO;
        while round < FIXED_ROUNDS || deadline.fits(step) {
            let started = std::time::Instant::now();
            let fail_seed = sub_seed(site_seed, 1000 + round);
            let plans = site.with_failure(FAILED, fail_seed, None, |w, s| {
                KINDS.map(|kind| {
                    let cfg = PhoenixConfig::with_objective(kind);
                    let (res, plan_time) = timed(|| plan_with(w, s, &cfg));
                    let (m, eval_time) = timed(|| evaluate(w, &res.target, base_revenue, 0.0));
                    (res, plan_time, eval_time, m)
                })
            });
            let mut pair = Duration::ZERO;
            for (res, plan_time, eval_time, m) in &plans {
                pair += *plan_time;
                e2e.cells.0 += 1;
                e2e.cells.1 += *plan_time + *eval_time;
                checks.op(
                    "cold plan",
                    all([res.target.check_invariants(), check_metrics(m)]),
                );
                if round < FIXED_ROUNDS {
                    e2e.availability.push(m.availability);
                    digest.u64(res.actions.len() as u64);
                    digest.u64(res.target.pod_count() as u64);
                    digest.u64(res.packing.unplaced.len() as u64);
                    digest.f64(m.availability);
                    digest.f64(m.revenue);
                }
            }
            e2e.cold.push(pair / 2);
            let mut warm = Duration::ZERO;
            for i in 0..WARM_PAIRS {
                let verify = if i == 0 {
                    Verify::Invariants
                } else {
                    Verify::Evacuated
                };
                warm += site.warm_pair(verify, &mut checks, &mut e2e);
            }
            e2e.plans.0 += plans.len() + 2 * WARM_PAIRS;
            e2e.plans.1 += pair + warm;
            step = started.elapsed();
            round += 1;
        }
    }
    report.checks = checks;
    report.digest = Some(digest);
    e2e.into_report(&mut report);
    report
}

/// Cold rounds of the traced run (each planned untraced and traced).
const TRACED_ROUNDS: u64 = 4;

fn run_traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::new();
    let mut layers = Layers::default();
    let tracer = Tracer::new();
    let pool = phoenix_exec::global();
    let site_seed = sub_seed(opts.seed, 0);
    let (mut site, base_revenue) = tracer.span("setup", None, |root| {
        let env = tracer.span("adaptlab.build_env", Some(root), |_| {
            build_env(&env_config(NODES, site_seed))
        });
        let site = Site::converge(env.workload, &env.baseline, site_seed ^ 0x5eed);
        let base = revenue(site.workload(), &site.live);
        (site, base)
    });
    let rec = phoenix_obs::Recorder::enabled();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut composed = Vec::new();
    let mut busy = Busy::default();
    for round in 0..TRACED_ROUNDS {
        let cfg = PhoenixConfig::with_objective(kind_of(round));
        let fail_seed = sub_seed(site_seed, 1000 + round);
        let (mono, mono_time) = site.with_failure(FAILED, fail_seed, None, |w, s| {
            timed(|| {
                let r = plan_with(w, s, &cfg);
                evaluate(w, &r.target, base_revenue, 0.0);
                r
            })
        });
        untraced += mono_time;
        let prev = phoenix_obs::install(rec.clone());
        let ((c, m), t) = site.with_failure(FAILED, fail_seed, Some((&tracer, None)), |w, s| {
            timed(|| {
                let c = composed_plan(w, s, &cfg, pool, &tracer, None);
                let m = tracer.span("adaptlab.evaluate", None, |_| {
                    evaluate(w, &c.target, base_revenue, 0.0)
                });
                (c, m)
            })
        });
        phoenix_obs::install(prev);
        traced += t;
        let same = if c.actions == mono.actions {
            Ok(())
        } else {
            Err(format!(
                "composed plan ({} actions) differs from plan_with ({} actions)",
                c.actions.len(),
                mono.actions.len()
            ))
        };
        checks.op(
            "composed cold plan",
            all([same, c.target.check_invariants(), check_metrics(&m)]),
        );
        busy.add(c.busy);
        composed.push(c.counts());
    }
    site.warm_up(&mut checks);
    let prev = phoenix_obs::install(rec.clone());
    for _ in 0..TRACED_ROUNDS {
        for failed in [1, 2] {
            site.warm_tick(
                failed,
                Verify::Evacuated,
                &mut checks,
                Some((&tracer, None)),
            );
        }
    }
    phoenix_obs::install(prev);
    overhead(&mut layers, untraced, traced, TRACED_ROUNDS as usize);
    layers.plan_spans(&tracer);
    layers.counters(&rec);
    layers.composed_counts(&composed);
    layers.set("exec.busy_ratio", busy.ratio(), composed.len());
    report.note("replan.cache_hits reads 0 on the CapacityOnly fast path (known; reported as is)");
    report.checks = checks;
    write_trace(&mut report, &tracer, opts, "failover-10k");
    layers.into_report(&mut report, &tracer);
    report
}
