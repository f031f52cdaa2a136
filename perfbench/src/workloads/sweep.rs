//! `adaptlab-sweep`: the Fig. 7 / Figs. 10–16 workload. `failure_sweep_on`
//! over a 2k-node AdaptLab environment with the five-policy
//! `standard_roster()` at failure levels 0.2 / 0.5 / 0.8, trials fanned out
//! on the pool; warm monitor ticks on a converged cluster between
//! sweeps.

use std::sync::Arc;

use phoenix_adaptlab::metrics::{evaluate, revenue, SchemeMetrics};
use phoenix_adaptlab::runner::{failure_sweep_on, FailureModel, SweepConfig, SweepPoint};
use phoenix_adaptlab::scenario::{build_env, EnvConfig};
use phoenix_cluster::failure::fail_fraction;
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{standard_roster, ResiliencePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::failover::{env_config, setup};
use super::{overhead, write_trace, EndToEnd, Layers, Verify};
use crate::check::{all, unit_interval, Checks, Digest};
use crate::compose::timed_fanout;
use crate::report::Report;
use crate::spans::Tracer;
use crate::timed::{wrap_roster, PlanLog, PlanSample};
use crate::{sub_seed, timed, Deadline, Opts};

/// Cluster size.
pub const NODES: usize = 2_000;
/// Trials per sweep (one per worker on a 2-CPU host).
const TRIALS: u32 = 2;
/// Failure levels.
const LEVELS: [f64; 3] = [0.2, 0.5, 0.8];
/// Independently seeded clusters per run; sweep `p` runs on cluster
/// `p % SITES`. Every cluster is swept at least once, whatever the
/// budget, and the deterministic metrics and the digest cover exactly
/// those sweeps.
const SITES: u64 = 6;
/// Warm tick pairs after each sweep. Tick latency follows the shared
/// host's speed, which drifts over seconds; ticks run in one block per
/// sweep, so the blocks must cover a good share of the run (about 40%
/// here) for a run's figure to average over that drift, as the sweep's
/// own plans do.
const WARM_PAIRS: usize = 40;
/// Warm tick pairs of a traced run, each with a full invariant check: the
/// per-layer means need far fewer ticks than the untraced average does.
const TRACED_PAIRS: usize = 8;

fn sweep_config() -> SweepConfig {
    SweepConfig {
        failure_fracs: LEVELS.to_vec(),
        trials: TRIALS,
        failure_model: FailureModel::Random,
    }
}

fn is_phoenix(policy: &str) -> bool {
    policy.starts_with("Phoenix")
}

fn check_metrics(m: &SchemeMetrics) -> Result<(), String> {
    all([
        unit_interval("availability", m.availability),
        unit_interval("revenue", m.revenue),
        unit_interval("fairness_pos", m.fairness_pos),
        unit_interval("fairness_neg", m.fairness_neg),
        unit_interval("utilization", m.utilization),
        if m.plan_secs.is_finite() && m.plan_secs >= 0.0 {
            Ok(())
        } else {
            Err(format!("plan_secs = {}", m.plan_secs))
        },
    ])
}

fn digest_points(digest: &mut Digest, points: &[SweepPoint]) {
    for p in points {
        digest.str(&p.policy);
        digest.f64(p.failure_frac);
        let m = &p.metrics;
        for v in [
            m.availability,
            m.revenue,
            m.fairness_pos,
            m.fairness_neg,
            m.utilization,
        ] {
            digest.f64(v);
        }
    }
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
    let mut sites = Vec::new();
    for k in 0..SITES {
        let (site, d) = timed(|| setup(NODES, sub_seed(opts.seed, k)).0);
        e2e.setup.push(d);
        sites.push(site);
    }
    let log = Arc::new(PlanLog::default());
    let roster = wrap_roster(standard_roster(), &log, false);
    let cfg = sweep_config();
    let deadline = Deadline::after(opts.seconds);
    let mut pass = 0;
    let mut step = std::time::Duration::ZERO;
    while pass < SITES || deadline.fits(step) {
        let started = std::time::Instant::now();
        let k = pass % SITES;
        let env_cfg = env_config(NODES, sub_seed(opts.seed, k));
        let (points, d) =
            timed(|| failure_sweep_on(&env_cfg, &cfg, &roster, phoenix_exec::global()));
        let plans = TRIALS as usize * LEVELS.len() * roster.len();
        e2e.plans.0 += plans;
        e2e.plans.1 += d;
        e2e.cells.0 += plans;
        e2e.cells.1 += d;
        let shape = if points.len() == LEVELS.len() * roster.len() {
            Ok(())
        } else {
            Err(format!("{} sweep points", points.len()))
        };
        checks.op("sweep", shape);
        for p in &points {
            checks.op("sweep point", check_metrics(&p.metrics));
        }
        for s in log.drain().iter().filter(|s| is_phoenix(s.policy)) {
            e2e.cold.push(s.duration);
        }
        if pass < SITES {
            e2e.availability.extend(
                points
                    .iter()
                    .filter(|p| is_phoenix(&p.policy))
                    .map(|p| p.metrics.availability),
            );
            digest_points(&mut digest, &points);
        }
        let site = &mut sites[k as usize];
        if pass < SITES {
            site.warm_up(&mut checks);
        }
        for i in 0..WARM_PAIRS {
            let verify = if i == 0 {
                Verify::Invariants
            } else {
                Verify::Evacuated
            };
            site.warm_pair(verify, &mut checks, &mut e2e);
        }
        step = started.elapsed();
        pass += 1;
    }
    report.checks = checks;
    report.digest = Some(digest);
    e2e.into_report(&mut report);
    report
}

/// One sweep trial rebuilt from public calls (the steps of
/// `failure_sweep_on`), with a span around each layer call.
fn traced_trial(
    env_cfg: &EnvConfig,
    roster: &[Box<dyn ResiliencePolicy>],
    trial: usize,
    tracer: &Tracer,
) -> Vec<SchemeMetrics> {
    tracer.span("sweep.trial", None, |root| {
        let mut cfg = env_cfg.clone();
        cfg.seed = env_cfg.seed.wrapping_add(trial as u64);
        let mut env = tracer.span("adaptlab.build_env", Some(root), |_| build_env(&cfg));
        let base = revenue(&env.workload, &env.baseline);
        let pristine = env.baseline.snapshot();
        let mut grid = Vec::new();
        for (fi, &frac) in LEVELS.iter().enumerate() {
            tracer.span("state.restore", Some(root), |_| {
                env.baseline.restore_to(&pristine)
            });
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(fi as u64));
            fail_fraction(&mut env.baseline, frac, &mut rng);
            for policy in roster {
                let plan = tracer.span("policy.plan", Some(root), |_| {
                    policy.plan(&env.workload, &env.baseline)
                });
                grid.push(tracer.span("adaptlab.evaluate", Some(root), |_| {
                    evaluate(
                        &env.workload,
                        &plan.target,
                        base,
                        plan.planning_time.as_secs_f64(),
                    )
                }));
            }
        }
        grid
    })
}

fn run_traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::new();
    let mut layers = Layers::default();
    let tracer = Tracer::new();
    let pool = phoenix_exec::global();
    let seed = sub_seed(opts.seed, 0);
    let env_cfg = env_config(NODES, seed);
    let cfg = sweep_config();

    // The untraced reference runs the plain roster; the rebuilt sweep below
    // runs it wrapped, so their equality also shows the wrapper is
    // transparent.
    let (reference, untraced) =
        timed(|| failure_sweep_on(&env_cfg, &cfg, &standard_roster(), pool));

    let (mut site, _) = setup(NODES, seed);
    let rounds = [
        (sub_seed(seed, 1000), ObjectiveKind::Cost),
        (sub_seed(seed, 1001), ObjectiveKind::Fairness),
    ];
    let reference_plans = site.reference_plans(&rounds);
    site.warm_up(&mut checks);

    let log = Arc::new(PlanLog::default());
    let roster = wrap_roster(standard_roster(), &log, false);
    let rec = phoenix_obs::Recorder::enabled();
    let prev = phoenix_obs::install(rec.clone());
    let ((grids, busy), traced) = timed(|| {
        timed_fanout(pool, TRIALS as usize, |trial| {
            traced_trial(&env_cfg, &roster, trial, &tracer)
        })
    });
    let samples: Vec<PlanSample> = log.drain();

    // Fold exactly like `failure_sweep_on`: sum in trial order, then divide.
    let mut acc = vec![SchemeMetrics::default(); LEVELS.len() * roster.len()];
    for grid in &grids {
        for (cell, m) in acc.iter_mut().zip(grid) {
            cell.availability += m.availability;
            cell.revenue += m.revenue;
            cell.fairness_pos += m.fairness_pos;
            cell.fairness_neg += m.fairness_neg;
            cell.utilization += m.utilization;
        }
    }
    let t = f64::from(TRIALS);
    let same = reference.len() == acc.len()
        && reference.iter().zip(&acc).all(|(p, m)| {
            let r = &p.metrics;
            [
                (r.availability, m.availability),
                (r.revenue, m.revenue),
                (r.fairness_pos, m.fairness_pos),
                (r.fairness_neg, m.fairness_neg),
                (r.utilization, m.utilization),
            ]
            .iter()
            .all(|&(a, b)| a.to_bits() == (b / t).to_bits())
        });
    checks.op(
        "recomposed sweep",
        if same {
            Ok(())
        } else {
            Err("recomposed sweep differs from failure_sweep_on".into())
        },
    );
    for p in &reference {
        checks.op("sweep point", check_metrics(&p.metrics));
    }

    let composed = site.composed_rounds(&rounds, &reference_plans, &tracer, &mut checks);
    for _ in 0..TRACED_PAIRS {
        for failed in [1, 2] {
            site.warm_tick(
                failed,
                Verify::Invariants,
                &mut checks,
                Some((&tracer, None)),
            );
        }
    }
    phoenix_obs::install(prev);

    overhead(&mut layers, untraced, traced, reference.len());
    layers.plan_spans(&tracer);
    layers.counters(&rec);
    layers.composed_counts(&composed);
    layers.policies(&samples);
    layers.set("exec.busy_ratio", busy.ratio(), TRIALS as usize);
    report.checks = checks;
    write_trace(&mut report, &tracer, opts, "adaptlab-sweep");
    layers.into_report(&mut report, &tracer);
    report
}
