//! `scenario-campaign`: scenario → scored recovery. `run_campaign_on` over
//! a `generate_suite` suite (all six families) on a 64-node cluster with 24
//! `demo_workload` apps under PhoenixFair / PhoenixCost / Default, then the
//! same suite on `demo_workload_modal` under PhoenixFair; a few warm
//! monitor ticks on the converged cluster between campaigns.

use std::sync::Arc;
use std::time::Duration;

use phoenix_cluster::{ClusterState, Resources};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_core::spec::Workload;
use phoenix_kubesim::rto::{evaluate_rto, evaluate_utility};
use phoenix_kubesim::run::{simulate_from, SteadyState};
use phoenix_kubesim::time::SimTime;
use phoenix_scenarios::campaign::{
    demo_workload, demo_workload_modal, run_campaign_on, CampaignConfig, CampaignOutcome,
};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use phoenix_scenarios::model::SuiteDoc;

use super::{overhead, write_trace, EndToEnd, Layers, Site, Verify};
use crate::check::{all, unit_interval, Checks, Digest};
use crate::compose::{timed_fanout, Busy};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{stable_mean, Samples};
use crate::timed::{wrap_roster, PlanLog, PlanSample};
use crate::{sub_seed, timed, Deadline, Opts};

/// Cluster size.
pub const NODES: u32 = 64;
/// CPU per node.
const NODE_CPU: f64 = 4.0;
/// `demo_workload` apps.
const APPS: u32 = 24;
/// Scenarios per family (six families).
const PER_FAMILY: usize = 1;
/// Independently seeded suites per run; campaign `p` runs suite
/// `p % SITES`. Every suite runs at least once, whatever the budget, and
/// the deterministic metrics and the digest cover exactly those runs.
const SITES: u64 = 24;
/// Set-up repetitions per campaign. Set-up takes about a millisecond
/// here, so one set-up would read the host's speed of a single instant:
/// the repetitions run after every campaign, spread over the whole run
/// like the other metrics' samples, and `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// Warm tick pairs after each campaign.
const WARM_PAIRS: usize = 25;

/// The binary half's roster.
pub fn roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
        Box::new(DefaultPolicy),
    ]
}

/// The modal half's roster.
pub fn modal_roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![Box::new(PhoenixPolicy::fair())]
}

/// The suite of `seed`.
pub fn suite(seed: u64) -> SuiteDoc {
    generate_suite(&GeneratorConfig {
        nodes: NODES,
        node_cpu: NODE_CPU,
        scenarios_per_family: PER_FAMILY,
        apps: APPS,
        seed,
    })
}

/// One suite with everything set up around it.
struct Fixture {
    suite: SuiteDoc,
    site: Site,
}

fn capacities(suite: &SuiteDoc) -> Vec<Resources> {
    suite
        .scenarios
        .first()
        .and_then(|s| s.compile().ok())
        .map(|s| s.node_capacities)
        .unwrap_or_else(|| vec![Resources::cpu(NODE_CPU); NODES as usize])
}

/// The set-up step: suite generation, `SteadyState` capture for every
/// (workload, policy) pair, and a converged cluster for warm ticks.
fn setup(seed: u64, demo: &Workload, modal: &Workload) -> Fixture {
    let suite = suite(seed);
    let caps = capacities(&suite);
    for p in roster() {
        std::hint::black_box(SteadyState::compute(demo, p.as_ref(), &caps));
    }
    for p in modal_roster() {
        std::hint::black_box(SteadyState::compute(modal, p.as_ref(), &caps));
    }
    let site = Site::converge(demo.clone(), &ClusterState::new(caps), seed ^ 0x5eed);
    Fixture { suite, site }
}

fn check_outcome(out: &CampaignOutcome, cells: usize) -> Result<(), String> {
    if out.scores.len() != cells {
        return Err(format!("{} of {cells} cells scored", out.scores.len()));
    }
    all(out.scores.iter().flat_map(|s| {
        [
            unit_interval("min_availability", s.min_availability),
            unit_interval("final_availability", s.final_availability),
            unit_interval("min_utility", s.min_utility),
            unit_interval("final_utility", s.final_utility),
        ]
    }))
}

fn digest_outcome(digest: &mut Digest, out: &CampaignOutcome) {
    for s in &out.scores {
        digest.str(&s.scenario);
        digest.str(&s.policy);
        digest.u64(u64::from(s.rto_satisfied));
        digest.u64(u64::from(s.outages));
        digest.u64(u64::from(s.violations));
        digest.u64(s.worst_c1_recovery_ms.unwrap_or(u64::MAX));
        for v in [
            s.min_availability,
            s.final_availability,
            s.min_utility,
            s.final_utility,
        ] {
            digest.f64(v);
        }
        digest.u64(u64::from(s.plans));
    }
}

/// Deterministic campaign outcomes: cells whose every tiered RTO held,
/// cells scored, and the modal cells' lowest served-utility fractions.
#[derive(Debug, Default)]
struct Quality {
    rto_pass: usize,
    cells: usize,
    min_utility: Vec<f64>,
}

impl Quality {
    fn add(&mut self, binary: &CampaignOutcome, modal: &CampaignOutcome) {
        let scores = binary.scores.iter().chain(&modal.scores);
        self.rto_pass += scores.filter(|s| s.rto_satisfied).count();
        self.cells += binary.scores.len() + modal.scores.len();
        self.min_utility
            .extend(modal.scores.iter().map(|s| s.min_utility));
    }

    /// Share of cells in which every tiered RTO held.
    fn rto_pass_rate(&self) -> f64 {
        self.rto_pass as f64 / self.cells.max(1) as f64
    }

    /// Mean lowest served-utility fraction of the modal cells.
    fn min_utility(&self) -> f64 {
        stable_mean(&self.min_utility)
    }
}

fn is_phoenix(s: &PlanSample) -> bool {
    s.policy.starts_with("Phoenix")
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
    let demo = demo_workload(APPS);
    let modal = demo_workload_modal(APPS);
    let mut fixtures = Vec::new();
    for k in 0..SITES {
        let (f, d) = timed(|| setup(sub_seed(opts.seed, k), &demo, &modal));
        e2e.setup.push(d);
        fixtures.push(f);
    }
    let log = Arc::new(PlanLog::default());
    let binary_roster = wrap_roster(roster(), &log, true);
    let modal_roster = wrap_roster(modal_roster(), &log, true);
    let cfg = CampaignConfig::default();
    let pool = phoenix_exec::global();
    let mut quality = Quality::default();
    let deadline = Deadline::after(opts.seconds);
    let mut pass = 0;
    let mut step = Duration::ZERO;
    while pass < SITES || deadline.fits(step) {
        let started = std::time::Instant::now();
        let fixture = &mut fixtures[(pass % SITES) as usize];
        let suite = &fixture.suite;
        let ((binary, modal_out), d) = timed(|| {
            (
                run_campaign_on(&demo, suite, &binary_roster, &cfg, pool),
                run_campaign_on(&modal, suite, &modal_roster, &cfg, pool),
            )
        });
        let samples = log.drain();
        let n = suite.scenarios.len();
        let cells = n * (binary_roster.len() + modal_roster.len());
        e2e.cells.0 += cells;
        e2e.cells.1 += d;
        e2e.plans.0 += samples.len();
        e2e.plans.1 += d;
        for s in samples.iter().filter(|s| is_phoenix(s)) {
            e2e.cold.push(s.duration);
        }
        match (binary, modal_out) {
            (Ok(b), Ok(m)) => {
                let ok = all([
                    check_outcome(&b, n * binary_roster.len()),
                    check_outcome(&m, n * modal_roster.len()),
                ]);
                checks.op("campaign", ok);
                if pass < SITES {
                    e2e.availability.extend(
                        samples
                            .iter()
                            .filter(|s| is_phoenix(s))
                            .filter_map(|s| s.critical_availability),
                    );
                    quality.add(&b, &m);
                    digest_outcome(&mut digest, &b);
                    digest_outcome(&mut digest, &m);
                }
            }
            (b, m) => {
                let err = b.err().or(m.err()).map(|e| e.to_string());
                checks.op("campaign", Err(err.unwrap_or_default()));
            }
        }
        if pass < SITES {
            fixture.site.warm_up(&mut checks);
        }
        for _ in 0..WARM_PAIRS {
            fixture
                .site
                .warm_pair(Verify::Invariants, &mut checks, &mut e2e);
        }
        for _ in 1..SETUP_REPS {
            let k = pass % SITES;
            let (f, d) = timed(|| setup(sub_seed(opts.seed, k), &demo, &modal));
            e2e.setup.push(d);
            drop(f);
        }
        step = started.elapsed();
        pass += 1;
    }
    report.note(format!(
        "rto_pass_rate {} (n={}) min_utility {} (n={})",
        quality.rto_pass_rate(),
        quality.cells,
        quality.min_utility(),
        quality.min_utility.len()
    ));
    report.checks = checks;
    report.digest = Some(digest);
    e2e.into_report(&mut report);
    report
}

/// Per-cell results of the recomposed campaign.
struct Cell {
    rto_satisfied: bool,
    min_utility: f64,
    samples: usize,
    simulate: Duration,
}

/// One campaign half rebuilt from public calls (the steps of
/// `run_campaign_on`): `SteadyState::compute` per policy, then
/// `simulate_from` → `evaluate_rto` / `evaluate_utility` per cell on the
/// pool, with a span around each call.
fn traced_campaign(
    workload: &Workload,
    suite: &SuiteDoc,
    roster: &[Box<dyn ResiliencePolicy>],
    log: &PlanLog,
    tracer: &Tracer,
) -> Result<(Vec<Cell>, Busy, Vec<PlanSample>), String> {
    let cfg = CampaignConfig::default();
    let compiled = suite
        .scenarios
        .iter()
        .map(|s| s.compile().map(|c| (s, c)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let caps = capacities(suite);
    let steady: Vec<SteadyState> = roster
        .iter()
        .map(|p| {
            tracer.span("sim.steady_state", None, |_| {
                SteadyState::compute(workload, p.as_ref(), &caps)
            })
        })
        .collect();
    // The steady-state captures plan through the same wrappers; only the
    // in-sim plans below count.
    log.drain();
    let jobs: Vec<(usize, usize)> = (0..compiled.len())
        .flat_map(|si| (0..roster.len()).map(move |pi| (si, pi)))
        .collect();
    let pool = phoenix_exec::global();
    let (cells, busy) = timed_fanout(pool, jobs.len(), |j| {
        let (si, pi) = jobs[j];
        let (doc, scenario) = &compiled[si];
        tracer.span("campaign.cell", None, |root| {
            let (trace, simulate) = tracer.span("sim.simulate", Some(root), |_| {
                timed(|| {
                    simulate_from(
                        workload,
                        roster[pi].as_ref(),
                        scenario,
                        &cfg.sim,
                        doc.horizon(),
                        Some(&steady[pi]),
                    )
                })
            });
            let disruption = doc.first_disruption().unwrap_or(SimTime::ZERO);
            tracer.span("rto.evaluate", Some(root), |_| {
                let report = evaluate_rto(&trace, workload, &cfg.rto, disruption);
                let utility = evaluate_utility(&trace, disruption);
                Cell {
                    rto_satisfied: report.satisfied(),
                    min_utility: utility.worst_fraction(),
                    samples: trace.samples.len(),
                    simulate,
                }
            })
        })
    });
    Ok((cells, busy, log.drain()))
}

/// Composed cold plans on the campaign cluster per traced run.
const COMPOSED: u64 = 8;

fn run_traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::new();
    let mut layers = Layers::default();
    let tracer = Tracer::new();
    let pool = phoenix_exec::global();
    let seed = sub_seed(opts.seed, 0);
    let demo = demo_workload(APPS);
    let modal = demo_workload_modal(APPS);
    let mut fixture = setup(seed, &demo, &modal);
    let cfg = CampaignConfig::default();

    let ((binary, modal_out), untraced) = timed(|| {
        (
            run_campaign_on(&demo, &fixture.suite, &roster(), &cfg, pool),
            run_campaign_on(&modal, &fixture.suite, &modal_roster(), &cfg, pool),
        )
    });
    let reference = match (binary, modal_out) {
        (Ok(b), Ok(m)) => Some((b, m)),
        _ => None,
    };

    let rounds: Vec<(u64, ObjectiveKind)> = (0..COMPOSED)
        .map(|r| (sub_seed(seed, 1000 + r), ObjectiveKind::Fairness))
        .collect();
    let reference_plans = fixture.site.reference_plans(&rounds);
    fixture.site.warm_up(&mut checks);

    let log = Arc::new(PlanLog::default());
    let binary_roster = wrap_roster(roster(), &log, false);
    let modal_roster = wrap_roster(modal_roster(), &log, false);
    let rec = phoenix_obs::Recorder::enabled();
    let prev = phoenix_obs::install(rec.clone());
    let (halves, traced) = timed(|| {
        (
            traced_campaign(&demo, &fixture.suite, &binary_roster, &log, &tracer),
            traced_campaign(&modal, &fixture.suite, &modal_roster, &log, &tracer),
        )
    });

    let composed = fixture
        .site
        .composed_rounds(&rounds, &reference_plans, &tracer, &mut checks);
    for _ in 0..WARM_PAIRS {
        for failed in [1, 2] {
            fixture.site.warm_tick(
                failed,
                Verify::Invariants,
                &mut checks,
                Some((&tracer, None)),
            );
        }
    }
    phoenix_obs::install(prev);

    let mut busy = Busy::default();
    let mut cells: Vec<Cell> = Vec::new();
    let mut samples: Vec<PlanSample> = Vec::new();
    match (halves, &reference) {
        ((Ok((b, bb, bs)), Ok((m, mb, ms))), Some((rb, rm))) => {
            let same = b.len() == rb.scores.len()
                && m.len() == rm.scores.len()
                && b.iter()
                    .chain(&m)
                    .zip(rb.scores.iter().chain(&rm.scores))
                    .all(|(c, s)| {
                        c.rto_satisfied == s.rto_satisfied
                            && c.min_utility.to_bits() == s.min_utility.to_bits()
                    });
            checks.op(
                "recomposed campaign",
                if same {
                    Ok(())
                } else {
                    Err("recomposed campaign differs from run_campaign_on".into())
                },
            );
            let mut quality = Quality::default();
            quality.add(rb, rm);
            layers.set("rto.pass_rate", quality.rto_pass_rate(), quality.cells);
            layers.set(
                "sim.min_utility",
                quality.min_utility(),
                quality.min_utility.len(),
            );
            busy.add(bb);
            busy.add(mb);
            samples.extend(bs);
            samples.extend(ms);
            cells.extend(b);
            cells.extend(m);
        }
        _ => {
            checks.op("recomposed campaign", Err("a campaign half failed".into()));
        }
    }

    let n = cells.len().max(1) as f64;
    let simulate: Duration = cells.iter().map(|c| c.simulate).sum();
    let in_sim: Duration = samples.iter().map(|s| s.duration).sum();
    layers.span_mean(&tracer, "sim.simulate", "sim.simulate_ms");
    layers.span_mean(&tracer, "rto.evaluate", "rto.evaluate_ms");
    layers.set(
        "sim.self_ms",
        simulate.saturating_sub(in_sim).as_secs_f64() * 1e3 / n,
        cells.len(),
    );
    let mut plan_us = Samples::new();
    samples.iter().for_each(|s| plan_us.push(s.duration));
    layers.set(
        "sim.plan_us_p50",
        plan_us.percentile_ms(0.5) * 1e3,
        plan_us.len(),
    );
    layers.set(
        "sim.plan_us_p99",
        plan_us.percentile_ms(0.99) * 1e3,
        plan_us.len(),
    );
    layers.set("sim.plans", samples.len() as f64, cells.len());
    layers.set(
        "sim.samples",
        cells.iter().map(|c| c.samples).sum::<usize>() as f64,
        cells.len(),
    );
    overhead(&mut layers, untraced, traced, cells.len());
    layers.plan_spans(&tracer);
    layers.counters(&rec);
    layers.composed_counts(&composed);
    layers.policies(&samples);
    layers.set("exec.busy_ratio", busy.ratio(), cells.len());
    report.checks = checks;
    write_trace(&mut report, &tracer, opts, "scenario-campaign");
    layers.into_report(&mut report, &tracer);
    report
}
