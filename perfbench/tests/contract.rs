//! The benchmark's own contract: wrapper transparency, composed == monolithic
//! cold plans, metric names and their agreement with `BENCHMARK.json`, and
//! failed-check accounting.

use std::sync::Arc;

use perfbench::check::{unit_interval, Checks};
use perfbench::compose::composed_plan;
use perfbench::report::{valid_name, Report};
use perfbench::spans::Tracer;
use perfbench::timed::{wrap_roster, PlanLog};
use perfbench::workloads::failover::env_config;
use perfbench::workloads::{per_layer, EndToEnd, Layers, END_TO_END};
use phoenix_adaptlab::runner::{failure_sweep_on, FailureModel, SweepConfig};
use phoenix_adaptlab::scenario::build_env;
use phoenix_cluster::failure::fail_fraction;
use phoenix_core::controller::{plan_with, PhoenixConfig};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::policies::{standard_roster, DefaultPolicy, PhoenixPolicy, ResiliencePolicy};
use phoenix_scenarios::campaign::{demo_workload, run_campaign_on, CampaignConfig};
use phoenix_scenarios::generate::{generate_suite, GeneratorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_roster() -> Vec<Box<dyn ResiliencePolicy>> {
    vec![
        Box::new(PhoenixPolicy::fair()),
        Box::new(PhoenixPolicy::cost()),
        Box::new(DefaultPolicy),
    ]
}

#[test]
fn wrapped_campaign_scores_equal_unwrapped() {
    let workload = demo_workload(6);
    let suite = generate_suite(&GeneratorConfig {
        nodes: 12,
        node_cpu: 4.0,
        scenarios_per_family: 1,
        apps: 6,
        seed: 7,
    });
    let cfg = CampaignConfig::default();
    let pool = phoenix_exec::Pool::new(2);
    let plain = run_campaign_on(&workload, &suite, &small_roster(), &cfg, &pool).unwrap();
    let log = Arc::new(PlanLog::default());
    let wrapped_roster = wrap_roster(small_roster(), &log, true);
    let wrapped = run_campaign_on(&workload, &suite, &wrapped_roster, &cfg, &pool).unwrap();
    assert_eq!(plain.scores.len(), wrapped.scores.len());
    for (a, b) in plain.scores.iter().zip(&wrapped.scores) {
        assert!(
            a.same_results(b),
            "{} / {} differs when wrapped",
            a.scenario,
            a.policy
        );
    }
    let samples = log.drain();
    assert!(!samples.is_empty(), "the wrapper logged no plans");
    assert!(samples
        .iter()
        .filter_map(|s| s.critical_availability)
        .all(|a| (0.0..=1.0).contains(&a)));
}

#[test]
fn wrapped_sweep_points_equal_unwrapped() {
    let env_cfg = env_config(40, 3);
    let sweep = SweepConfig {
        failure_fracs: vec![0.5],
        trials: 1,
        failure_model: FailureModel::Random,
    };
    let pool = phoenix_exec::Pool::new(1);
    let plain = failure_sweep_on(&env_cfg, &sweep, &standard_roster(), &pool);
    let log = Arc::new(PlanLog::default());
    let wrapped = failure_sweep_on(
        &env_cfg,
        &sweep,
        &wrap_roster(standard_roster(), &log, false),
        &pool,
    );
    assert_eq!(plain.len(), wrapped.len());
    for (a, b) in plain.iter().zip(&wrapped) {
        assert!(a.same_results(b), "{} differs when wrapped", a.policy);
    }
    assert_eq!(log.drain().len(), plain.len());
}

#[test]
fn composed_cold_plan_equals_plan_with() {
    let env = build_env(&env_config(60, 5));
    let pool = phoenix_exec::Pool::new(2);
    for (i, kind) in [ObjectiveKind::Cost, ObjectiveKind::Fairness]
        .into_iter()
        .enumerate()
    {
        let mut state = env.baseline.clone();
        fail_fraction(&mut state, 0.5, &mut StdRng::seed_from_u64(i as u64));
        let cfg = PhoenixConfig::with_objective(kind);
        let tracer = Tracer::new();
        let composed = composed_plan(&env.workload, &state, &cfg, &pool, &tracer, None);
        let mono = plan_with(&env.workload, &state, &cfg);
        assert_eq!(composed.actions, mono.actions, "{kind}");
        assert!(composed.target.bitwise_eq(&mono.target), "{kind}");
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "plan.compose",
            "planner.rank",
            "ranking.global_rank",
            "plan.flatten",
            "state.clone",
            "packing.pack",
            "actions.diff",
        ] {
            assert!(names.contains(&layer), "no {layer} span");
        }
    }
}

#[test]
fn every_metric_name_is_valid_and_unique() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer().into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(valid_name(n), "bad metric name {n}");
    }
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "duplicate metric names");
}

#[test]
fn reports_carry_exactly_the_catalogued_metrics() {
    let mut e2e = Report::default();
    EndToEnd::default().into_report(&mut e2e);
    let got: Vec<(&str, &str)> = e2e
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, END_TO_END.to_vec());

    let mut traced = Report::default();
    Layers::default().into_report(&mut traced, &Tracer::new());
    let got: Vec<(String, &str)> = traced
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(got, per_layer());
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| {
            let name = rest[..rest.find('"').unwrap()].to_string();
            let u = rest.find("\"unit\": \"").expect("unit present") + 9;
            let unit = rest[u..u + rest[u..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    let workloads = listed_names(&json, "workloads");
    assert_eq!(workloads, perfbench::workloads::WORKLOADS.to_vec());
}

fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn forced_check_failure_is_counted_not_fatal() {
    let mut report = Report::default();
    let mut checks = Checks::new();
    checks.op("first", Ok(()));
    checks.op("forced", unit_interval("availability", 1.5));
    // The run goes on after the failure.
    checks.op("third", Ok(()));
    report.checks = checks;
    report.metric("cold_plan_ms", 1.0, "ms", 1);
    let line = report.json_line();
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    assert!(report.human_lines().iter().any(|l| l.contains("forced")));
}
