//! The three workloads, the metric catalogue they report against, and the
//! converged-cluster fixture their warm monitor ticks share.

pub mod campaign;
pub mod failover;
pub mod sweep;

use std::collections::BTreeMap;
use std::time::Duration;

use phoenix_cluster::failure::fail_fraction;
use phoenix_cluster::{ClusterState, NodeId, Snapshot};
use phoenix_core::actions::ActionPlan;
use phoenix_core::controller::{plan_with, PhoenixConfig, PhoenixController};
use phoenix_core::objectives::ObjectiveKind;
use phoenix_core::replan::ReplanDelta;
use phoenix_core::spec::Workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::check::Checks;
use crate::compose::{composed_plan, PlanCounts};
use crate::report::Report;
use crate::spans::{SpanCtx, Tracer};
use crate::stats::{median, Samples};
use crate::{peak_rss_mb, timed, Opts};

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["failover-10k", "adaptlab-sweep", "scenario-campaign"];

/// End-to-end metrics `(name, unit)`: every untraced run reports all of
/// them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cold_plan_ms", "ms"),
    ("warm_replan_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("critical_availability", "fraction"),
    ("peak_heap_mb", "MB"),
];

/// Policy names of `standard_roster()`, for the per-policy rows.
pub const POLICIES: [&str; 5] = ["PhoenixCost", "PhoenixFair", "Priority", "Fair", "Default"];

/// Per-layer metrics `(name, unit)`: every traced run reports all of
/// them, 0 where the workload does not reach the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("planner.rank_ms", "ms"),
        ("planner.apps", "count"),
        ("ranking.global_rank_ms", "ms"),
        ("ranking.items", "count"),
        ("ranking.waterfill_runs", "count"),
        ("plan.flatten_ms", "ms"),
        ("plan.self_ms", "ms"),
        ("plan.composed_ms", "ms"),
        ("packing.pack_ms", "ms"),
        ("packing.placed", "count"),
        ("packing.unplaced", "count"),
        ("packing.victims", "count"),
        ("packing.migrations", "count"),
        ("packing.placed_ratio", "fraction"),
        ("state.clone_ms", "ms"),
        ("state.restore_us", "us"),
        ("state.journal_undone", "count"),
        ("actions.diff_ms", "ms"),
        ("actions.count", "count"),
        ("replan.warm_ms", "ms"),
        ("replan.warm_p99_ms", "ms"),
        ("replan.ticks", "count"),
        ("replan.cache_hits", "count"),
        ("replan.cache_misses", "count"),
        ("replan.rank_full_reuses", "count"),
        ("replan.hit_ratio", "fraction"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for p in POLICIES {
        v.push((format!("policy.{p}.plan_ms"), "ms"));
        v.push((format!("policy.{p}.plan_p99_ms"), "ms"));
        v.push((format!("policy.{p}.plans"), "count"));
    }
    v.extend(
        [
            ("default.pending", "count"),
            ("adaptlab.build_env_ms", "ms"),
            ("adaptlab.evaluate_ms", "ms"),
            ("sim.simulate_ms", "ms"),
            ("sim.self_ms", "ms"),
            ("sim.plan_us_p50", "us"),
            ("sim.plan_us_p99", "us"),
            ("sim.plans", "count"),
            ("sim.events", "count"),
            ("sim.samples", "count"),
            ("sim.min_utility", "fraction"),
            ("rto.evaluate_ms", "ms"),
            ("rto.pass_rate", "fraction"),
            ("exec.busy_ratio", "fraction"),
            ("trace.untraced_ms", "ms"),
            ("trace.traced_ms", "ms"),
            ("trace.overhead_ms", "ms"),
            ("trace.spans", "count"),
            ("process.peak_heap_mb", "MB"),
            ("process.peak_rss_mb", "MB"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    phoenix_exec::set_global_threads(crate::host_cpus());
    let mut report = match workload {
        "failover-10k" => failover::run(opts),
        "adaptlab-sweep" => sweep::run(opts),
        "scenario-campaign" => campaign::run(opts),
        _ => return None,
    };
    report.note(format!(
        "workload {workload} seed {} seconds {} trace {} threads {} host_cpus {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        phoenix_exec::global().threads(),
        crate::host_cpus()
    ));
    Some(report)
}

/// Values a traced run measured, by per-layer metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, (f64, usize)>);

impl Layers {
    /// Sets one value with its sample count.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), (value, samples));
    }

    /// Sets `<name>` to the mean duration of every span called `span`, in
    /// ms (µs for names ending in `_us`).
    pub fn span_mean(&mut self, tracer: &Tracer, span: &str, name: &str) {
        let d = tracer.durations(span);
        if !d.is_empty() {
            let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
            let total: Duration = d.iter().sum();
            self.set(name, total.as_secs_f64() * scale / d.len() as f64, d.len());
        }
    }

    /// The per-layer times every recomposed plan shares: one mean per
    /// span name, plus the composed plan's own (glue) self time.
    pub fn plan_spans(&mut self, tracer: &Tracer) {
        for (span, name) in [
            ("planner.rank", "planner.rank_ms"),
            ("ranking.global_rank", "ranking.global_rank_ms"),
            ("plan.flatten", "plan.flatten_ms"),
            ("state.clone", "state.clone_ms"),
            ("packing.pack", "packing.pack_ms"),
            ("actions.diff", "actions.diff_ms"),
            ("plan.compose", "plan.composed_ms"),
            ("replan.warm", "replan.warm_ms"),
            ("adaptlab.build_env", "adaptlab.build_env_ms"),
            ("adaptlab.evaluate", "adaptlab.evaluate_ms"),
            ("state.restore", "state.restore_us"),
        ] {
            self.span_mean(tracer, span, name);
        }
        let plans = tracer.durations("plan.compose").len();
        if plans > 0 {
            let own = tracer
                .self_times()
                .get("plan.compose")
                .copied()
                .unwrap_or_default();
            self.set(
                "plan.self_ms",
                own.as_secs_f64() * 1e3 / plans as f64,
                plans,
            );
        }
        let warm = tracer.durations("replan.warm");
        if !warm.is_empty() {
            let mut s = Samples::new();
            warm.iter().for_each(|&d| s.push(d));
            self.set("replan.warm_p99_ms", s.percentile_ms(0.99), s.len());
            self.set("replan.ticks", s.len() as f64, s.len());
        }
    }

    /// Deterministic-plane counters of the enabled recorder.
    pub fn counters(&mut self, rec: &phoenix_obs::Recorder) {
        use phoenix_obs::Counter as C;
        for (c, name) in [
            (C::WaterfillRuns, "ranking.waterfill_runs"),
            (C::PackVictimDeletes, "packing.victims"),
            (C::PackRepackMigrations, "packing.migrations"),
            (C::JournalEntriesUndone, "state.journal_undone"),
            (C::ReplanCacheHits, "replan.cache_hits"),
            (C::ReplanCacheMisses, "replan.cache_misses"),
            (C::RankFullReuses, "replan.rank_full_reuses"),
            (C::SimEvents, "sim.events"),
        ] {
            self.set(name, rec.counter(c) as f64, 1);
        }
        let (h, m) = (
            rec.counter(C::ReplanCacheHits),
            rec.counter(C::ReplanCacheMisses),
        );
        if h + m > 0 {
            self.set(
                "replan.hit_ratio",
                h as f64 / (h + m) as f64,
                (h + m) as usize,
            );
        }
    }

    /// Packing and action counts of one composed plan per sample.
    pub fn composed_counts(&mut self, plans: &[PlanCounts]) {
        let n = plans.len();
        if n == 0 {
            return;
        }
        let mean = |f: &dyn Fn(&PlanCounts) -> usize| {
            plans.iter().map(|p| f(p) as f64).sum::<f64>() / n as f64
        };
        let planned = mean(&|p| p.planned);
        let unplaced = mean(&|p| p.unplaced);
        self.set("planner.apps", mean(&|p| p.apps), n);
        self.set("ranking.items", mean(&|p| p.items), n);
        self.set("packing.placed", planned - unplaced, n);
        self.set("packing.unplaced", unplaced, n);
        if planned > 0.0 {
            self.set("packing.placed_ratio", (planned - unplaced) / planned, n);
        }
        self.set("actions.count", mean(&|p| p.actions), n);
    }

    /// Per-policy plan latency rows from the timing wrapper's samples.
    pub fn policies(&mut self, samples: &[crate::timed::PlanSample]) {
        for p in POLICIES {
            let mut s = Samples::new();
            samples
                .iter()
                .filter(|x| x.policy == p)
                .for_each(|x| s.push(x.duration));
            if !s.is_empty() {
                self.set(&format!("policy.{p}.plan_ms"), s.median_ms(), s.len());
                self.set(
                    &format!("policy.{p}.plan_p99_ms"),
                    s.percentile_ms(0.99),
                    s.len(),
                );
                self.set(&format!("policy.{p}.plans"), s.len() as f64, s.len());
            }
        }
        let pending: Vec<f64> = samples
            .iter()
            .filter(|x| x.policy == "Default")
            .map(|x| x.unplaced as f64)
            .collect();
        if !pending.is_empty() {
            self.set("default.pending", median(&pending), pending.len());
        }
    }

    /// Writes every per-layer metric into `report`, in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics when a value was set under a name missing from
    /// [`per_layer`] (a catalogue bug).
    pub fn into_report(self, report: &mut Report, tracer: &Tracer) {
        let catalogue = per_layer();
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "per-layer value {name} is not in the catalogue"
            );
        }
        for (name, unit) in catalogue {
            let (value, samples) = self.0.get(&name).copied().unwrap_or((0.0, 0));
            report.metric(&name, value, unit, samples);
        }
        report.metric("trace.spans", tracer.spans().len() as f64, "count", 1);
        report.metric("process.peak_heap_mb", crate::heap::peak_mb(), "MB", 1);
        report.metric("process.peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    }
}

/// Records the tracing overhead: the same operations timed untraced and
/// traced.
pub fn overhead(layers: &mut Layers, untraced: Duration, traced: Duration, ops: usize) {
    let (u, t) = (untraced.as_secs_f64() * 1e3, traced.as_secs_f64() * 1e3);
    layers.set("trace.untraced_ms", u, ops);
    layers.set("trace.traced_ms", t, ops);
    layers.set("trace.overhead_ms", t - u, ops);
}

/// Writes the traced run's spans as Chrome trace-event JSON.
pub fn write_trace(report: &mut Report, tracer: &Tracer, opts: &Opts, workload: &str) {
    let dir = &opts.trace_out;
    let path = dir.join(format!("{workload}-seed{}.trace.json", opts.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.chrome_json()));
    match written {
        Ok(()) => report.note(format!("trace: {}", path.display())),
        Err(e) => report.note(format!("trace not written ({}): {e}", path.display())),
    }
}

/// Share of samples dropped at each end before averaging latencies. Plan
/// and tick costs are multimodal (which pods a failure hits decides the
/// path taken), so a median jumps between modes from run to run; a
/// trimmed mean moves smoothly with the mix and ignores scheduler
/// hiccups.
const TRIM: f64 = 0.1;

/// The end-to-end metrics every untraced run reports.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up durations (several per run; the median is reported).
    pub setup: Samples,
    /// Phoenix cold plan latencies (per plan, or per same-failure pair
    /// of plans where a workload plans each failure under both
    /// objectives).
    pub cold: Samples,
    /// Warm monitor-tick latencies, one per tick pair (the pair's mean).
    pub warm_pairs: Samples,
    /// Plans completed and the wall time they took.
    pub plans: (usize, Duration),
    /// Cells scored and the wall time they took.
    pub cells: (usize, Duration),
    /// Per-plan critical availability over the run's fixed plan set.
    pub availability: Vec<f64>,
}

impl EndToEnd {
    /// Writes all [`END_TO_END`] metrics into `report`.
    pub fn into_report(self, report: &mut Report) {
        let rate = |(n, d): (usize, Duration)| {
            if d.is_zero() {
                0.0
            } else {
                n as f64 / d.as_secs_f64()
            }
        };
        report.metric(
            "setup_s",
            self.setup.median_ms() / 1e3,
            "s",
            self.setup.len(),
        );
        report.metric(
            "cold_plan_ms",
            self.cold.trimmed_mean_ms(TRIM),
            "ms",
            self.cold.len(),
        );
        report.metric(
            "warm_replan_ms",
            self.warm_pairs.trimmed_mean_ms(TRIM),
            "ms",
            self.warm_pairs.len() * 2,
        );
        report.metric("plans_per_s", rate(self.plans), "1/s", self.plans.0);
        report.metric("cells_per_s", rate(self.cells), "1/s", self.cells.0);
        report.metric(
            "critical_availability",
            crate::stats::stable_mean(&self.availability),
            "fraction",
            self.availability.len(),
        );
        report.metric("peak_heap_mb", crate::heap::peak_mb(), "MB", 1);
        if let Some(rss) = peak_rss_mb() {
            report.note(format!("peak_rss_mb {rss}"));
        }
        for (what, s) in [("cold", &self.cold), ("warm pair", &self.warm_pairs)] {
            if s.len() <= 64 {
                let ms: Vec<String> = s.ms().iter().map(|v| format!("{v:.1}")).collect();
                report.note(format!("{what} samples (ms): {}", ms.join(" ")));
            }
        }
    }
}

/// How deeply a warm tick's target is checked. Every tick checks that
/// its failed nodes were evacuated; a full invariant recomputation costs
/// as much as a tick at 10k nodes, so loops run it on one pair per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verify {
    /// Failed nodes host no pods in the target.
    Evacuated,
    /// Also `ClusterState::check_invariants` on the target.
    Invariants,
    /// Also warm action plan == cold `plan_with` action plan.
    AgainstCold,
}

/// Distinct node pairs a [`Site`]'s warm ticks rotate through.
const WARM_NODE_PAIRS: usize = 64;

/// A converged cluster and the warm controller that converged it: the
/// fixture of the monitor-tick (`warm_replan_ms`) measurements.
#[derive(Debug)]
pub struct Site {
    /// Warm controller (PhoenixFair) owning the workload.
    pub controller: PhoenixController,
    /// The live, converged cluster.
    pub live: ClusterState,
    pristine: Snapshot,
    /// Node pairs the warm ticks rotate through, so one unlucky pair
    /// does not set a run's figure.
    warm_nodes: Vec<NodeId>,
    next_pair: usize,
}

impl Site {
    /// Converges `baseline` on the controller's own full plan and picks
    /// the two nodes the monitor ticks fail.
    pub fn converge(workload: Workload, baseline: &ClusterState, seed: u64) -> Site {
        let mut controller = PhoenixController::new(
            workload,
            PhoenixConfig::with_objective(ObjectiveKind::Fairness),
        );
        let mut live = controller.replan(baseline, ReplanDelta::Full).target;
        // Ticks fail nodes that host pods: failing an empty node takes
        // the replan's trivial path, and a mix of both would make the
        // median jump between the two.
        let mut warm_nodes: Vec<NodeId> = live
            .healthy_nodes()
            .into_iter()
            .filter(|&n| !live.pods_on(n).is_empty())
            .collect();
        warm_nodes.shuffle(&mut StdRng::seed_from_u64(seed));
        warm_nodes.truncate(2 * WARM_NODE_PAIRS);
        assert!(warm_nodes.len() >= 2, "a site needs two nodes");
        let pristine = live.snapshot();
        Site {
            controller,
            live,
            pristine,
            warm_nodes,
            next_pair: 0,
        }
    }

    /// The managed workload.
    pub fn workload(&self) -> &Workload {
        self.controller.workload()
    }

    /// Fails `frac` of the nodes (seeded), runs `f` on the degraded
    /// cluster, and rewinds to the converged state.
    pub fn with_failure<R>(
        &mut self,
        frac: f64,
        seed: u64,
        restore: Option<(&Tracer, Option<SpanCtx>)>,
        f: impl FnOnce(&Workload, &ClusterState) -> R,
    ) -> R {
        fail_fraction(&mut self.live, frac, &mut StdRng::seed_from_u64(seed));
        let r = f(self.controller.workload(), &self.live);
        self.rewind(restore);
        r
    }

    fn rewind(&mut self, tracer: Option<(&Tracer, Option<SpanCtx>)>) {
        match tracer {
            Some((t, parent)) => t.span("state.restore", parent, |_| {
                self.live.restore_to(&self.pristine)
            }),
            None => self.live.restore_to(&self.pristine),
        }
    }

    /// One warm monitor tick with `failed` (1 or 2) nodes down: times
    /// `replan(.., CapacityOnly)` and checks the target at `verify`'s
    /// depth, outside the timed interval.
    pub fn warm_tick(
        &mut self,
        failed: usize,
        verify: Verify,
        checks: &mut Checks,
        tracer: Option<(&Tracer, Option<SpanCtx>)>,
    ) -> Duration {
        let pair = 2 * (self.next_pair % (self.warm_nodes.len() / 2));
        let down = &self.warm_nodes[pair..pair + failed.min(2)];
        for &n in down {
            self.live.fail_node(n);
        }
        let controller = &mut self.controller;
        let live = &self.live;
        let (res, d) = match tracer {
            Some((t, parent)) => t.span("replan.warm", parent, |_| {
                timed(|| controller.replan(live, ReplanDelta::CapacityOnly))
            }),
            None => timed(|| controller.replan(live, ReplanDelta::CapacityOnly)),
        };
        let mut outcome = match down.iter().find(|&&n| !res.target.pods_on(n).is_empty()) {
            Some(n) => Err(format!("failed node {} still hosts pods", n.index())),
            None => Ok(()),
        };
        if verify >= Verify::Invariants && outcome.is_ok() {
            outcome = res.target.check_invariants();
        }
        if verify == Verify::AgainstCold && outcome.is_ok() {
            let cold = plan_with(
                self.controller.workload(),
                &self.live,
                &PhoenixConfig::with_objective(ObjectiveKind::Fairness),
            );
            if cold.actions != res.actions {
                outcome = Err(format!(
                    "warm plan ({} actions) differs from cold plan ({} actions)",
                    res.actions.len(),
                    cold.actions.len()
                ));
            }
        }
        checks.op("warm replan", outcome);
        if failed >= 2 {
            self.next_pair += 1;
        }
        self.rewind(tracer);
        d
    }

    /// `plan_with` action plans of `rounds` (failure seed, objective),
    /// each on the cluster with half its nodes failed: the reference the
    /// traced run's composed plans must equal. Taken before the recorder
    /// goes in, so its counters see only the composed plans.
    pub fn reference_plans(&mut self, rounds: &[(u64, ObjectiveKind)]) -> Vec<ActionPlan> {
        rounds
            .iter()
            .map(|&(seed, kind)| {
                self.with_failure(0.5, seed, None, |w, s| {
                    plan_with(w, s, &PhoenixConfig::with_objective(kind)).actions
                })
            })
            .collect()
    }

    /// Plans every round again through [`composed_plan`], checking each
    /// against its reference plan.
    pub fn composed_rounds(
        &mut self,
        rounds: &[(u64, ObjectiveKind)],
        reference: &[ActionPlan],
        tracer: &Tracer,
        checks: &mut Checks,
    ) -> Vec<PlanCounts> {
        let pool = phoenix_exec::global();
        let mut counts = Vec::new();
        for (&(seed, kind), mono) in rounds.iter().zip(reference) {
            let cfg = PhoenixConfig::with_objective(kind);
            let outcome = self.with_failure(0.5, seed, Some((tracer, None)), |w, s| {
                let c = composed_plan(w, s, &cfg, pool, tracer, None);
                counts.push(c.counts());
                if c.actions == *mono {
                    c.target.check_invariants()
                } else {
                    Err("composed plan differs from plan_with".into())
                }
            });
            checks.op("composed cold plan", outcome);
        }
        counts
    }

    /// An untimed tick pair that settles the warm cache after
    /// convergence and checks warm == cold on both tick shapes.
    pub fn warm_up(&mut self, checks: &mut Checks) {
        for failed in [1, 2] {
            self.warm_tick(failed, Verify::AgainstCold, checks, None);
        }
    }

    /// A tick pair (one then two nodes down): pushes the pair's mean
    /// latency and returns the pair's total.
    pub fn warm_pair(
        &mut self,
        verify: Verify,
        checks: &mut Checks,
        e2e: &mut EndToEnd,
    ) -> Duration {
        let a = self.warm_tick(1, verify, checks, None);
        let b = self.warm_tick(2, verify, checks, None);
        e2e.warm_pairs.push((a + b) / 2);
        a + b
    }
}
