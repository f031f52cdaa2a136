//! One cold Phoenix plan rebuilt from the public call of each layer —
//! `app_rank` → `global_rank` → pod flattening via `Workload::pod_keys`
//! → `ClusterState::clone` → `pack` → `diff_states` — with a span around
//! each call. Its action plan must equal `plan_with`'s.

use std::time::{Duration, Instant};

use phoenix_cluster::packing::{pack, PackOutcome, PlannedPod};
use phoenix_cluster::ClusterState;
use phoenix_core::actions::{diff_states, ActionPlan};
use phoenix_core::controller::PhoenixConfig;
use phoenix_core::planner::app_rank;
use phoenix_core::ranking::global_rank;
use phoenix_core::spec::{AppSpec, ServiceId, Workload};
use phoenix_exec::Pool;

use crate::spans::{SpanCtx, Tracer};

/// Time spent by a pool fan-out: per-job time and wall × workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Sum of the jobs' own durations.
    pub jobs: Duration,
    /// Fan-out wall time multiplied by the pool's worker count.
    pub capacity: Duration,
}

impl Busy {
    /// Adds another fan-out.
    pub fn add(&mut self, other: Busy) {
        self.jobs += other.jobs;
        self.capacity += other.capacity;
    }

    /// Σ job time ÷ (wall × workers); 0 when nothing fanned out.
    pub fn ratio(&self) -> f64 {
        if self.capacity.is_zero() {
            0.0
        } else {
            self.jobs.as_secs_f64() / self.capacity.as_secs_f64()
        }
    }
}

/// Runs `f` over `n` indices on `pool`, timing each job.
pub fn timed_fanout<R: Send>(
    pool: &Pool,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> (Vec<R>, Busy) {
    let t = Instant::now();
    let job = |i: usize| {
        let s = Instant::now();
        let r = f(i);
        (r, s.elapsed())
    };
    let out = pool.par_map_range(n, job);
    let wall = t.elapsed();
    let jobs = out.iter().map(|(_, d)| *d).sum();
    let busy = Busy {
        jobs,
        capacity: wall * pool.threads() as u32,
    };
    (out.into_iter().map(|(r, _)| r).collect(), busy)
}

/// What the composed plan produced.
#[derive(Debug)]
pub struct Composed {
    /// The packed target state.
    pub target: ClusterState,
    /// Live → target action plan.
    pub actions: ActionPlan,
    /// Raw packing outcome.
    pub packing: PackOutcome,
    /// Apps ranked.
    pub apps: usize,
    /// Items of the global activation list.
    pub items: usize,
    /// Pods handed to packing.
    pub planned: usize,
    /// The `app_rank` fan-out.
    pub busy: Busy,
}

/// Sizes of one composed plan, kept once the plan itself is dropped.
#[derive(Debug, Clone, Copy)]
pub struct PlanCounts {
    /// Apps ranked.
    pub apps: usize,
    /// Items of the global activation list.
    pub items: usize,
    /// Pods handed to packing.
    pub planned: usize,
    /// Planned pods packing could not place.
    pub unplaced: usize,
    /// Actions of the live → target plan.
    pub actions: usize,
}

impl Composed {
    /// The plan's sizes.
    pub fn counts(&self) -> PlanCounts {
        PlanCounts {
            apps: self.apps,
            items: self.items,
            planned: self.planned,
            unplaced: self.packing.unplaced.len(),
            actions: self.actions.len(),
        }
    }
}

/// Plans `state` cold through the public layer calls, one span per layer
/// under a `plan.compose` root. The workload must be mode-less (serving
/// modes resolve inside the planner, which has no public flattening
/// call).
///
/// # Panics
///
/// Panics when `workload` declares serving modes.
pub fn composed_plan(
    workload: &Workload,
    state: &ClusterState,
    config: &PhoenixConfig,
    pool: &Pool,
    tracer: &Tracer,
    parent: Option<SpanCtx>,
) -> Composed {
    assert!(
        !workload.has_modes(),
        "the composed plan covers mode-less workloads only"
    );
    tracer.span("plan.compose", parent, |root| {
        let specs: Vec<&AppSpec> = workload.apps().map(|(_, a)| a).collect();
        let (app_ranks, busy): (Vec<Vec<ServiceId>>, Busy) =
            tracer.span("planner.rank", Some(root), |_| {
                timed_fanout(pool, specs.len(), |i| {
                    app_rank(specs[i], config.planner.traversal)
                })
            });
        let rank = tracer.span("ranking.global_rank", Some(root), |_| {
            global_rank(
                workload,
                &app_ranks,
                config.objective.as_ref(),
                state.healthy_capacity(),
                &config.planner,
            )
        });
        let plan: Vec<PlannedPod> = tracer.span("plan.flatten", Some(root), |_| {
            rank.items
                .iter()
                .flat_map(|item| {
                    let demand = workload.app(item.app).service(item.service).demand;
                    workload
                        .pod_keys(item.app, item.service)
                        .into_iter()
                        .map(move |key| PlannedPod::new(key, demand))
                })
                .collect()
        });
        let mut target = tracer.span("state.clone", Some(root), |_| state.clone());
        let packing = tracer.span("packing.pack", Some(root), |_| {
            pack(&mut target, &plan, &config.packing)
        });
        let actions = tracer.span("actions.diff", Some(root), |_| diff_states(state, &target));
        Composed {
            target,
            actions,
            packing,
            apps: specs.len(),
            items: rank.items.len(),
            planned: plan.len(),
            busy,
        }
    })
}
