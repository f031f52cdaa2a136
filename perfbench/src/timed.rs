//! A [`ResiliencePolicy`] wrapper that times every `plan` call from the
//! outside, so in-simulator and in-sweep planning is measured without
//! touching `kubesim` or `adaptlab`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use phoenix_adaptlab::metrics::critical_service_availability;
use phoenix_cluster::ClusterState;
use phoenix_core::policies::{PolicyPlan, ResiliencePolicy};
use phoenix_core::spec::Workload;

/// One timed `plan` call.
#[derive(Debug, Clone, Copy)]
pub struct PlanSample {
    /// The wrapped policy's name.
    pub policy: &'static str,
    /// Wall time of the inner `plan` call.
    pub duration: Duration,
    /// Workload pods the plan left unplaced (pending, for `Default`).
    pub unplaced: usize,
    /// Critical-service availability of the target, when the wrapper
    /// was asked to score targets.
    pub critical_availability: Option<f64>,
}

/// Shared log of [`PlanSample`]s, appended from any pool worker.
#[derive(Debug, Default)]
pub struct PlanLog(Mutex<Vec<PlanSample>>);

impl PlanLog {
    /// Takes every sample logged so far, leaving the log empty.
    pub fn drain(&self) -> Vec<PlanSample> {
        std::mem::take(&mut *self.0.lock().expect("plan log poisoned"))
    }

    fn push(&self, s: PlanSample) {
        self.0.lock().expect("plan log poisoned").push(s);
    }
}

/// Delegates `name` and `plan` to `inner` and logs each call's duration.
/// Only the inner call is inside the timed interval; scoring the target
/// happens after it.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn ResiliencePolicy>,
    log: Arc<PlanLog>,
    score: bool,
}

impl TimedPolicy {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: Box<dyn ResiliencePolicy>, log: Arc<PlanLog>) -> TimedPolicy {
        TimedPolicy {
            inner,
            log,
            score: false,
        }
    }

    /// Also records the critical-service availability of each target.
    pub fn scoring(mut self) -> TimedPolicy {
        self.score = true;
        self
    }
}

/// Wraps every policy of `roster` into one shared log.
pub fn wrap_roster(
    roster: Vec<Box<dyn ResiliencePolicy>>,
    log: &Arc<PlanLog>,
    score: bool,
) -> Vec<Box<dyn ResiliencePolicy>> {
    roster
        .into_iter()
        .map(|p| {
            let t = TimedPolicy::new(p, Arc::clone(log));
            Box::new(if score { t.scoring() } else { t }) as Box<dyn ResiliencePolicy>
        })
        .collect()
}

impl ResiliencePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, workload: &Workload, state: &ClusterState) -> PolicyPlan {
        let t = Instant::now();
        let plan = self.inner.plan(workload, state);
        let duration = t.elapsed();
        let pods: usize = workload
            .apps()
            .map(|(_, a)| {
                a.services()
                    .iter()
                    .map(|s| s.replicas as usize)
                    .sum::<usize>()
            })
            .sum();
        self.log.push(PlanSample {
            policy: self.inner.name(),
            duration,
            unplaced: pods.saturating_sub(plan.target.pod_count()),
            critical_availability: self
                .score
                .then(|| critical_service_availability(workload, &plan.target)),
        });
        plan
    }
}
