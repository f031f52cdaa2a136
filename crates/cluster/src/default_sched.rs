//! Emulation of the vanilla Kubernetes scheduler — the paper's `Default`
//! baseline.
//!
//! Kubernetes reschedules pods evicted by node failures one at a time, in an
//! order that ignores criticality, scoring nodes by *least allocated*
//! (spreading). It never deletes running pods to make room (preemption is
//! off for equal-priority pods) and never migrates; pods that do not fit
//! stay `Pending` until capacity returns — which is exactly why `Default`
//! only recovers "once all nodes are back" in Fig. 6.

use phoenix_obs::Counter;

use crate::packing::PlannedPod;
use crate::{ClusterState, NodeId, PodKey, SortedNodes};

/// Result of a default-scheduler pass.
#[derive(Debug, Clone, Default)]
pub struct DefaultOutcome {
    /// Pods placed this pass.
    pub placed: Vec<(PodKey, NodeId)>,
    /// Pods left pending (no node fits).
    pub pending: Vec<PodKey>,
}

/// Schedules `pending` pods onto `state` with least-allocated spreading.
///
/// Pods are processed in pod-key order (deterministic, criticality-blind,
/// like a controller re-creating pods in object order). Already-assigned
/// pods are skipped.
pub fn schedule_pending(state: &mut ClusterState, pending: &[PlannedPod]) -> DefaultOutcome {
    let mut out = DefaultOutcome::default();
    let mut todo: Vec<&PlannedPod> = pending.iter().collect();
    todo.sort_by_key(|p| p.key);
    // Least-allocated scoring via the sorted remaining-capacity index:
    // worst-fit = largest remaining. The scan stops at the first node
    // whose cpu key is short of the demand, so a pod that fits nowhere
    // costs O(log n), not a walk over every healthy node. Ties break by
    // the index order (highest node id within a capacity tier) —
    // arbitrary but deterministic, like the real scheduler's score ties.
    let mut sorted = SortedNodes::new();
    for n in state.healthy_nodes() {
        sorted.insert(n, state.remaining(n).scalar());
    }
    let obs = phoenix_obs::global();
    let mut visited = 0u64;
    for planned in todo {
        if state.node_of(planned.key).is_some() {
            continue;
        }
        let target = sorted
            .iter_desc_fitting(planned.demand.cpu)
            .map(|(n, _)| n)
            .find(|&n| {
                visited += 1;
                planned.demand.fits_in(&state.remaining(n))
            });
        match target {
            Some(n) => {
                state
                    .assign(planned.key, planned.demand, n)
                    .expect("fit was just verified");
                sorted.update(n, state.remaining(n).scalar());
                out.placed.push((planned.key, n));
            }
            None => out.pending.push(planned.key),
        }
    }
    obs.add(Counter::FitNodesVisited, visited);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resources;

    fn pod(s: u32) -> PodKey {
        PodKey::new(0, s, 0)
    }

    #[test]
    fn spreads_least_allocated() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(9), Resources::cpu(4.0), NodeId::new(0))
            .unwrap();
        let out = schedule_pending(&mut state, &[PlannedPod::new(pod(0), Resources::cpu(2.0))]);
        // Node1 has more remaining → spread there.
        assert_eq!(out.placed, vec![(pod(0), NodeId::new(1))]);
    }

    #[test]
    fn pending_when_no_fit_and_never_deletes() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        state
            .assign(pod(9), Resources::cpu(4.0), NodeId::new(0))
            .unwrap();
        let out = schedule_pending(&mut state, &[PlannedPod::new(pod(0), Resources::cpu(3.0))]);
        assert_eq!(out.pending, vec![pod(0)]);
        // The running pod is untouched.
        assert_eq!(state.node_of(pod(9)), Some(NodeId::new(0)));
    }

    #[test]
    fn processes_in_key_order_not_plan_order() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        // Plan order says pod7 first, but key order places pod1 first.
        let out = schedule_pending(
            &mut state,
            &[
                PlannedPod::new(pod(7), Resources::cpu(4.0)),
                PlannedPod::new(pod(1), Resources::cpu(4.0)),
            ],
        );
        assert_eq!(out.placed.len(), 1);
        assert_eq!(out.placed[0].0, pod(1));
        assert_eq!(out.pending, vec![pod(7)]);
    }

    #[test]
    fn deterministic_tie_break() {
        // Equal-capacity ties resolve by index order (highest id first in
        // the descending scan) — arbitrary but stable across runs.
        let run = || {
            let mut state = ClusterState::homogeneous(3, Resources::cpu(10.0));
            schedule_pending(&mut state, &[PlannedPod::new(pod(0), Resources::cpu(1.0))]).placed
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![(pod(0), NodeId::new(2))]);
    }
}
