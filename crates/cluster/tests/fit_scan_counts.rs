//! Scan-length gates on the deterministic `fit_nodes_visited` counter: a
//! pod that fits nowhere must cost no node visits, so the capacity-ordered
//! scans of the `Default` scheduler and the packer's fit step stay linear
//! in placements instead of quadratic in pods × nodes.
//!
//! Every test holds `install_scoped`, which serializes them; no other test
//! in this binary runs the planner, so the global counter sees only the
//! call under test.

use phoenix_cluster::default_sched::schedule_pending;
use phoenix_cluster::packing::{pack, FitStrategy, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, PodKey, Resources};
use phoenix_obs::{install_scoped, Counter, Recorder};

const NODES: usize = 1_000;
const PODS: u32 = 10_000;

/// 1,000 empty 4-CPU nodes and 10,000 1-CPU pods: 4,000 fit, 6,000 never
/// do.
fn over_full() -> (ClusterState, Vec<PlannedPod>) {
    let state = ClusterState::homogeneous(NODES, Resources::cpu(4.0));
    let pods = (0..PODS)
        .map(|s| PlannedPod::new(PodKey::new(0, s, 0), Resources::cpu(1.0)))
        .collect();
    (state, pods)
}

/// Runs `f` under a fresh enabled recorder and returns its node visits.
fn visits(f: impl FnOnce()) -> u64 {
    let rec = Recorder::enabled();
    let _lease = install_scoped(rec.clone());
    f();
    rec.counter(Counter::FitNodesVisited)
}

#[test]
fn default_scheduler_visits_one_node_per_placement_and_none_per_pending_pod() {
    let (mut state, pods) = over_full();
    let mut placed = 0;
    let visited = visits(|| {
        let out = schedule_pending(&mut state, &pods);
        placed = out.placed.len();
        assert_eq!(out.pending.len(), 6_000);
    });
    assert_eq!(placed, 4_000);
    // Least-allocated always finds room on the first (emptiest) node; an
    // unbounded scan would add 1,000 visits per pending pod (~6M).
    assert_eq!(visited, 4_000);
}

#[test]
fn packer_fit_scans_visit_no_node_for_an_unplaceable_pod() {
    // Best- and worst-fit hit on their first candidate. First-fit walks
    // ids: the i-th placement (0-based) lands on node i / 4 after
    // visiting i / 4 + 1 nodes, 4 × (1 + … + 1000) in all. The 6,000
    // unplaceable pods add nothing under any strategy.
    for (fit, want) in [
        (FitStrategy::BestFit, 4_000),
        (FitStrategy::WorstFit, 4_000),
        (FitStrategy::FirstFit, 4 * 500_500),
    ] {
        let (mut state, plan) = over_full();
        let cfg = PackingConfig {
            fit,
            ..PackingConfig::default()
        };
        let mut unplaced = 0;
        let visited = visits(|| unplaced = pack(&mut state, &plan, &cfg).unplaced.len());
        assert_eq!(unplaced, 6_000, "{fit:?}");
        assert_eq!(visited, want, "{fit:?}");
    }
}
