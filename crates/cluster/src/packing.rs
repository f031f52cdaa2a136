//! The Phoenix scheduler's packing module (paper Algorithm 2, Appendix B).
//!
//! Given the planner's globally-ranked list of microservices, map each one
//! to a healthy server with a three-pronged strategy:
//!
//! 1. **Best-fit** — the node with the smallest remaining capacity that
//!    still accommodates the demand;
//! 2. **Repack** — if nothing fits, pick an emptyish node and migrate its
//!    smallest pods elsewhere until the demand fits;
//! 3. **Delete-lower-ranks** — as a last resort, delete currently running
//!    pods in reverse rank order (lowest priority first) until space opens.
//!
//! All work happens on a scratch [`ClusterState`] copy owned by the caller;
//! enforcement is the agent's job (§4.2).

use std::collections::BTreeSet;

use phoenix_obs::{Counter, Recorder};

use crate::{ClusterState, FxHashMap, NodeId, PodKey, Resources, SortedNodes};

/// One entry of the planner's globally-ranked list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedPod {
    /// The container to activate.
    pub key: PodKey,
    /// Its resource demand.
    pub demand: Resources,
}

impl PlannedPod {
    /// Creates a planned pod.
    pub fn new(key: PodKey, demand: Resources) -> PlannedPod {
        PlannedPod { key, demand }
    }
}

/// Node-selection strategy for the fit step (ablation knob; the paper uses
/// best-fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// Smallest remaining capacity that fits (paper default).
    #[default]
    BestFit,
    /// Lowest node id that fits (classic first-fit).
    FirstFit,
    /// Largest remaining capacity (Kubernetes' least-allocated spreading).
    WorstFit,
}

/// Packing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingConfig {
    /// Fit strategy for step 1.
    pub fit: FitStrategy,
    /// Enable the migration/repack step.
    pub enable_migration: bool,
    /// Maximum pods moved per repack attempt.
    pub max_migration_moves: usize,
    /// Maximum candidate source nodes examined per repack attempt.
    pub max_migration_nodes: usize,
    /// Abort the whole pack on the first unplaceable pod (the paper's
    /// Algorithm 2 returns `None`); when `false`, skip and continue.
    pub strict: bool,
    /// Per-node pod-count cap — the "per-node microservice limits imposed
    /// by underlying cluster schedulers" the paper lists as an operator
    /// constraint (§4); Kubernetes ships with `max-pods = 110`. `None`
    /// disables the check.
    pub max_pods_per_node: Option<usize>,
    /// Re-book running pods whose planned demand differs from their live
    /// booking (serving-mode shifts). Off, a running pod keeps its old
    /// booking untouched — the historical contract mode-less plans are
    /// pinned to. On, such a pod is re-booked in place when it still
    /// fits, and otherwise re-enters the fit/repack/victim flow like a
    /// self-victimized pod (same node ⇒ keep, elsewhere ⇒ migration).
    pub rebook_in_place: bool,
}

impl Default for PackingConfig {
    fn default() -> PackingConfig {
        PackingConfig {
            fit: FitStrategy::BestFit,
            enable_migration: true,
            max_migration_moves: 8,
            max_migration_nodes: 8,
            strict: false,
            max_pods_per_node: None,
            rebook_in_place: false,
        }
    }
}

/// Result of a packing run: the target state and the actions that reach it.
#[derive(Debug, Clone, Default)]
pub struct PackOutcome {
    /// Pods deleted (pre-existing pods turned off, including plan victims).
    pub deletions: Vec<PodKey>,
    /// Pods migrated between healthy nodes: `(pod, from, to)`.
    pub migrations: Vec<(PodKey, NodeId, NodeId)>,
    /// Pods newly started: `(pod, node)`.
    pub starts: Vec<(PodKey, NodeId)>,
    /// Planned pods that could not be placed.
    pub unplaced: Vec<PodKey>,
    /// `true` when `strict` mode aborted mid-plan.
    pub aborted: bool,
}

impl PackOutcome {
    /// Number of actions of all kinds.
    pub fn action_count(&self) -> usize {
        self.deletions.len() + self.migrations.len() + self.starts.len()
    }
}

/// Packs the planner's ranked `plan` into `state` (mutated in place).
///
/// Pods currently assigned but absent from the plan are deleted first —
/// that is the diagonal-scaling step. Remaining plan entries are placed in
/// rank order with the three-pronged strategy.
pub fn pack(state: &mut ClusterState, plan: &[PlannedPod], cfg: &PackingConfig) -> PackOutcome {
    let rank_of: FxHashMap<PodKey, usize> =
        plan.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
    pack_prepared(state, plan, cfg, |p| rank_of.get(&p).copied())
}

/// [`pack`] with a caller-supplied `pod key → plan index` lookup.
///
/// Warm replanning (`phoenix_core::replan`) passes a dense
/// workload-shaped table here instead of a freshly built hash map, so
/// steady rounds skip the O(pods) map construction and pay array reads in
/// the membership scans. `rank_of` **must** return exactly `Some(i)` for
/// `plan[i].key` and `None` for every other pod; anything else loses the
/// byte-identical-to-[`pack`] guarantee.
///
/// # Panics
///
/// Panics (in debug builds) when `rank_of` disagrees with `plan`, and in
/// all builds when it returns `None` for an assigned planned pod.
pub fn pack_prepared(
    state: &mut ClusterState,
    plan: &[PlannedPod],
    cfg: &PackingConfig,
    rank_of: impl Fn(PodKey) -> Option<usize>,
) -> PackOutcome {
    debug_assert!(plan
        .iter()
        .enumerate()
        .all(|(i, p)| rank_of(p.key) == Some(i)));
    let mut out = PackOutcome::default();
    drop_unplanned(state, &rank_of, &mut out);
    let mut sorted = healthy_sorted(state);
    let mut ctx = PackCtx {
        obs: phoenix_obs::global(),
        ..PackCtx::default()
    };
    place_range(state, plan, cfg, &rank_of, &mut sorted, &mut ctx, &mut out);
    ctx.obs.add(Counter::FitNodesVisited, ctx.fit_nodes_visited);
    out
}

/// Cross-pod bookkeeping of one pack.
#[derive(Default)]
struct PackCtx {
    /// Observability handle, grabbed once per pack (the default is the
    /// disabled recorder).
    obs: Recorder,
    /// Active planned pods, ordered by rank (for the deletion fallback).
    /// Built lazily on the first fallback: rounds with enough capacity —
    /// the common case, and every warm replan after a small failure —
    /// never pay the O(pods · log pods) set construction.
    active: Option<BTreeSet<(usize, PodKey)>>,
    /// Original node of every pre-existing pod the deletion fallback
    /// victimized this pack: consulted on re-placement to collapse the
    /// delete + start pair into a keep or a migration.
    victim_origin: FxHashMap<PodKey, NodeId>,
    /// Nodes examined by [`try_fit`] this pack (`fit_nodes_visited`).
    fit_nodes_visited: u64,
}

/// Places `plan` in rank order with the three-pronged strategy,
/// appending to `out`; stops early when strict mode aborts.
///
/// Kept out of [`pack_prepared`]'s body: with the loop inlined there,
/// warm monitor-tick replans on 2k-node clusters ran 15–20% slower
/// (`perfbench` `adaptlab-sweep`, 2-vCPU VM).
fn place_range(
    state: &mut ClusterState,
    plan: &[PlannedPod],
    cfg: &PackingConfig,
    rank_of: &impl Fn(PodKey) -> Option<usize>,
    sorted: &mut SortedNodes,
    ctx: &mut PackCtx,
    out: &mut PackOutcome,
) {
    for (rank, planned) in plan.iter().enumerate() {
        let mut in_place = None;
        if state.node_of(planned.key).is_some() {
            let booked = state
                .demand_of(planned.key)
                .expect("assigned pod has demand");
            if !cfg.rebook_in_place || booked == planned.demand {
                continue; // already running; keep in place
            }
            // Serving-mode rebook: free the old booking and re-place at
            // the planned demand, preferring the pod's own node so a
            // shrink (or a grow that still fits) never moves it. A grow
            // that no longer fits re-enters the regular flow as a
            // self-victimization: same node ⇒ keep, elsewhere ⇒
            // migration, nowhere ⇒ the delete stands.
            let (from, _) = state.remove(planned.key).expect("pod is assigned");
            sorted.update(from, state.remaining(from).scalar());
            if let Some(active) = ctx.active.as_mut() {
                active.remove(&(rank, planned.key));
            }
            ctx.victim_origin.insert(planned.key, from);
            out.deletions.push(planned.key);
            if fits_node(state, cfg, from, planned.demand) {
                in_place = Some(from);
            }
        }
        let mut target = in_place.or_else(|| {
            try_fit(
                state,
                sorted,
                planned.demand,
                cfg,
                &mut ctx.fit_nodes_visited,
            )
        });
        if target.is_none() && cfg.enable_migration {
            let migrations_before = out.migrations.len();
            target = repack_to_fit(state, sorted, planned.demand, cfg, out);
            ctx.obs.add(
                Counter::PackRepackMigrations,
                (out.migrations.len() - migrations_before) as u64,
            );
        }
        while target.is_none() {
            let active = ctx.active.get_or_insert_with(|| {
                state
                    .assignments()
                    .map(|(p, _, _)| (rank_of(p).expect("assigned pod is planned"), p))
                    .collect()
            });
            // Delete the lowest-priority active pod that ranks below us.
            let Some(&(victim_rank, victim)) = active.iter().next_back() else {
                break;
            };
            if victim_rank <= rank {
                break;
            }
            active.remove(&(victim_rank, victim));
            let (node, _) = state.remove(victim).expect("victim is assigned");
            sorted.update(node, state.remaining(node).scalar());
            ctx.obs.incr(Counter::PackVictimDeletes);
            // Pods are started in rank order and every victim ranks below
            // the pod being placed, so no victim was started by this pack:
            // it is always a pre-existing pod being deleted.
            debug_assert!(!out.starts.iter().any(|&(p, _)| p == victim));
            out.deletions.push(victim);
            ctx.victim_origin.insert(victim, node);
            target = try_fit(
                state,
                sorted,
                planned.demand,
                cfg,
                &mut ctx.fit_nodes_visited,
            );
        }
        match target {
            Some(node) => {
                state
                    .assign(planned.key, planned.demand, node)
                    .expect("fit was just verified");
                sorted.update(node, state.remaining(node).scalar());
                ctx.obs.incr(Counter::PackPlacements);
                if let Some(active) = ctx.active.as_mut() {
                    active.insert((rank, planned.key));
                }
                match ctx.victim_origin.remove(&planned.key) {
                    // A pre-existing pod victimized earlier this pack and
                    // re-placed at its own rank: reporting the delete +
                    // start pair would make the agent restart a running
                    // pod (exactly what cooperative degradation forbids).
                    // Collapse it — back on its old node it is a keep,
                    // elsewhere a migration.
                    Some(from) => {
                        // A pod is deleted at most once per pack, and its
                        // deletion is recent: search from the back.
                        let pos = out
                            .deletions
                            .iter()
                            .rposition(|&p| p == planned.key)
                            .expect("victimized pod was recorded deleted");
                        out.deletions.swap_remove(pos);
                        if from != node {
                            out.migrations.push((planned.key, from, node));
                        }
                    }
                    None => out.starts.push((planned.key, node)),
                }
            }
            None => {
                out.unplaced.push(planned.key);
                if cfg.strict {
                    out.aborted = true;
                    return;
                }
            }
        }
    }
}

/// Step 0: diagonal scaling — drop running pods the plan turned off.
fn drop_unplanned(
    state: &mut ClusterState,
    rank_of: &impl Fn(PodKey) -> Option<usize>,
    out: &mut PackOutcome,
) {
    let to_drop: Vec<PodKey> = state
        .assignments()
        .filter(|&(p, _, _)| rank_of(p).is_none())
        .map(|(p, _, _)| p)
        .collect();
    for p in to_drop {
        state.remove(p).expect("pod listed in assignments");
        out.deletions.push(p);
    }
}

/// The healthy nodes keyed by remaining capacity: the packing loop's
/// node index, re-keyed on every capacity mutation.
fn healthy_sorted(state: &ClusterState) -> SortedNodes {
    let mut sorted = SortedNodes::new();
    for n in state.healthy_nodes() {
        sorted.insert(n, state.remaining(n).scalar());
    }
    sorted
}

/// Whether `node` can take `demand`: capacity in both dimensions plus the
/// per-node pod-count cap.
fn fits_node(state: &ClusterState, cfg: &PackingConfig, node: NodeId, demand: Resources) -> bool {
    demand.fits_in(&state.remaining(node))
        && cfg
            .max_pods_per_node
            .is_none_or(|cap| state.pods_on(node).len() < cap)
}

/// Step 1: find a node for `demand` under the configured strategy,
/// adding the nodes examined to `visited`.
fn try_fit(
    state: &ClusterState,
    sorted: &SortedNodes,
    demand: Resources,
    cfg: &PackingConfig,
    visited: &mut u64,
) -> Option<NodeId> {
    let mut fits = |n: NodeId| {
        *visited += 1;
        fits_node(state, cfg, n, demand)
    };
    let target = match cfg.fit {
        FitStrategy::BestFit => sorted
            .best_fit_candidates(demand.scalar())
            .find(|&n| fits(n)),
        // First fit by id order, stopping at the first fit. When even the
        // largest cpu key is short of the demand nothing can fit, and the
        // id-order walk is skipped.
        FitStrategy::FirstFit => match sorted.iter_desc_fitting(demand.cpu).next() {
            None => None,
            Some(_) => sorted.iter_by_id().map(|(n, _)| n).find(|&n| fits(n)),
        },
        // The descending scan stops at the first cpu key short of the
        // demand: every node past it fails `fits_node` too.
        FitStrategy::WorstFit => sorted
            .iter_desc_fitting(demand.cpu)
            .map(|(n, _)| n)
            .find(|&n| fits(n)),
    };
    target
}

/// Step 2: free up one node by migrating its smallest pods elsewhere.
///
/// Examines candidate source nodes from most to least remaining capacity
/// (emptier nodes need fewer moves). Tentative moves are rolled back when a
/// candidate cannot be freed within the move budget.
fn repack_to_fit(
    state: &mut ClusterState,
    sorted: &mut SortedNodes,
    demand: Resources,
    cfg: &PackingConfig,
    out: &mut PackOutcome,
) -> Option<NodeId> {
    let candidates: Vec<NodeId> = sorted
        .iter_desc()
        .take(cfg.max_migration_nodes)
        .map(|(n, _)| n)
        .collect();
    for source in candidates {
        let mut moves: Vec<(PodKey, NodeId, NodeId)> = Vec::new();
        // Smallest pods first: they are the easiest to re-home.
        let mut pods: Vec<(PodKey, Resources)> = state
            .pods_on(source)
            .iter()
            .map(|&p| (p, state.demand_of(p).expect("pod on node is assigned")))
            .collect();
        // `total_cmp`: a degenerate (NaN) demand must order deterministically
        // (last, as the hardest to re-home), not panic mid-incident.
        pods.sort_by(|a, b| a.1.scalar().total_cmp(&b.1.scalar()));
        let mut ok = false;
        for (p, d) in pods {
            if fits_node(state, cfg, source, demand) {
                ok = true;
                break;
            }
            if moves.len() >= cfg.max_migration_moves {
                break;
            }
            // Find a home on any *other* node (best-fit).
            let Some(dest) = sorted
                .best_fit_candidates(d.scalar())
                .find(|&n| n != source && fits_node(state, cfg, n, d))
            else {
                continue;
            };
            state.migrate(p, dest).expect("fit was just verified");
            sorted.update(source, state.remaining(source).scalar());
            sorted.update(dest, state.remaining(dest).scalar());
            moves.push((p, source, dest));
        }
        if !ok && fits_node(state, cfg, source, demand) {
            ok = true;
        }
        if ok {
            out.migrations.extend(moves);
            return Some(source);
        }
        // Roll back tentative moves, most recent first.
        for (p, src, dest) in moves.into_iter().rev() {
            state.migrate(p, src).expect("rollback to source succeeds");
            sorted.update(src, state.remaining(src).scalar());
            sorted.update(dest, state.remaining(dest).scalar());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod(s: u32) -> PodKey {
        PodKey::new(0, s, 0)
    }

    fn plan_of(entries: &[(u32, f64)]) -> Vec<PlannedPod> {
        entries
            .iter()
            .map(|&(s, cpu)| PlannedPod::new(pod(s), Resources::cpu(cpu)))
            .collect()
    }

    #[test]
    fn fresh_cluster_best_fit_packs_tightly() {
        let mut state = ClusterState::new([Resources::cpu(10.0), Resources::cpu(4.0)]);
        let plan = plan_of(&[(0, 4.0), (1, 6.0), (2, 4.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(out.unplaced.is_empty());
        assert_eq!(out.starts.len(), 3);
        // Best-fit: pod0 (4.0) goes to the 4-CPU node, pods 1+2 fill node 0.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(state.remaining(NodeId::new(0)).cpu, 0.0);
        state.check_invariants().unwrap();
    }

    #[test]
    fn running_pods_kept_in_place() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(0), Resources::cpu(3.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 3.0), (1, 2.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(out.starts.len(), 1);
        assert!(out.deletions.is_empty());
    }

    #[test]
    fn pods_not_in_plan_are_deleted() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(7), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 9.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(out.deletions, vec![pod(7)]);
        assert_eq!(state.node_of(pod(7)), None);
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
    }

    #[test]
    fn migration_frees_a_node() {
        // Node0: 6/10 used by two 3-CPU pods; node1: 8/10 used.
        // An 8-CPU pod fits nowhere, but moving one 3-CPU pod from node0 to
        // node1 leaves node0 with 7... still not 8; moving both leaves 10.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(1, 3.0), (2, 3.0), (3, 4.0), (0, 8.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(out.unplaced.is_empty(), "unplaced: {:?}", out.unplaced);
        // Repack empties node1 (most remaining) by moving pod3 to node0,
        // then places the 8-CPU pod on the freed node1.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(out.deletions.is_empty());
        state.check_invariants().unwrap();
    }

    #[test]
    fn migration_disabled_falls_through_to_deletion() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 8.0), (1, 3.0), (2, 3.0), (3, 4.0)]);
        let cfg = PackingConfig {
            enable_migration: false,
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // Lowest-priority pod3 is victimized, freeing node1 for the 8-CPU
        // pod; when pod3's own turn comes it is re-placed in the leftover
        // space on node0. The delete + start pair collapses into the one
        // action the agent actually needs: a migration (a running pod is
        // never restarted in place of a move).
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(state.node_of(pod(3)), Some(NodeId::new(0)));
        assert!(out.deletions.is_empty(), "deletions: {:?}", out.deletions);
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(!out.starts.iter().any(|&(p, _)| p == pod(3)));
        state.check_invariants().unwrap();
    }

    #[test]
    fn victim_replaced_on_its_own_node_is_a_keep() {
        // One 12-CPU node running pod5 at 3 CPUs. The plan puts a 10-CPU
        // pod first and shrinks pod5 to 2 CPUs: pod5 is victimized to fit
        // rank 0, then re-placed on the very same node. Net effect for the
        // agent: nothing — no delete, no start, no migration for pod5.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(12.0));
        state
            .assign(pod(5), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 10.0), (5, 2.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(5)), Some(NodeId::new(0)));
        assert!(out.deletions.is_empty(), "deletions: {:?}", out.deletions);
        assert!(out.migrations.is_empty());
        assert_eq!(out.starts, vec![(pod(0), NodeId::new(0))]);
        assert!(out.unplaced.is_empty());
        state.check_invariants().unwrap();
    }

    #[test]
    fn starts_and_deletions_never_share_a_pod() {
        // The `migration_disabled_falls_through_to_deletion` shape used to
        // report pod3 in both `deletions` and `starts` — a spurious
        // restart of a running pod. Assert the contract directly.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(4.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(0, 8.0), (1, 3.0), (2, 3.0), (3, 4.0)]);
        for enable_migration in [false, true] {
            let mut s = state.clone();
            let cfg = PackingConfig {
                enable_migration,
                ..PackingConfig::default()
            };
            let out = pack(&mut s, &plan, &cfg);
            for &(p, _) in &out.starts {
                assert!(
                    !out.deletions.contains(&p),
                    "pod {p} reported deleted and started (migration={enable_migration})"
                );
            }
            for &p in &out.deletions {
                assert_eq!(s.node_of(p), None, "deleted pod {p} still assigned");
            }
        }
    }

    #[test]
    fn deletion_respects_rank_order() {
        // One 10-CPU node fully used by two running pods ranked 1 and 2;
        // plan puts a new 6-CPU pod at rank 0.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(5.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 6.0), (1, 5.0), (2, 5.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        // Lowest priority (pod2, rank 2) deleted first; that frees 5, still
        // short → pod1 also deleted; pod0 placed; then pod1/pod2 retried:
        // pod1 has 4 left → unplaced... wait, pod1 retried at its own rank
        // with 4 CPU free and 5 demanded → unplaced, pod2 same.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert!(out.unplaced.contains(&pod(1)) || out.deletions.contains(&pod(1)));
        assert!(state.node_of(pod(2)).is_none());
        state.check_invariants().unwrap();
    }

    #[test]
    fn victim_started_this_pack_is_not_reported_deleted() {
        // Plan: rank0 big pod arrives *after* rank1 was started? No — plan
        // order is rank order, so a started pod can only be victimized by an
        // *earlier*-ranked pod... which is impossible. But a *surviving*
        // pod placed before the pack can be victimized and then re-placed
        // later. Exercise the bookkeeping: a pod started by this pack is
        // never deleted, so starts/deletions stay disjoint.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(5), Resources::cpu(8.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 6.0), (5, 8.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert!(out.deletions.contains(&pod(5)));
        assert!(out.unplaced.contains(&pod(5)));
        let started: Vec<_> = out.starts.iter().map(|&(p, _)| p).collect();
        assert!(!started.contains(&pod(5)));
        state.check_invariants().unwrap();
    }

    #[test]
    fn strict_mode_aborts() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        let plan = plan_of(&[(0, 4.0), (1, 4.0), (2, 1.0)]);
        let cfg = PackingConfig {
            strict: true,
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert!(out.aborted);
        assert_eq!(out.unplaced, vec![pod(1)]);
        // pod2 never attempted.
        assert_eq!(state.node_of(pod(2)), None);
    }

    #[test]
    fn skip_mode_continues_past_unplaceable() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(5.0));
        let plan = plan_of(&[(0, 4.0), (1, 4.0), (2, 1.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert!(!out.aborted);
        assert_eq!(out.unplaced, vec![pod(1)]);
        assert_eq!(state.node_of(pod(2)), Some(NodeId::new(0)));
    }

    #[test]
    fn failed_nodes_not_used() {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state.fail_node(NodeId::new(0));
        let plan = plan_of(&[(0, 6.0), (1, 6.0)]);
        let out = pack(&mut state, &plan, &PackingConfig::default());
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        assert_eq!(out.unplaced, vec![pod(1)]);
    }

    #[test]
    fn first_fit_and_worst_fit_strategies() {
        let mk = || {
            let mut s = ClusterState::new([Resources::cpu(10.0), Resources::cpu(6.0)]);
            s.assign(pod(9), Resources::cpu(5.0), NodeId::new(0))
                .unwrap();
            s
        };
        let plan = vec![
            PlannedPod::new(pod(9), Resources::cpu(5.0)),
            PlannedPod::new(pod(0), Resources::cpu(3.0)),
        ];
        // Best fit: remaining are node0=5, node1=6 → node0 (5 is tightest ≥3).
        let mut s1 = mk();
        pack(&mut s1, &plan, &PackingConfig::default());
        assert_eq!(s1.node_of(pod(0)), Some(NodeId::new(0)));
        // Worst fit: node1 (6 remaining).
        let mut s2 = mk();
        pack(
            &mut s2,
            &plan,
            &PackingConfig {
                fit: FitStrategy::WorstFit,
                ..PackingConfig::default()
            },
        );
        assert_eq!(s2.node_of(pod(0)), Some(NodeId::new(1)));
        // First fit: node0 (lowest id that fits).
        let mut s3 = mk();
        pack(
            &mut s3,
            &plan,
            &PackingConfig {
                fit: FitStrategy::FirstFit,
                ..PackingConfig::default()
            },
        );
        assert_eq!(s3.node_of(pod(0)), Some(NodeId::new(0)));
    }

    #[test]
    fn pod_limit_forces_spreading() {
        // Two roomy nodes, limit 2 pods each: four 1-CPU pods must split
        // 2+2 even though best-fit would stack all four on one node.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert!(out.unplaced.is_empty());
        assert_eq!(state.pods_on(NodeId::new(0)).len(), 2);
        assert_eq!(state.pods_on(NodeId::new(1)).len(), 2);
        state.check_invariants().unwrap();
    }

    #[test]
    fn pod_limit_binds_before_capacity() {
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // Capacity allows all three; the count cap strands the lowest rank.
        assert_eq!(out.unplaced, vec![pod(2)]);
        assert_eq!(state.pod_count(), 2);
    }

    #[test]
    fn pod_limit_deletion_fallback_frees_slots() {
        // Node full by count with two low-rank pods; a higher-ranked pod
        // arrives: one victim is deleted to free a slot.
        let mut state = ClusterState::homogeneous(1, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(1.0), NodeId::new(0))
            .unwrap();
        let plan = plan_of(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(2),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(1)), Some(NodeId::new(0)));
        assert!(out.deletions.contains(&pod(2)) || out.unplaced.contains(&pod(2)));
        assert_eq!(state.pod_count(), 2);
        state.check_invariants().unwrap();
    }

    #[test]
    fn pod_limit_respected_by_migration_destinations() {
        // Node0 holds two small pods (limit 3); node1 is full by count.
        // An 8-CPU pod needs node0 freed; the small pods cannot move to
        // node1 (count cap) so repack fails and deletion kicks in.
        let mut state = ClusterState::homogeneous(2, Resources::cpu(10.0));
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        state
            .assign(pod(4), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        state
            .assign(pod(5), Resources::cpu(1.0), NodeId::new(1))
            .unwrap();
        let plan = plan_of(&[(1, 3.0), (2, 3.0), (3, 1.0), (4, 1.0), (5, 1.0), (0, 8.0)]);
        let cfg = PackingConfig {
            max_pods_per_node: Some(3),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        // No migration may land on node1 (already at 3 pods).
        for &(_, _, to) in &out.migrations {
            assert_ne!(to, NodeId::new(1));
        }
        for n in [NodeId::new(0), NodeId::new(1)] {
            assert!(state.pods_on(n).len() <= 3);
        }
        state.check_invariants().unwrap();
    }

    /// Snapshot of everything `repack_to_fit` may touch: pod placements
    /// and the `SortedNodes` keys.
    fn snapshot(state: &ClusterState, sorted: &SortedNodes) -> (Vec<(PodKey, NodeId)>, Vec<f64>) {
        let mut pods: Vec<(PodKey, NodeId)> = state.assignments().map(|(p, n, _)| (p, n)).collect();
        pods.sort_unstable();
        let keys = state
            .node_ids()
            .iter()
            .map(|&n| sorted.key(n).unwrap_or(f64::NEG_INFINITY))
            .collect();
        (pods, keys)
    }

    #[test]
    fn repack_rollback_restores_exact_pre_attempt_state() {
        // Node0 full (3×2 CPU of 6); node1 5/6 free with one 1-CPU pod.
        // An incoming 6-CPU demand: candidate node1 cannot be freed (its
        // 1-CPU pod has no destination — node0 is full), candidate node0
        // makes one tentative move (budget 1), still cannot host 6, and
        // must roll back. After the failed attempt every placement and
        // every SortedNodes key must be byte-identical to the snapshot.
        let mut state = ClusterState::new([Resources::cpu(6.0), Resources::cpu(6.0)]);
        for (s, node) in [(1, 0), (2, 0), (3, 0), (4, 1)] {
            let cpu = if s == 4 { 1.0 } else { 2.0 };
            state
                .assign(pod(s), Resources::cpu(cpu), NodeId::new(node as u32))
                .unwrap();
        }
        let mut sorted = healthy_sorted(&state);
        let before = snapshot(&state, &sorted);

        let cfg = PackingConfig {
            max_migration_moves: 1,
            ..PackingConfig::default()
        };
        let mut out = PackOutcome::default();
        let target = repack_to_fit(&mut state, &mut sorted, Resources::cpu(6.0), &cfg, &mut out);

        assert_eq!(target, None, "no candidate can be freed");
        assert_eq!(snapshot(&state, &sorted), before, "rollback incomplete");
        assert!(out.migrations.is_empty(), "tentative moves leaked");
        assert!(out.deletions.is_empty() && out.starts.is_empty());
        state.check_invariants().unwrap();
    }

    #[test]
    fn repack_success_after_failed_candidate_keeps_bookkeeping_consistent() {
        // Demand 10 with a 1-move budget. Candidate node0 (rem 6, two
        // 3-CPU pods) moves one pod to node2, is still short (rem 9),
        // and rolls back. Candidate node1 (rem 5, one 6-CPU pod) then
        // succeeds by moving its pod into node0's restored 6 CPUs —
        // which only fits if the rollback really restored them. The
        // outcome must record the successful candidate's move only.
        let mut state = ClusterState::new([
            Resources::cpu(12.0),
            Resources::cpu(11.0),
            Resources::cpu(3.0),
        ]);
        state
            .assign(pod(1), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(2), Resources::cpu(3.0), NodeId::new(0))
            .unwrap();
        state
            .assign(pod(3), Resources::cpu(6.0), NodeId::new(1))
            .unwrap();
        let mut sorted = healthy_sorted(&state);
        let cfg = PackingConfig {
            max_migration_moves: 1,
            ..PackingConfig::default()
        };
        let mut out = PackOutcome::default();
        let target = repack_to_fit(
            &mut state,
            &mut sorted,
            Resources::cpu(10.0),
            &cfg,
            &mut out,
        );
        assert_eq!(target, Some(NodeId::new(1)));
        // Only the successful candidate's move is recorded; node0's
        // tentative move was rolled back and left no trace.
        assert_eq!(
            out.migrations,
            vec![(pod(3), NodeId::new(1), NodeId::new(0))]
        );
        assert!(Resources::cpu(10.0).fits_in(&state.remaining(NodeId::new(1))));
        assert_eq!(state.node_of(pod(1)), Some(NodeId::new(0)));
        assert_eq!(state.node_of(pod(2)), Some(NodeId::new(0)));
        // SortedNodes keys agree with the mutated state on every node.
        for n in state.node_ids() {
            assert_eq!(sorted.key(n), Some(state.remaining(n).scalar()), "{n}");
        }
        state.check_invariants().unwrap();
    }

    #[test]
    fn two_dimensional_fit_respected() {
        let mut state = ClusterState::new([
            Resources::new(10.0, 1.0), // plenty of CPU, tiny memory
            Resources::new(4.0, 16.0),
        ]);
        let plan = vec![PlannedPod::new(pod(0), Resources::new(3.0, 8.0))];
        pack(&mut state, &plan, &PackingConfig::default());
        // CPU-sorted best-fit would pick node1 anyway, but ensure the memory
        // dimension rejects node0 even when CPU fits.
        assert_eq!(state.node_of(pod(0)), Some(NodeId::new(1)));
        let plan2 = vec![
            PlannedPod::new(pod(0), Resources::new(3.0, 8.0)),
            PlannedPod::new(pod(1), Resources::new(1.0, 8.0)),
            PlannedPod::new(pod(2), Resources::new(5.0, 0.5)),
        ];
        let mut s2 = ClusterState::new([Resources::new(10.0, 1.0), Resources::new(4.0, 16.0)]);
        let out = pack(&mut s2, &plan2, &PackingConfig::default());
        assert!(out.unplaced.is_empty());
        assert_eq!(s2.node_of(pod(2)), Some(NodeId::new(0)));
        s2.check_invariants().unwrap();
    }
}
