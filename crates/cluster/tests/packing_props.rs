//! Property tests: the packing heuristic never overcommits a node, never
//! uses failed nodes, respects plan membership, and places exactly what a
//! full-scan reference places.

use phoenix_cluster::default_sched::schedule_pending;
use phoenix_cluster::packing::{pack, FitStrategy, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<bool>, u8)> {
    (
        proptest::collection::vec(4.0f64..16.0, 1..12), // node capacities
        proptest::collection::vec(0.5f64..6.0, 0..40),  // pod demands
        proptest::collection::vec(any::<bool>(), 1..12), // failure mask
        0u8..3,                                         // fit strategy
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packing_invariants_hold((caps, demands, fail_mask, fit) in arb_scenario()) {
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        // Fail some nodes up front (never all of them matters not).
        for (i, &dead) in fail_mask.iter().enumerate() {
            if dead && i < caps.len() {
                state.fail_node(NodeId::new(i as u32));
            }
        }
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);

        // 1. Bookkeeping is consistent.
        state.check_invariants().unwrap();
        // 2. No pod landed on a failed node.
        for (_, node, _) in state.assignments() {
            prop_assert!(state.is_healthy(node));
        }
        // 3. Placed + unplaced covers exactly the plan.
        let placed = state.pod_count();
        prop_assert_eq!(placed + out.unplaced.len(), plan.len());
        // 4. Rank dominance: if a pod is unplaced, no *placed* pod with a
        //    strictly lower priority (higher rank index) could have been
        //    sacrificed to fit it — i.e. every unplaced pod's demand must
        //    exceed what deleting all lower-ranked pods could free on some
        //    node. We check the weaker, exact invariant: every placed pod's
        //    rank is <= max plan rank (trivially true) and the starts list
        //    only references planned pods.
        for &(p, _) in &out.starts {
            prop_assert!(plan.iter().any(|pp| pp.key == p));
        }
        // 5. A deleted pod is really gone (never also re-placed — a victim
        //    re-placed at its own rank collapses to a keep or migration),
        //    and no pod is ever reported both deleted and started: that
        //    pair would restart a running pod, which cooperative
        //    degradation forbids.
        for &p in &out.deletions {
            prop_assert!(state.node_of(p).is_none(), "deleted {p} still assigned");
            prop_assert!(
                !out.starts.iter().any(|&(sp, _)| sp == p),
                "{p} reported deleted and started"
            );
        }
    }

    #[test]
    fn pack_is_deterministic((caps, demands, fail_mask, fit) in arb_scenario()) {
        let run = || {
            let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
            for (i, &dead) in fail_mask.iter().enumerate() {
                if dead && i < caps.len() {
                    state.fail_node(NodeId::new(i as u32));
                }
            }
            let plan: Vec<PlannedPod> = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
                .collect();
            let cfg = PackingConfig {
                fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
                ..PackingConfig::default()
            };
            let out = pack(&mut state, &plan, &cfg);
            let mut assignment: Vec<(PodKey, NodeId)> =
                state.assignments().map(|(p, n, _)| (p, n)).collect();
            assignment.sort();
            (assignment, out.unplaced)
        };
        prop_assert_eq!(run(), run());
    }

    /// Regression pin for the first-fit scan rewrite: the old
    /// implementation materialized every fitting node from the
    /// capacity-sorted view and took `.min()` (an O(nodes) scan per
    /// placement); the new one walks ids ascending and stops at the
    /// first fit. Placements must be identical — on a fresh cluster with
    /// migration off, packing is a pure sequence of first-fit queries,
    /// so an oracle re-implementing the old "min id among all fitting
    /// nodes" rule must reproduce the exact assignment.
    #[test]
    fn first_fit_scan_matches_min_id_oracle(
        caps in proptest::collection::vec(2.0f64..16.0, 1..10),
        demands in proptest::collection::vec(0.5f64..6.0, 0..40),
        limit in proptest::option::of(1usize..6),
    ) {
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: FitStrategy::FirstFit,
            enable_migration: false,
            max_pods_per_node: limit,
            ..PackingConfig::default()
        };
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        let out = pack(&mut state, &plan, &cfg);

        let mut oracle = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        let mut oracle_unplaced: Vec<PodKey> = Vec::new();
        for p in &plan {
            let fit = oracle
                .node_ids()
                .into_iter()
                .filter(|&n| {
                    p.demand.fits_in(&oracle.remaining(n))
                        && limit.is_none_or(|cap| oracle.pods_on(n).len() < cap)
                })
                .min();
            match fit {
                Some(n) => oracle.assign(p.key, p.demand, n).unwrap(),
                None => oracle_unplaced.push(p.key),
            }
        }
        prop_assert_eq!(out.unplaced, oracle_unplaced);
        for p in &plan {
            prop_assert_eq!(state.node_of(p.key), oracle.node_of(p.key), "{}", p.key);
        }
    }

    #[test]
    fn higher_capacity_never_hurts_placement_count(
        demands in proptest::collection::vec(0.5f64..6.0, 1..30),
        base_cap in 8.0f64..12.0,
        nodes in 2usize..8,
    ) {
        let count_placed = |cap: f64| {
            let mut state = ClusterState::homogeneous(nodes, Resources::cpu(cap));
            let plan: Vec<PlannedPod> = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
                .collect();
            pack(&mut state, &plan, &PackingConfig::default());
            state.pod_count()
        };
        // Doubling every node's capacity can only place at least as many pods.
        prop_assert!(count_placed(base_cap * 2.0) >= count_placed(base_cap));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With a per-node pod-count cap configured, no node ever exceeds it —
    /// across fit strategies, migrations, and the deletion fallback.
    #[test]
    fn pod_limit_never_exceeded(
        (caps, demands, fail_mask, fit) in arb_scenario(),
        limit in 1usize..6,
    ) {
        let mut state = ClusterState::new(caps.iter().map(|&c| Resources::cpu(c)));
        for (i, &down) in fail_mask.iter().take(caps.len()).enumerate() {
            if down {
                state.fail_node(NodeId::new(i as u32));
            }
        }
        let plan: Vec<PlannedPod> = demands
            .iter()
            .enumerate()
            .map(|(i, &d)| PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::cpu(d)))
            .collect();
        let cfg = PackingConfig {
            fit: match fit { 0 => FitStrategy::BestFit, 1 => FitStrategy::FirstFit, _ => FitStrategy::WorstFit },
            max_pods_per_node: Some(limit),
            ..PackingConfig::default()
        };
        let out = pack(&mut state, &plan, &cfg);
        for n in state.node_ids() {
            prop_assert!(
                state.pods_on(n).len() <= limit,
                "{n} holds {} pods over the {limit} cap",
                state.pods_on(n).len()
            );
        }
        // Placed + unplaced still accounts for the whole plan.
        prop_assert_eq!(state.pod_count() + out.unplaced.len(), plan.len());
        state.check_invariants().unwrap();
    }
}

/// A live-cluster packing input: mixed 2-D node capacities, failed
/// nodes, plan pods already running (so the keep and delete-lower-ranks
/// victim paths fire), running pods absent from the plan (diagonal-scaling
/// deletions), and random strategy / strictness / migration-budget /
/// pod-cap knobs.
#[derive(Debug, Clone)]
struct LiveScenario {
    caps: Vec<(f64, f64)>,
    fail_mask: Vec<bool>,
    /// Plan entries: `(cpu, mem, pre_existing)` — pre-existing pods are
    /// assigned (first-fit by node id) before the pack.
    plan: Vec<(f64, f64, bool)>,
    /// Running pods absent from the plan.
    extra: Vec<f64>,
    cfg: PackingConfig,
}

fn arb_live_scenario() -> impl Strategy<Value = LiveScenario> {
    (
        proptest::collection::vec((3.0f64..16.0, 2.0f64..20.0), 1..14),
        proptest::collection::vec(any::<bool>(), 1..14),
        proptest::collection::vec((0.5f64..7.0, 0.0f64..6.0, any::<bool>()), 0..50),
        proptest::collection::vec(0.5f64..4.0, 0..5),
        (0u8..3, any::<bool>(), any::<bool>(), 1usize..3, 1usize..4),
        proptest::option::of(1usize..6),
    )
        .prop_map(|(caps, fail_mask, plan, extra, knobs, pod_cap)| {
            let (fit, strict, enable_migration, moves, nodes_budget) = knobs;
            LiveScenario {
                caps,
                fail_mask,
                plan,
                extra,
                cfg: PackingConfig {
                    fit: match fit {
                        0 => FitStrategy::BestFit,
                        1 => FitStrategy::FirstFit,
                        _ => FitStrategy::WorstFit,
                    },
                    strict,
                    enable_migration,
                    max_migration_moves: moves,
                    max_migration_nodes: nodes_budget,
                    max_pods_per_node: pod_cap,
                    ..PackingConfig::default()
                },
            }
        })
}

/// Builds the pre-pack cluster: failed nodes failed, then pre-existing
/// plan pods and extra (unplanned) pods assigned first-fit by node id
/// within capacity and the pod cap.
fn build_live_state(s: &LiveScenario) -> (ClusterState, Vec<PlannedPod>) {
    let mut state = ClusterState::new(s.caps.iter().map(|&(c, m)| Resources::new(c, m)));
    for (i, &down) in s.fail_mask.iter().take(s.caps.len()).enumerate() {
        if down {
            state.fail_node(NodeId::new(i as u32));
        }
    }
    let plan: Vec<PlannedPod> = s
        .plan
        .iter()
        .enumerate()
        .map(|(i, &(cpu, mem, _))| {
            PlannedPod::new(PodKey::new(0, i as u32, 0), Resources::new(cpu, mem))
        })
        .collect();
    let running = plan
        .iter()
        .zip(&s.plan)
        .filter(|&(_, &(_, _, pre))| pre)
        .map(|(p, _)| (p.key, p.demand))
        .chain(
            s.extra
                .iter()
                .enumerate()
                .map(|(j, &cpu)| (PodKey::new(0, 10_000 + j as u32, 0), Resources::cpu(cpu))),
        );
    for (pod, demand) in running {
        let home = state.node_ids().into_iter().find(|&n| {
            state.is_healthy(n)
                && demand.fits_in(&state.remaining(n))
                && s.cfg
                    .max_pods_per_node
                    .is_none_or(|cap| state.pods_on(n).len() < cap)
        });
        if let Some(n) = home {
            state.assign(pod, demand, n).unwrap();
        }
    }
    (state, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packing a live cluster keeps every Algorithm-2 invariant,
    /// recomputed from the packed state rather than trusted from the
    /// packer's own bookkeeping.
    #[test]
    fn live_cluster_packing_invariants_hold(s in arb_live_scenario()) {
        let (mut state, plan) = build_live_state(&s);
        let out = pack(&mut state, &plan, &s.cfg);
        state.check_invariants().unwrap();

        for n in state.node_ids() {
            let pods = state.pods_on(n);
            // Placements only on healthy nodes.
            prop_assert!(pods.is_empty() || state.is_healthy(n), "pods on failed {}", n);
            // Per-node, per-dimension capacity.
            let used = pods
                .iter()
                .map(|&p| state.demand_of(p).expect("pod on node has demand"))
                .fold(Resources::ZERO, |acc, d| acc + d);
            let cap = state.effective_capacity(n);
            prop_assert!(used.cpu <= cap.cpu + 1e-6, "{} cpu {} > {}", n, used.cpu, cap.cpu);
            prop_assert!(used.mem <= cap.mem + 1e-6, "{} mem {} > {}", n, used.mem, cap.mem);
            // The pod cap is never exceeded.
            if let Some(cap) = s.cfg.max_pods_per_node {
                prop_assert!(pods.len() <= cap, "{} holds {} pods over the {} cap", n, pods.len(), cap);
            }
        }

        // No pod is both deleted and started.
        for &(p, _) in &out.starts {
            prop_assert!(!out.deletions.contains(&p), "{} deleted and started", p);
        }

        if out.aborted {
            // Strict mode stops at its first unplaced pod: nothing ranked
            // after it was started.
            prop_assert!(s.cfg.strict);
            prop_assert_eq!(out.unplaced.len(), 1);
            let stop = out.unplaced[0].service as usize;
            for &(p, _) in &out.starts {
                prop_assert!((p.service as usize) < stop, "{} started after the abort", p);
            }
        } else {
            // Every planned pod is placed or reported unplaced, once.
            prop_assert!(!s.cfg.strict || out.unplaced.is_empty());
            prop_assert_eq!(state.pod_count() + out.unplaced.len(), plan.len());
        }
    }
}

/// Full-scan reference implementations: the packer and the `Default`
/// scheduler with every capacity-ordered fit scan unbounded
/// (`iter_desc().find(fits)`, `iter_by_id().find(fits)`). The shipped
/// code stops those scans at the first node whose cpu key is short of
/// the demand; these copies pin that it places exactly the same pods.
mod full_scan {
    use std::collections::{BTreeSet, HashMap};

    use phoenix_cluster::default_sched::DefaultOutcome;
    use phoenix_cluster::packing::{FitStrategy, PackOutcome, PackingConfig, PlannedPod};
    use phoenix_cluster::{ClusterState, NodeId, PodKey, Resources, SortedNodes};

    pub fn schedule_pending(state: &mut ClusterState, pending: &[PlannedPod]) -> DefaultOutcome {
        let mut out = DefaultOutcome::default();
        let mut todo: Vec<&PlannedPod> = pending.iter().collect();
        todo.sort_by_key(|p| p.key);
        let mut sorted = healthy_sorted(state);
        for planned in todo {
            if state.node_of(planned.key).is_some() {
                continue;
            }
            let target = sorted
                .iter_desc()
                .map(|(n, _)| n)
                .find(|&n| planned.demand.fits_in(&state.remaining(n)));
            match target {
                Some(n) => {
                    state.assign(planned.key, planned.demand, n).unwrap();
                    sorted.update(n, state.remaining(n).scalar());
                    out.placed.push((planned.key, n));
                }
                None => out.pending.push(planned.key),
            }
        }
        out
    }

    pub fn pack(state: &mut ClusterState, plan: &[PlannedPod], cfg: &PackingConfig) -> PackOutcome {
        let rank_of: HashMap<PodKey, usize> =
            plan.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
        let mut out = PackOutcome::default();
        let to_drop: Vec<PodKey> = state
            .assignments()
            .filter(|(p, _, _)| !rank_of.contains_key(p))
            .map(|(p, _, _)| p)
            .collect();
        for p in to_drop {
            state.remove(p).unwrap();
            out.deletions.push(p);
        }
        let mut sorted = healthy_sorted(state);
        let mut active: Option<BTreeSet<(usize, PodKey)>> = None;
        let mut victim_origin: HashMap<PodKey, NodeId> = HashMap::new();
        for (rank, planned) in plan.iter().enumerate() {
            let mut in_place = None;
            if state.node_of(planned.key).is_some() {
                let booked = state.demand_of(planned.key).unwrap();
                if !cfg.rebook_in_place || booked == planned.demand {
                    continue;
                }
                let (from, _) = state.remove(planned.key).unwrap();
                sorted.update(from, state.remaining(from).scalar());
                if let Some(active) = active.as_mut() {
                    active.remove(&(rank, planned.key));
                }
                victim_origin.insert(planned.key, from);
                out.deletions.push(planned.key);
                if fits_node(state, cfg, from, planned.demand) {
                    in_place = Some(from);
                }
            }
            let mut target = in_place.or_else(|| try_fit(state, &sorted, planned.demand, cfg));
            if target.is_none() && cfg.enable_migration {
                target = repack_to_fit(state, &mut sorted, planned.demand, cfg, &mut out);
            }
            while target.is_none() {
                let active = active.get_or_insert_with(|| {
                    state
                        .assignments()
                        .map(|(p, _, _)| (rank_of[&p], p))
                        .collect()
                });
                let Some(&(victim_rank, victim)) = active.iter().next_back() else {
                    break;
                };
                if victim_rank <= rank {
                    break;
                }
                active.remove(&(victim_rank, victim));
                let (node, _) = state.remove(victim).unwrap();
                sorted.update(node, state.remaining(node).scalar());
                if let Some(pos) = out.starts.iter().position(|&(p, _)| p == victim) {
                    out.starts.swap_remove(pos);
                } else {
                    out.deletions.push(victim);
                    victim_origin.insert(victim, node);
                }
                target = try_fit(state, &sorted, planned.demand, cfg);
            }
            match target {
                Some(node) => {
                    state.assign(planned.key, planned.demand, node).unwrap();
                    sorted.update(node, state.remaining(node).scalar());
                    if let Some(active) = active.as_mut() {
                        active.insert((rank, planned.key));
                    }
                    match victim_origin.remove(&planned.key) {
                        Some(from) => {
                            let pos = out
                                .deletions
                                .iter()
                                .position(|&p| p == planned.key)
                                .unwrap();
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
                        return out;
                    }
                }
            }
        }
        out
    }

    fn healthy_sorted(state: &ClusterState) -> SortedNodes {
        let mut sorted = SortedNodes::new();
        for n in state.healthy_nodes() {
            sorted.insert(n, state.remaining(n).scalar());
        }
        sorted
    }

    fn fits_node(
        state: &ClusterState,
        cfg: &PackingConfig,
        node: NodeId,
        demand: Resources,
    ) -> bool {
        demand.fits_in(&state.remaining(node))
            && cfg
                .max_pods_per_node
                .is_none_or(|cap| state.pods_on(node).len() < cap)
    }

    fn try_fit(
        state: &ClusterState,
        sorted: &SortedNodes,
        demand: Resources,
        cfg: &PackingConfig,
    ) -> Option<NodeId> {
        let fits = |&n: &NodeId| fits_node(state, cfg, n, demand);
        match cfg.fit {
            FitStrategy::BestFit => sorted.best_fit_candidates(demand.scalar()).find(fits),
            FitStrategy::FirstFit => sorted.iter_by_id().map(|(n, _)| n).find(fits),
            FitStrategy::WorstFit => sorted.iter_desc().map(|(n, _)| n).find(fits),
        }
    }

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
            let mut pods: Vec<(PodKey, Resources)> = state
                .pods_on(source)
                .iter()
                .map(|&p| (p, state.demand_of(p).unwrap()))
                .collect();
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
                let Some(dest) = sorted
                    .best_fit_candidates(d.scalar())
                    .find(|&n| n != source && fits_node(state, cfg, n, d))
                else {
                    continue;
                };
                state.migrate(p, dest).unwrap();
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
            for (p, src, dest) in moves.into_iter().rev() {
                state.migrate(p, src).unwrap();
                sorted.update(src, state.remaining(src).scalar());
                sorted.update(dest, state.remaining(dest).scalar());
            }
        }
        None
    }
}

/// Every pod's node, in pod order: the packed state as comparable bytes.
fn placement(state: &ClusterState) -> Vec<(PodKey, NodeId)> {
    let mut pods: Vec<(PodKey, NodeId)> = state.assignments().map(|(p, n, _)| (p, n)).collect();
    pods.sort_unstable();
    pods
}

/// A live scenario, optionally flattened to cpu only (the AdaptLab
/// model) and with every pre-existing plan pod's planned demand changed
/// and `rebook_in_place` on (so the serving-mode rebook path fires).
fn arb_equivalence_scenario() -> impl Strategy<Value = LiveScenario> {
    (arb_live_scenario(), any::<bool>(), any::<bool>()).prop_map(|(mut s, one_d, rebook)| {
        if one_d {
            for cap in &mut s.caps {
                cap.1 = 0.0;
            }
            for pod in &mut s.plan {
                pod.1 = 0.0;
            }
        }
        s.cfg.rebook_in_place = rebook;
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `pack` under every fit strategy, and `schedule_pending`, produce
    /// byte-identical outcomes and placements to the full-scan reference.
    #[test]
    fn bounded_fit_scans_match_full_scan_reference(
        s in arb_equivalence_scenario(),
        grow in 0.5f64..2.0,
    ) {
        let (live, mut plan) = build_live_state(&s);
        if s.cfg.rebook_in_place {
            for p in plan.iter_mut().filter(|p| live.node_of(p.key).is_some()) {
                p.demand = Resources::new(p.demand.cpu * grow, p.demand.mem);
            }
        }
        for fit in [FitStrategy::BestFit, FitStrategy::FirstFit, FitStrategy::WorstFit] {
            let cfg = PackingConfig { fit, ..s.cfg.clone() };
            let (mut got_state, mut want_state) = (live.clone(), live.clone());
            let got = pack(&mut got_state, &plan, &cfg);
            let want = full_scan::pack(&mut want_state, &plan, &cfg);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", fit);
            prop_assert_eq!(placement(&got_state), placement(&want_state), "{:?}", fit);
        }

        let (mut got_state, mut want_state) = (live.clone(), live);
        let got = schedule_pending(&mut got_state, &plan);
        let want = full_scan::schedule_pending(&mut want_state, &plan);
        prop_assert_eq!(got.placed, want.placed);
        prop_assert_eq!(got.pending, want.pending);
        prop_assert_eq!(placement(&got_state), placement(&want_state));
    }
}
