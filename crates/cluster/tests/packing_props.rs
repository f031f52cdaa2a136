//! Property tests: the packing heuristic never overcommits a node, never
//! uses failed nodes, and respects plan membership.

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
