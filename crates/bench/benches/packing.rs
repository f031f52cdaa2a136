//! Criterion bench: the Algorithm-2 packing heuristic under the three fit
//! strategies (ablation for the scheduler's packing efficiency, Fig. 8c).

use criterion::{criterion_group, BenchmarkId, Criterion};
use phoenix_cluster::packing::{pack, FitStrategy, PackingConfig, PlannedPod};
use phoenix_cluster::{ClusterState, PodKey, Resources};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn plan_of(pods: usize, seed: u64) -> Vec<PlannedPod> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..pods)
        .map(|i| {
            PlannedPod::new(
                PodKey::new(0, i as u32, 0),
                Resources::cpu(rng.gen_range(0.5..8.0)),
            )
        })
        .collect()
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    group.sample_size(20);
    let plan = plan_of(2000, 3);
    for fit in [
        FitStrategy::BestFit,
        FitStrategy::FirstFit,
        FitStrategy::WorstFit,
    ] {
        group.bench_with_input(
            BenchmarkId::new("fit", format!("{fit:?}")),
            &fit,
            |b, &fit| {
                b.iter(|| {
                    let mut state = ClusterState::homogeneous(200, Resources::cpu(64.0));
                    pack(
                        &mut state,
                        &plan,
                        &PackingConfig {
                            fit,
                            ..PackingConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_packing);
// Expanded `criterion_main!` so the harness honours the standard
// `--threads N` flag (and `PHOENIX_THREADS`) before any group runs.
fn main() {
    phoenix_bench::init_threads();
    benches();
}
