//! Criterion benchmarks of the computational kernels: adaptation,
//! distance analysis, frame sampling, DEM extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use dqec_chiplet::defect_model::DefectModel;
use dqec_core::adapt::AdaptedPatch;
use dqec_core::graphs::CheckGraph;
use dqec_core::indicators::PatchIndicators;
use dqec_core::layout::PatchLayout;
use dqec_sim::circuit::CheckBasis;
use dqec_sim::dem::ParametricDem;
use dqec_sim::frame::FrameSampler;
use dqec_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_adaptation(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation");
    for l in [11u32, 17, 33] {
        let layout = PatchLayout::memory(l);
        let mut rng = StdRng::seed_from_u64(1);
        let defects = DefectModel::LinkAndQubit.sample(&layout, 0.005, &mut rng);
        group.bench_function(format!("adapt_l{l}"), |b| {
            b.iter(|| AdaptedPatch::new(layout.clone(), &defects))
        });
    }
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for l in [11u32, 33] {
        let layout = PatchLayout::memory(l);
        let mut rng = StdRng::seed_from_u64(2);
        let defects = DefectModel::LinkAndQubit.sample(&layout, 0.005, &mut rng);
        let patch = AdaptedPatch::new(layout, &defects);
        group.bench_function(format!("check_graph_l{l}"), |b| {
            b.iter(|| {
                CheckGraph::build(&patch, CheckBasis::Z)
                    .unwrap()
                    .distance_and_count()
            })
        });
        group.bench_function(format!("indicators_l{l}"), |b| {
            b.iter(|| PatchIndicators::of(&patch))
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let patch = AdaptedPatch::new(PatchLayout::memory(7), &dqec_core::DefectSet::new());
    let exp = dqec_core::memory_z(&patch, 7).unwrap();
    let (noisy, params) = NoiseModel::new(1e-3).apply_with_params(&exp.circuit);
    let mut group = c.benchmark_group("sampling");
    group.bench_function("frame_4096_shots_d7", |b| {
        let sampler = FrameSampler::new(&noisy);
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| sampler.sample(4096, &mut rng))
    });
    group.bench_function("dem_extraction_d7", |b| {
        b.iter(|| ParametricDem::from_noisy(&noisy, &params))
    });
    group.finish();
}

criterion_group!(kernels, bench_adaptation, bench_distance, bench_sampling);
criterion_main!(kernels);
