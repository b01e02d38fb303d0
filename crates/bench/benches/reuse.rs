//! Criterion benchmark: sweeping a d = 9 memory LER curve with
//! decode-graph *reuse* (build the decoder once, reweight per point —
//! what `Runner` does) versus a per-point *rebuild*. Decoding work is
//! excluded from both sides so the comparison isolates construction
//! cost.

use criterion::{criterion_group, criterion_main, Criterion};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::{memory_z, DefectSet};
use dqec_matching::{Decoder, MwpmDecoder};
use dqec_sim::noise::NoiseModel;

fn bench_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse");
    group.sample_size(10);
    let patch = AdaptedPatch::new(PatchLayout::memory(9), &DefectSet::new());
    let exp = memory_z(&patch, 9).unwrap();
    let ps = [5e-4, 7.5e-4, 1.1e-3, 1.5e-3, 2e-3];

    group.bench_function("per_point_rebuild_d9_curve", |b| {
        b.iter(|| {
            for &p in &ps {
                let noisy = NoiseModel::new(p).apply(&exp.circuit);
                let decoder = MwpmDecoder::new(&noisy);
                std::hint::black_box(&decoder);
            }
        })
    });

    group.bench_function("graph_reuse_d9_curve", |b| {
        b.iter(|| {
            let template = ps.iter().fold(0.0f64, |a, &b| a.max(b));
            let mut decoder = MwpmDecoder::from_clean(&exp.circuit, &NoiseModel::new(template));
            for &p in &ps {
                assert!(decoder.reweight(&NoiseModel::new(p)));
                std::hint::black_box(&decoder);
            }
        })
    });
    group.finish();
}

criterion_group!(reuse, bench_reuse);
criterion_main!(reuse);
