//! Allocation regression gate for the sampling half of a batch: once
//! warm, `CompiledExperiment::sample_batches` runs the frame program
//! out of pooled buffers, so everything it does before handing the
//! batch to the decoder — at 16 shots as at 4096 — allocates nothing
//! beyond the fan-out's own fixed bookkeeping. (Decoding has its own
//! gate in `crates/matching/tests/alloc_regression.rs`, whose counting
//! allocator this test shares.)

#[path = "../../matching/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_allocs, uncounted};
use dqec_chiplet::runner::{CompiledExperiment, DecoderChoice, ExperimentSpec};
use dqec_core::adapt::AdaptedPatch;
use dqec_core::layout::PatchLayout;
use dqec_core::{Coord, DefectSet};
use dqec_matching::{DecodeStats, Decoder};
use dqec_sim::frame::ShotBatch;
use dqec_sim::noise::NoiseModel;
use std::sync::Arc;

/// A real decoder whose allocations are not counted, so a count around
/// `sample_batches` is the count of the sampling half alone.
struct Uncounted(Box<dyn Decoder>);

impl Decoder for Uncounted {
    fn num_observables(&self) -> usize {
        self.0.num_observables()
    }

    fn decode_events(&self, events: &[u32]) -> u64 {
        self.0.decode_events(events)
    }

    fn decode_batch(&self, batch: &ShotBatch) -> DecodeStats {
        uncounted(|| self.0.decode_batch(batch))
    }

    fn reweight(&mut self, noise: &NoiseModel) -> bool {
        self.0.reweight(noise)
    }
}

#[test]
fn warm_sample_batches_allocates_nothing_in_the_sampler() {
    let mut defects = DefectSet::new();
    defects.add_data(Coord::new(5, 5));
    let patch = AdaptedPatch::new(PatchLayout::memory(5), &defects);
    let inner = DecoderChoice::Uf.builder();
    let spec = ExperimentSpec::memory(patch)
        .p(1e-3)
        .decoder(Arc::new(move |c, n| Box::new(Uncounted(inner(c, n)))));
    let mut exp = CompiledExperiment::new(&spec).expect("the patch compiles");
    exp.select_point(0);

    // One worker: the batch runs on this (the counting) thread.
    rayon::with_worker_cap(1, || {
        let run = |shots: usize| exp.sample_batches(0..1, shots, shots);
        let warm = run(4096);
        // What a call costs when there is nothing to sample: the
        // fan-out's bookkeeping and the merged tally, plus the empty
        // batch's own tally (a sampled batch's tally is the decoder's,
        // and so not counted).
        let (empty, _) = count_allocs(|| run(0));
        for shots in [16usize, 4096, 16] {
            let (allocs, stats) = count_allocs(|| run(shots));
            assert_eq!(stats.shots, shots);
            assert_eq!(
                allocs + 1,
                empty,
                "sampling {shots} shots allocated — the frame buffers must come from the pool"
            );
        }
        assert_eq!(run(4096).failures, warm.failures);
    });
}
