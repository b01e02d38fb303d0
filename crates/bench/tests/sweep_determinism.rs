//! Property test for the engine-backed Fig. 6: the figure's memory-sink
//! records must be a pure function of the config — identical across 1,
//! 4 and 16 workers (the rayon pool may execute batches in any
//! order on any thread) and identical between an
//! interrupted-then-resumed run and an uninterrupted one (checkpointed
//! batches are independent seeded RNG streams; allocation decisions are
//! pure functions of the persisted tallies).

use dqec_bench::{figs, RunConfig};
use dqec_chiplet::record::MemorySink;
use proptest::prelude::*;

fn fig06(cfg: &RunConfig) -> Result<MemorySink, String> {
    let rep = figs::ALL
        .iter()
        .find(|r| r.name == "fig06_ler_curves")
        .expect("fig06 registered");
    let mut sink = MemorySink::default();
    (rep.run)(cfg, &mut sink).map_err(|e| e.to_string())?;
    Ok(sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn fig06_records_survive_workers_and_interruption(
        seed in 0u64..1000,
        shots in 3usize..6,
    ) {
        // Small batches so even quick-mode sweeps span several rounds
        // and the mid-sweep halt lands genuinely mid-plan.
        let shots = shots * 256;
        let cfg = RunConfig {
            shots,
            seed,
            sweep_batch: Some(256),
            sweep_round_batches: Some(2),
            ..RunConfig::default()
        };
        let base = fig06(&cfg).expect("fig06 runs");
        prop_assert!(
            base.records.len() > 10,
            "fig06 emitted suspiciously few records: {}",
            base.records.len()
        );

        // Identical records under 1, 4 and 16 workers.
        for workers in [1usize, 4, 16] {
            let sink = rayon::with_worker_cap(workers, || fig06(&cfg)).expect("fig06 runs");
            prop_assert_eq!(
                &sink.records,
                &base.records,
                "{} workers changed fig06 records",
                workers
            );
        }

        // Interrupted-then-resumed equals uninterrupted: halt the
        // engine after its first allocation round (state saved), then
        // resume from the state files.
        let ckpt = std::env::temp_dir().join(format!(
            "dqec_fig06_ckpt_{}_{seed}_{shots}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&ckpt);
        let halted = fig06(&RunConfig {
            checkpoint: Some(ckpt.clone()),
            halt_after_rounds: Some(1),
            ..cfg.clone()
        });
        let err = halted.expect_err("deliberate halt must surface");
        prop_assert!(err.contains("halted"), "unexpected failure: {}", err);

        let resumed = fig06(&RunConfig {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..cfg.clone()
        })
        .expect("resumed fig06 runs");
        prop_assert_eq!(
            &resumed.records,
            &base.records,
            "interrupted-then-resumed fig06 diverged from uninterrupted"
        );
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}
