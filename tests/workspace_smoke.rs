//! Workspace wiring smoke tests: the facade re-exports resolve, the
//! quick-start flow from the crate docs runs, and the built
//! `examples/quickstart` binary executes cleanly.

use dqec::core::{AdaptedPatch, Coord, DefectSet, PatchIndicators, PatchLayout};

/// The facade quick-start (src/lib.rs doc example) and the paper's
/// Fig. 1b claim: a 7x7 patch with one broken interior syndrome qubit
/// adapts to a valid code of distance exactly 5.
#[test]
fn quickstart_fig1b_distance_is_five() {
    let mut defects = DefectSet::new();
    defects.add_synd(Coord::new(6, 6));

    let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
    assert!(patch.is_valid());

    let ind = PatchIndicators::of(&patch);
    assert_eq!(
        ind.distance(),
        5,
        "paper Fig. 1b: dx={} dz={}",
        ind.dist_x,
        ind.dist_z
    );
}

/// Every facade module re-export is wired to the right workspace crate.
#[test]
fn facade_reexports_resolve() {
    // One load-bearing type per re-exported crate.
    let _: fn(usize) -> dqec::sim::tableau::Tableau = dqec::sim::tableau::Tableau::new;
    let _: fn(&dqec::sim::Circuit) -> dqec::matching::MwpmDecoder =
        dqec::matching::MwpmDecoder::new;
    let _: fn(u32) -> dqec::core::PatchLayout = dqec::core::PatchLayout::memory;
    let _ = dqec::chiplet::defect_model::DefectModel::LinkAndQubit;
    let _ = dqec::estimator::ApplicationSpec::shor_2048();
}

/// Runs the compiled `examples/quickstart` binary (cargo builds example
/// targets before running integration tests) and checks it reports the
/// adapted patch.
#[test]
fn quickstart_example_runs() {
    // target/<profile>/deps/workspace_smoke-<hash> -> target/<profile>/examples/quickstart
    let exe = std::env::current_exe().expect("test binary path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target profile dir");
    let example = profile_dir.join("examples").join("quickstart");
    assert!(
        example.exists(),
        "{} not built — a bare `cargo test` builds examples; with target \
         filters run `cargo build --examples` first",
        example.display()
    );
    let out = std::process::Command::new(&example)
        .output()
        .expect("launch quickstart example");
    assert!(
        out.status.success(),
        "quickstart failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("patch valid: true"),
        "unexpected output:\n{stdout}"
    );
    assert!(
        stdout.contains("code distance:"),
        "unexpected output:\n{stdout}"
    );
}
