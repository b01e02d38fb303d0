//! Property-based tests on the core data structures and invariants.

use dqec::core::graphs::{expected_void_components, void_components, CheckGraph};
use dqec::core::{AdaptedPatch, Coord, DefectSet, PatchIndicators, PatchLayout};
use dqec::sim::circuit::CheckBasis;
use proptest::prelude::*;

/// Strategy: a defect set over an l x l memory layout.
fn defect_set(l: u32, max_defects: usize) -> impl Strategy<Value = DefectSet> {
    let data: Vec<Coord> = PatchLayout::memory(l).data_sites().collect();
    let faces: Vec<Coord> = PatchLayout::memory(l).face_sites().collect();
    let links = PatchLayout::memory(l).links();
    let d = proptest::sample::subsequence(data, 0..=max_defects);
    let s = proptest::sample::subsequence(faces, 0..=max_defects);
    let k = proptest::sample::subsequence(links, 0..=max_defects);
    (d, s, k).prop_map(|(d, s, k)| {
        let mut set = DefectSet::new();
        for c in d {
            set.add_data(c);
        }
        for c in s {
            set.add_synd(c);
        }
        for (dq, f) in k {
            set.add_link(dq, f);
        }
        set
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_patches_encode_exactly_one_logical(defects in defect_set(7, 3)) {
        let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
        if patch.is_valid() {
            patch.verify_code_consistency().unwrap();
        }
    }

    #[test]
    fn distance_never_exceeds_patch_size(defects in defect_set(9, 5)) {
        let patch = AdaptedPatch::new(PatchLayout::memory(9), &defects);
        let ind = PatchIndicators::of(&patch);
        prop_assert!(ind.distance() <= 9);
        if !defects.is_empty() && ind.valid {
            // Defects never help: distance stays at or below l.
            prop_assert!(ind.dist_x <= 9 && ind.dist_z <= 9);
        }
    }

    #[test]
    fn more_defects_never_increase_distance(defects in defect_set(7, 3)) {
        let l = 7;
        let base_patch = AdaptedPatch::new(PatchLayout::memory(l), &defects);
        let base = PatchIndicators::of(&base_patch);
        // Monotonicity is only guaranteed while both rough boundaries of
        // each lattice are genuine layout boundaries. Once adaptation
        // deforms a boundary into the interior (a void component with
        // `touches_boundary == false`), re-running the cascade with an
        // extra defect can cut the patch differently and legitimately
        // *increase* the shortest chain (the base short chain ran along
        // a peninsula the new cut removes).
        let genuine_boundaries = base_patch.is_valid()
            && [CheckBasis::Z, CheckBasis::X].iter().all(|&basis| {
                void_components(
                    base_patch.layout(),
                    basis,
                    &|c| base_patch.is_live_data(c),
                    &|c| base_patch.is_live_face(c),
                )
                .iter()
                .all(|comp| comp.touches_boundary)
            });
        // Add one more interior defect.
        let mut more = defects.clone();
        more.add_data(Coord::new(7, 7));
        let bigger = PatchIndicators::of(&AdaptedPatch::new(PatchLayout::memory(l), &more));
        prop_assert!(bigger.distance() <= l, "distance {} exceeds l", bigger.distance());
        prop_assert!(
            bigger.distance() <= base.distance().max(1) || !base.valid || !genuine_boundaries,
            "distance grew from {} to {} for defects {:?}",
            base.distance(), bigger.distance(), defects);
    }

    #[test]
    fn void_component_counts_match_expectation(defects in defect_set(7, 2)) {
        let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
        if patch.is_valid() {
            for basis in [CheckBasis::Z, CheckBasis::X] {
                let comps = void_components(
                    patch.layout(),
                    basis,
                    &|c| patch.is_live_data(c),
                    &|c| patch.is_live_face(c),
                );
                prop_assert_eq!(
                    comps.len(),
                    expected_void_components(patch.layout(), basis)
                );
            }
        }
    }

    #[test]
    fn check_graph_edges_cover_all_live_qubits(defects in defect_set(7, 3)) {
        let patch = AdaptedPatch::new(PatchLayout::memory(7), &defects);
        if patch.is_valid() {
            for basis in [CheckBasis::Z, CheckBasis::X] {
                let g = CheckGraph::build(&patch, basis);
                prop_assert!(g.is_ok(), "graph build failed: {:?}", g.err());
            }
        }
    }

    #[test]
    fn orientation_swap_is_involutive_on_interior(x in 1i32..7, y in 1i32..7) {
        let l = 7;
        let c = Coord::new(2 * x + 1, 2 * y - 1);
        if PatchLayout::memory(l).contains_data(c) {
            let mut d = DefectSet::new();
            d.add_data(c);
            let back = d.swapped_orientation(l).swapped_orientation(l);
            // Interior data defects survive the round trip.
            prop_assert!(back.data.len() <= 1);
        }
    }

    #[test]
    fn faulty_counts_are_monotone(defects in defect_set(9, 4)) {
        let patch = AdaptedPatch::new(PatchLayout::memory(9), &defects);
        let ind = PatchIndicators::of(&patch);
        // Everything that is fabrication-faulty ends up disabled (data)
        // or the count at least covers the faulty data qubits.
        prop_assert!(ind.num_disabled_data >= patch.defects().data.len());
        prop_assert!(ind.num_disabled_faces >= patch.defects().synd.len());
    }
}

#[test]
// Indexing is the clear way to fill and close a symmetric matrix.
#[allow(clippy::needless_range_loop)]
fn blossom_matches_brute_force_on_many_random_graphs() {
    // Heavier cross-check than the in-crate tests: 300 random complete
    // boundary-less graphs, every node an event, against brute force over
    // shortest-path distances (paths may run through other events).
    use dqec::matching::{Blossom, DecodeScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute(d: &[Vec<i64>]) -> i64 {
        fn rec(used: &mut [bool], d: &[Vec<i64>]) -> i64 {
            let Some(i) = used.iter().position(|&u| !u) else {
                return 0;
            };
            used[i] = true;
            let mut best = i64::MAX;
            for j in i + 1..used.len() {
                if !used[j] {
                    used[j] = true;
                    best = best.min(d[i][j] + rec(used, d));
                    used[j] = false;
                }
            }
            used[i] = false;
            best
        }
        rec(&mut vec![false; d.len()], d)
    }

    let mut rng = StdRng::seed_from_u64(4242);
    let mut scratch = DecodeScratch::new();
    for trial in 0..300 {
        let n = 2 * rng.gen_range(1..=4usize);
        let mut edges = Vec::new();
        let mut d = vec![vec![0i64; n]; n];
        for a in 0..n {
            for b in a + 1..n {
                // Eighths of a unit in (0, 8], doubled onto the even grid.
                let w = 2 * rng.gen_range(1..=64u32);
                edges.push((a as u32, b as u32, w, 0));
                d[a][b] = i64::from(w);
                d[b][a] = i64::from(w);
            }
        }
        for k in 0..n {
            for a in 0..n {
                for b in 0..n {
                    d[a][b] = d[a][b].min(d[a][k] + d[k][b]);
                }
            }
        }
        let g = Blossom::from_edges(n, &edges);
        let nodes: Vec<u32> = (0..n as u32).collect();
        let (_, weight, unmatched) = g.decode_node_ids(&nodes, &mut scratch);
        let want = brute(&d);
        assert_eq!((weight, unmatched), (want, 0), "trial {trial}: {edges:?}");
        assert_eq!(g.certify(&mut scratch), Ok(want), "trial {trial}");
    }
}
