//! Property-based tests: the incremental density evaluator is the crate's
//! load-bearing component, so it is checked against full recomputation under
//! arbitrary move sequences.

use anneal_core::Problem;
use anneal_linarr::{
    goto_arrangement, ArrMove, ArrangedState, Arrangement, LinearArrangementProblem, Neighborhood,
    Objective,
};
use anneal_netlist::{generator, Netlist};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An arbitrary netlist plus a seed for the starting arrangement.
fn arb_instance() -> impl Strategy<Value = (Netlist, u64)> {
    (2usize..16, 1usize..60, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, multi)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = if multi && n >= 4 {
            generator::random_multi_pin(n, m, 2, 4.min(n), &mut rng)
        } else {
            generator::random_two_pin(n, m, &mut rng)
        };
        (nl, seed)
    })
}

/// A two-pin or multi-pin (up to 10 pins) netlist over n ∈ {2, 3, 15, 40}
/// elements, plus a seed for the arrangement and moves.
fn arb_sized_instance() -> impl Strategy<Value = (Netlist, u64)> {
    (
        0usize..4,
        1usize..80,
        2usize..11,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(size, m, max_pins, seed, multi)| {
            let n = [2, 3, 15, 40][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = if multi && n >= 3 {
                generator::random_multi_pin(n, m, 2, max_pins.min(n), &mut rng)
            } else {
                generator::random_two_pin(n, m, &mut rng)
            };
            (nl, seed)
        })
}

/// Every neighborhood × objective combination over one netlist.
fn all_problems(nl: &Netlist) -> Vec<LinearArrangementProblem> {
    let mut out = Vec::new();
    for neighborhood in [
        Neighborhood::PairwiseInterchange,
        Neighborhood::SingleExchange,
    ] {
        for objective in [Objective::Density, Objective::TotalSpan] {
            out.push(
                LinearArrangementProblem::new(nl.clone())
                    .with_neighborhood(neighborhood)
                    .with_objective(objective),
            );
        }
    }
    out
}

/// The arrangement after `mv`, built with the arrangement's own moves.
fn moved(arr: &Arrangement, mv: ArrMove) -> Arrangement {
    let mut arr = arr.clone();
    match mv {
        ArrMove::Swap(p, q) => arr.swap_positions(p, q),
        ArrMove::Relocate { from, to } => arr.relocate(from, to),
    }
    arr
}

/// The first-improvement scan as it was before moves could be evaluated
/// without applying them: apply, read the cost and undo on a clone, in the
/// same (p, q) order. Reference for `improving_move`.
fn apply_undo_improving_move(
    p: &LinearArrangementProblem,
    state: &ArrangedState,
    probes: &mut u64,
) -> Option<ArrMove> {
    let here = p.cost(state);
    let mut scratch = state.clone();
    p.all_moves(state).into_iter().find(|mv| {
        *probes += 1;
        p.apply(&mut scratch, mv);
        let cost = p.cost(&scratch);
        p.undo(&mut scratch, mv);
        cost < here
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluate_matches_a_fresh_build((nl, seed) in arb_sized_instance(), n_moves in 1usize..40) {
        for p in all_problems(&nl) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = p.random_state(&mut rng);
            for step in 0..n_moves {
                let mv = p.propose(&s, &mut rng);
                let fresh = ArrangedState::new(&nl, moved(s.arrangement(), mv));
                let before = s.clone();
                let predicted = p.evaluate(&mut s, &mv);
                prop_assert_eq!(predicted.to_bits(), p.cost(&fresh).to_bits());
                // Alternate discarding and committing the same probe.
                if step % 2 == 0 {
                    p.discard(&mut s, &mv);
                    prop_assert_eq!(&s, &before);
                    p.evaluate(&mut s, &mv);
                }
                p.commit(&mut s, &mv);
                prop_assert_eq!(&s, &fresh);
                prop_assert_eq!(p.cost(&s).to_bits(), predicted.to_bits());
            }
        }
    }

    #[test]
    fn improving_move_matches_the_apply_undo_scan((nl, seed) in arb_sized_instance()) {
        for p in all_problems(&nl) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = p.random_state(&mut rng);
            // Follow the descent, comparing at every step, to a local optimum
            // or a cap that keeps n = 40 relocation scans short.
            for _ in 0..20 {
                let (mut fast, mut slow) = (0u64, 0u64);
                let found = p.improving_move(&s, &mut fast);
                prop_assert_eq!(found, apply_undo_improving_move(&p, &s, &mut slow));
                prop_assert_eq!(fast, slow);
                match found {
                    Some(mv) => p.apply(&mut s, &mv),
                    None => break,
                }
            }
        }
    }

    #[test]
    fn incremental_density_matches_rebuild_under_swaps(
        (nl, seed) in arb_instance(),
        moves in proptest::collection::vec((0usize..16, 0usize..16), 1..60),
    ) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        for (p, q) in moves {
            let mv = ArrMove::Swap(p % n, q % n);
            s.evaluate(&nl, mv);
            s.commit(mv);
            prop_assert!(s.verify(&nl));
        }
    }

    #[test]
    fn incremental_density_matches_rebuild_under_relocates(
        (nl, seed) in arb_instance(),
        moves in proptest::collection::vec((0usize..16, 0usize..16), 1..60),
    ) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        for (f, t) in moves {
            let mv = ArrMove::Relocate { from: f % n, to: t % n };
            s.evaluate(&nl, mv);
            s.commit(mv);
            prop_assert!(s.verify(&nl));
        }
    }

    #[test]
    fn undo_inverts_apply((nl, seed) in arb_instance(), n_moves in 1usize..40) {
        for neighborhood in [Neighborhood::PairwiseInterchange, Neighborhood::SingleExchange] {
            let p = LinearArrangementProblem::new(nl.clone()).with_neighborhood(neighborhood);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = p.random_state(&mut rng);
            let before = s.clone();
            let mut applied = Vec::new();
            for _ in 0..n_moves {
                let mv = p.propose(&s, &mut rng);
                p.apply(&mut s, &mv);
                applied.push(mv);
            }
            for mv in applied.iter().rev() {
                p.undo(&mut s, mv);
            }
            prop_assert_eq!(&s, &before);
        }
    }

    #[test]
    fn density_bounds((nl, seed) in arb_instance()) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        prop_assert!(s.density() as usize <= nl.n_nets());
        if nl.n_nets() > 0 && n >= 2 {
            prop_assert!(s.density() >= 1, "any net crosses at least one gap");
        }
        // Total span is at least one per net and at most (n-1) per net.
        prop_assert!(s.total_span() >= nl.n_nets() as u64);
        prop_assert!(s.total_span() <= (nl.n_nets() * (n - 1)) as u64);
    }

    #[test]
    fn goto_is_a_permutation((nl, _) in arb_instance()) {
        let arr = goto_arrangement(&nl);
        let mut order = arr.order().to_vec();
        order.sort_unstable();
        prop_assert_eq!(order, (0..nl.n_elements() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn local_optimum_has_no_improving_swap((nl, seed) in arb_instance()) {
        let p = LinearArrangementProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let mut probes = 0u64;
        // Descend fully (bounded by a generous iteration cap).
        for _ in 0..10_000 {
            match p.improving_move(&s, &mut probes) {
                Some(mv) => p.apply(&mut s, &mv),
                None => break,
            }
        }
        // At the fixed point, exhaustive search over fresh builds agrees
        // there is no improving pairwise interchange.
        let n = nl.n_elements();
        let here = p.cost(&s);
        for a in 0..n {
            for b in a + 1..n {
                let swapped = moved(s.arrangement(), ArrMove::Swap(a, b));
                prop_assert!(p.cost(&ArrangedState::new(&nl, swapped)) >= here);
            }
        }
    }
}
