//! Cross-crate integration: the framework drives every substrate problem
//! end-to-end through the public API of the root crate.

use annealbench::core::{
    estimate_delta_stats, local, Annealer, Budget, GFunction, Problem, Rng, RngExt, RunResult,
    StopReason, Strategy,
};
use annealbench::linarr::{Neighborhood, Objective};
use annealbench::netlist::generator::{random_multi_pin, random_two_pin};
use annealbench::partition::{kernighan_lin, PartitionState};
use annealbench::tsp::TspInstance;
use annealbench::{goto_arrangement, LinearArrangementProblem, PartitionProblem, TspProblem};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn every_problem_runs_under_both_strategies() {
    let mut rng = StdRng::seed_from_u64(1);
    let gola = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let nola = LinearArrangementProblem::new(random_multi_pin(15, 150, 2, 5, &mut rng));
    let part = PartitionProblem::new(random_two_pin(20, 60, &mut rng));
    let tsp = TspProblem::new(TspInstance::random_euclidean(30, &mut rng));

    macro_rules! check {
        ($p:expr, $name:literal) => {
            for strategy in [Strategy::Figure1, Strategy::Figure2] {
                let r = Annealer::new(&$p)
                    .strategy(strategy)
                    .budget(Budget::evaluations(5_000))
                    .seed(9)
                    .run(&mut GFunction::unit());
                assert!(
                    r.best_cost <= r.initial_cost,
                    concat!($name, " under {:?}"),
                    strategy
                );
                assert!(r.stats.evals > 0);
            }
        };
    }
    check!(gola, "GOLA");
    check!(nola, "NOLA");
    check!(part, "partition");
    check!(tsp, "TSP");
}

#[test]
fn all_twenty_one_g_functions_run_on_gola() {
    use annealbench::experiments::{full_roster, MethodCtx, TunedY};
    let mut rng = StdRng::seed_from_u64(2);
    let p = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let ctx = MethodCtx { n_nets: 150 };
    for spec in full_roster(TunedY::default()) {
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(3_000))
            .seed(4)
            .run(&mut spec.g(&ctx));
        assert!(
            r.best_cost <= r.initial_cost,
            "{} worsened the best state",
            spec.name()
        );
    }
}

#[test]
fn goto_feeds_monte_carlo_polish() {
    let mut rng = StdRng::seed_from_u64(3);
    let netlist = random_two_pin(15, 150, &mut rng);
    let start = goto_arrangement(&netlist);
    let p = LinearArrangementProblem::new(netlist);
    let state = p.state_from(start);
    let goto_density = state.density() as f64;
    let r = Annealer::new(&p)
        .budget(Budget::evaluations(30_000))
        .start_from(state)
        .seed(5)
        .run(&mut GFunction::unit());
    assert!(r.best_cost <= goto_density);
}

#[test]
fn kl_and_multistart_agree_with_sa_on_easy_instance() {
    // Two 6-cliques with one bridge: every method finds cut 1.
    let mut b = annealbench::netlist::Netlist::builder(12);
    for base in [0u32, 6] {
        for i in 0..6 {
            for j in i + 1..6 {
                b = b.net([base + i, base + j]);
            }
        }
    }
    let nl = b.net([5, 6]).build().unwrap();

    let kl = kernighan_lin(&nl, PartitionState::split_first_half(&nl));
    assert_eq!(kl.state.cut(), 1);

    let p = PartitionProblem::new(nl);
    let sa = Annealer::new(&p)
        .budget(Budget::evaluations(40_000))
        .seed(6)
        .run(&mut GFunction::six_temp_annealing(10.0));
    assert_eq!(sa.best_cost, 1.0);

    let mut rng = StdRng::seed_from_u64(7);
    let ms = local::multistart(&p, Budget::evaluations(40_000), &mut rng);
    assert_eq!(ms.best_cost, 1.0);
}

#[test]
fn alternative_objectives_and_neighborhoods_compose() {
    let mut rng = StdRng::seed_from_u64(8);
    let nl = random_two_pin(15, 150, &mut rng);
    for objective in [Objective::Density, Objective::TotalSpan] {
        for neighborhood in [
            Neighborhood::PairwiseInterchange,
            Neighborhood::SingleExchange,
        ] {
            let p = LinearArrangementProblem::new(nl.clone())
                .with_objective(objective)
                .with_neighborhood(neighborhood);
            let r = Annealer::new(&p)
                .budget(Budget::evaluations(4_000))
                .seed(10)
                .run(&mut GFunction::two_level());
            assert!(
                r.best_cost <= r.initial_cost,
                "{objective:?} × {neighborhood:?}"
            );
        }
    }
}

#[test]
fn rejectionless_strategy_works_on_every_substrate() {
    // [GREE84]'s method needs `all_moves`; every substrate provides it.
    let mut rng = StdRng::seed_from_u64(21);
    let gola = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let part = PartitionProblem::new(random_two_pin(16, 48, &mut rng));
    let tsp = TspProblem::new(TspInstance::random_euclidean(20, &mut rng));

    macro_rules! check {
        ($p:expr, $name:literal) => {{
            let r = Annealer::new(&$p)
                .strategy(Strategy::Rejectionless)
                .budget(Budget::evaluations(20_000))
                .seed(3)
                .run(&mut GFunction::six_temp_annealing(2.0));
            assert!(r.reduction() > 0.0, concat!($name, " made no progress"));
            assert_eq!(r.stats.rejected_uphill, 0, "rejectionless never rejects");
        }};
    }
    check!(gola, "GOLA");
    check!(part, "partition");
    check!(tsp, "TSP");
}

#[test]
fn white84_schedule_drives_annealing_well() {
    use annealbench::core::{estimate_delta_stats, white84_schedule};
    let mut rng = StdRng::seed_from_u64(22);
    let p = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let stats = estimate_delta_stats(&p, 2_000, &mut rng);
    assert!(stats.std_dev > 0.0);
    let schedule = white84_schedule(&stats, 6);
    let r = Annealer::new(&p)
        .budget(Budget::evaluations(30_000))
        .seed(5)
        .run(&mut GFunction::annealing(schedule));
    // A landscape-derived schedule should do real work without tuning.
    assert!(r.reduction() > 0.0);
}

#[test]
fn seeded_runs_reproduce_across_problem_types() {
    let mut rng = StdRng::seed_from_u64(11);
    let tsp = TspProblem::new(TspInstance::random_euclidean(25, &mut rng));
    let run = || {
        Annealer::new(&tsp)
            .budget(Budget::evaluations(8_000))
            .seed(123)
            .run(&mut GFunction::metropolis(0.1))
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.best_state.order(), b.best_state.order());
}

/// Linear arrangement with only the methods that predate
/// `evaluate`/`commit`/`discard` forwarded, so every strategy takes the
/// default apply → cost → undo path through it.
struct DefaultsOnly<'a>(&'a LinearArrangementProblem);

impl Problem for DefaultsOnly<'_> {
    type State = <LinearArrangementProblem as Problem>::State;
    type Move = <LinearArrangementProblem as Problem>::Move;

    fn random_state(&self, rng: &mut dyn Rng) -> Self::State {
        self.0.random_state(rng)
    }
    fn cost(&self, state: &Self::State) -> f64 {
        self.0.cost(state)
    }
    fn propose(&self, state: &Self::State, rng: &mut dyn Rng) -> Self::Move {
        self.0.propose(state, rng)
    }
    fn apply(&self, state: &mut Self::State, mv: &Self::Move) {
        self.0.apply(state, mv)
    }
    fn undo(&self, state: &mut Self::State, mv: &Self::Move) {
        self.0.undo(state, mv)
    }
    fn improving_move(&self, state: &Self::State, probes: &mut u64) -> Option<Self::Move> {
        self.0.improving_move(state, probes)
    }
    fn all_moves(&self, state: &Self::State) -> Vec<Self::Move> {
        self.0.all_moves(state)
    }
    fn all_moves_into(&self, state: &Self::State, buf: &mut Vec<Self::Move>) {
        self.0.all_moves_into(state, buf)
    }
}

fn assert_same_run<S: PartialEq + std::fmt::Debug>(a: &RunResult<S>, b: &RunResult<S>) {
    assert_eq!(a.best_state, b.best_state);
    assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
    assert_eq!(a.initial_cost.to_bits(), b.initial_cost.to_bits());
    assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn strategies_agree_with_and_without_move_evaluation() {
    let mut rng = StdRng::seed_from_u64(13);
    let gola = random_two_pin(15, 150, &mut rng);
    let nola = random_multi_pin(15, 150, 2, 10, &mut rng);
    let strategies = [
        Strategy::Figure1,
        Strategy::Figure2,
        Strategy::Rejectionless,
        Strategy::ReplicaExchange {
            exchange_interval: 8,
        },
    ];
    for nl in [gola, nola] {
        for neighborhood in [
            Neighborhood::PairwiseInterchange,
            Neighborhood::SingleExchange,
        ] {
            for objective in [Objective::Density, Objective::TotalSpan] {
                let fast = LinearArrangementProblem::new(nl.clone())
                    .with_neighborhood(neighborhood)
                    .with_objective(objective);
                let slow = DefaultsOnly(&fast);
                for strategy in strategies {
                    let g = GFunction::six_temp_annealing(2.0);
                    let a = Annealer::new(&fast)
                        .strategy(strategy)
                        .budget(Budget::evaluations(6_000))
                        .trajectory(500)
                        .seed(21)
                        .run(&mut g.clone());
                    let b = Annealer::new(&slow)
                        .strategy(strategy)
                        .budget(Budget::evaluations(6_000))
                        .trajectory(500)
                        .seed(21)
                        .run(&mut g.clone());
                    assert_same_run(&a, &b);
                    assert!(a.best_state.verify(fast.netlist()), "{strategy:?}");
                }
                let a = estimate_delta_stats(&fast, 500, &mut StdRng::seed_from_u64(5));
                let b = estimate_delta_stats(&slow, 500, &mut StdRng::seed_from_u64(5));
                assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                assert_eq!(
                    a.min_positive.map(f64::to_bits),
                    b.min_positive.map(f64::to_bits)
                );
                assert_eq!(a.samples, b.samples);
            }
        }
    }
}

/// A call the recording toy saw.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Propose,
    Apply,
    Cost,
    Undo,
}

/// Minimize the set bits of a word by flipping one, recording every call.
/// It overrides nothing beyond apply/undo, like the TSP and partition
/// problems, whose floats depend on the exact apply → cost → undo order.
struct Recording(std::cell::RefCell<Vec<Call>>);

impl Problem for Recording {
    type State = u64;
    type Move = u32;

    fn random_state(&self, rng: &mut dyn Rng) -> u64 {
        rng.random_range(0..1 << 16)
    }
    fn cost(&self, s: &u64) -> f64 {
        self.0.borrow_mut().push(Call::Cost);
        s.count_ones() as f64
    }
    fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
        self.0.borrow_mut().push(Call::Propose);
        rng.random_range(0..16)
    }
    fn apply(&self, s: &mut u64, m: &u32) {
        self.0.borrow_mut().push(Call::Apply);
        *s ^= 1 << m;
    }
    fn undo(&self, s: &mut u64, m: &u32) {
        self.0.borrow_mut().push(Call::Undo);
        *s ^= 1 << m;
    }
}

#[test]
fn default_move_evaluation_is_apply_cost_undo() {
    let p = Recording(Default::default());
    let mut s = 0b1011u64;
    assert_eq!(p.evaluate(&mut s, &1), 2.0);
    p.discard(&mut s, &1);
    assert_eq!(s, 0b1011);
    assert_eq!(p.evaluate(&mut s, &2), 4.0);
    p.commit(&mut s, &2);
    assert_eq!(s, 0b1111);
    use Call::*;
    assert_eq!(*p.0.borrow(), [Apply, Cost, Undo, Apply, Cost]);

    // Under Figure 1 every proposal is followed by exactly apply, cost and,
    // for a rejected or dropped move, undo.
    p.0.borrow_mut().clear();
    let r = Annealer::new(&p)
        .budget(Budget::evaluations(3_000))
        .seed(3)
        .run(&mut GFunction::metropolis(0.5));
    let calls = p.0.borrow();
    let first = calls.iter().position(|&c| c == Propose).unwrap();
    let mut undone = 0;
    for step in calls[first..].split(|&c| c == Propose).skip(1) {
        match step {
            [Apply, Cost] => {}
            [Apply, Cost, Undo] => undone += 1,
            other => panic!("unexpected call sequence {other:?}"),
        }
    }
    let dropped = r.stats.equilibrium_advances + u64::from(r.stop == StopReason::Equilibrium);
    assert_eq!(undone, r.stats.rejected_uphill + dropped);
}
