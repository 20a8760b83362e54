//! A [`Problem`] adapter that counts and times every call into the
//! substrate, so a traced chain can say how much of its time the linear
//! arrangement kernels took.
//!
//! Every trait method is forwarded, so no default method ever stands in
//! for one the wrapped problem specialises, and a chain run through the
//! adapter consumes its RNG exactly as the plain run does.

use std::cell::Cell;
use std::time::Instant;

use anneal_core::{Problem, Rng};

/// Call counts and busy time of one adapted chain.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Calls {
    /// `propose` calls.
    pub propose: u64,
    /// `apply` calls.
    pub apply: u64,
    /// `undo` calls (each rolls back one rejected move).
    pub undo: u64,
    /// `cost` calls.
    pub cost: u64,
    /// `improving_move` calls (Figure 2's local descent).
    pub improving_move: u64,
    /// Time inside any forwarded call, ns.
    pub busy_ns: u64,
    /// Time applying and undoing moves that were rolled back, ns.
    pub wasted_ns: u64,
    /// Time inside `improving_move`, ns.
    pub improving_move_ns: u64,
}

impl Calls {
    /// Adds another chain's counts into these.
    pub fn add(&mut self, o: &Calls) {
        self.propose += o.propose;
        self.apply += o.apply;
        self.undo += o.undo;
        self.cost += o.cost;
        self.improving_move += o.improving_move;
        self.busy_ns += o.busy_ns;
        self.wasted_ns += o.wasted_ns;
        self.improving_move_ns += o.improving_move_ns;
    }
}

/// Wraps a problem for one single-threaded chain.
pub struct Counted<'a, P> {
    inner: &'a P,
    calls: Cell<Calls>,
    last_apply_ns: Cell<u64>,
}

impl<'a, P> Counted<'a, P> {
    /// Adapts `inner` with zeroed counters.
    pub fn new(inner: &'a P) -> Self {
        Counted {
            inner,
            calls: Cell::new(Calls::default()),
            last_apply_ns: Cell::new(0),
        }
    }

    /// Counts so far.
    pub fn calls(&self) -> Calls {
        self.calls.get()
    }

    /// Runs `f`, charging its time to the busy total and bumping counters.
    fn timed<R>(&self, f: impl FnOnce() -> R, bump: impl FnOnce(&mut Calls, u64)) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let mut c = self.calls.get();
        c.busy_ns += ns;
        bump(&mut c, ns);
        self.calls.set(c);
        out
    }
}

impl<P: Problem> Problem for Counted<'_, P> {
    type State = P::State;
    type Move = P::Move;

    fn random_state(&self, rng: &mut dyn Rng) -> Self::State {
        self.timed(|| self.inner.random_state(rng), |_, _| {})
    }

    fn cost(&self, state: &Self::State) -> f64 {
        self.timed(|| self.inner.cost(state), |c, _| c.cost += 1)
    }

    fn propose(&self, state: &Self::State, rng: &mut dyn Rng) -> Self::Move {
        self.timed(|| self.inner.propose(state, rng), |c, _| c.propose += 1)
    }

    fn apply(&self, state: &mut Self::State, mv: &Self::Move) {
        self.timed(
            || self.inner.apply(state, mv),
            |c, ns| {
                c.apply += 1;
                self.last_apply_ns.set(ns);
            },
        )
    }

    fn undo(&self, state: &mut Self::State, mv: &Self::Move) {
        self.timed(
            || self.inner.undo(state, mv),
            |c, ns| {
                c.undo += 1;
                c.wasted_ns += ns + self.last_apply_ns.get();
            },
        )
    }

    fn improving_move(&self, state: &Self::State, eval_counter: &mut u64) -> Option<Self::Move> {
        self.timed(
            || self.inner.improving_move(state, eval_counter),
            |c, ns| {
                c.improving_move += 1;
                c.improving_move_ns += ns;
            },
        )
    }

    fn all_moves(&self, state: &Self::State) -> Vec<Self::Move> {
        self.timed(|| self.inner.all_moves(state), |_, _| {})
    }

    fn all_moves_into(&self, state: &Self::State, buf: &mut Vec<Self::Move>) {
        self.timed(|| self.inner.all_moves_into(state, buf), |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::{Budget, Figure1, Figure2, GFunction};
    use anneal_experiments::gola_paper_set;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn adapted_chains_are_bitwise_identical() {
        let problem = &gola_paper_set(7)[0];
        for figure2 in [false, true] {
            let run = |p: &dyn Fn(&mut StdRng, &mut GFunction) -> (f64, u64)| {
                let mut rng = StdRng::seed_from_u64(11);
                let mut g = GFunction::six_temp_annealing(2.0);
                p(&mut rng, &mut g)
            };
            let budget = Budget::evaluations(3_000);
            let plain = run(&|rng, g| {
                let start = problem.random_state(rng);
                let r = if figure2 {
                    Figure2::default().run(problem, g, start, budget, rng)
                } else {
                    Figure1::default().run(problem, g, start, budget, rng)
                };
                (r.reduction(), r.stats.evals)
            });
            let counted = Counted::new(problem);
            let traced = run(&|rng, g| {
                let start = counted.random_state(rng);
                let r = if figure2 {
                    Figure2::default().run(&counted, g, start, budget, rng)
                } else {
                    Figure1::default().run(&counted, g, start, budget, rng)
                };
                (r.reduction(), r.stats.evals)
            });
            assert_eq!(plain.0.to_bits(), traced.0.to_bits());
            assert_eq!(plain.1, traced.1);
            let c = counted.calls();
            assert!(c.propose > 0 && c.apply > 0 && c.cost > 0);
            assert!(c.undo <= c.apply);
            assert!(c.wasted_ns <= c.busy_ns);
            assert_eq!(c.improving_move > 0, figure2);
        }
    }
}
