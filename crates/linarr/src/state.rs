//! The mutable search state: an arrangement plus its [`CutProfile`].

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;
use crate::density::{CutProfile, Delta};
use crate::problem::ArrMove;

/// An arrangement bundled with its cut profile, so that both objectives
/// (density and total span) read in O(1) and a move is evaluated before the
/// state changes.
///
/// Moves go through [`evaluate`](Self::evaluate), which leaves the
/// arrangement and profile untouched, then exactly one of
/// [`commit`](Self::commit) or [`discard`](Self::discard).
///
/// `ArrangedState` deliberately does not borrow the netlist (the
/// [`Problem`](anneal_core::Problem) owner holds it); every method that
/// reads nets takes it as an argument, and it must be the netlist the state
/// was built with.
#[derive(Debug, Clone)]
pub struct ArrangedState {
    arrangement: Arrangement,
    profile: CutProfile,
    /// The span changes of the last evaluated move; excluded from equality
    /// so scratch contents never distinguish states.
    delta: Delta,
}

impl PartialEq for ArrangedState {
    fn eq(&self, other: &Self) -> bool {
        self.arrangement == other.arrangement && self.profile == other.profile
    }
}

impl Eq for ArrangedState {}

impl ArrangedState {
    /// Builds the state for `arrangement` under `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree.
    pub fn new(netlist: &Netlist, arrangement: Arrangement) -> Self {
        let profile = CutProfile::build(netlist, &arrangement);
        let delta = Delta::new(arrangement.len());
        ArrangedState {
            arrangement,
            profile,
            delta,
        }
    }

    /// The current arrangement.
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// The current density.
    pub fn density(&self) -> u32 {
        self.profile.density()
    }

    /// The current total span (wirelength).
    pub fn total_span(&self) -> u64 {
        self.profile.total_span()
    }

    /// The cut profile.
    pub fn profile(&self) -> &CutProfile {
        &self.profile
    }

    /// Returns the `(density, total span)` the state would have after `mv`,
    /// without changing the arrangement or profile. Follow it with
    /// [`commit`](Self::commit) or [`discard`](Self::discard).
    pub fn evaluate(&mut self, netlist: &Netlist, mv: ArrMove) -> (u32, u64) {
        let mut delta = std::mem::take(&mut self.delta);
        let out = self.probe(netlist, mv, &mut delta);
        self.delta = delta;
        out
    }

    /// Applies the move last passed to [`evaluate`](Self::evaluate).
    pub fn commit(&mut self, mv: ArrMove) {
        match mv {
            ArrMove::Swap(p, q) => self.arrangement.swap_positions(p, q),
            ArrMove::Relocate { from, to } => self.arrangement.relocate(from, to),
        }
        self.profile.commit(&mut self.delta);
    }

    /// Drops the move last passed to [`evaluate`](Self::evaluate).
    pub fn discard(&mut self) {
        self.delta.clear();
    }

    /// [`evaluate`](Self::evaluate) with caller-owned scratch: lists the
    /// nets whose span `mv` changes in `delta` and returns the
    /// `(density, total span)` they give.
    pub(crate) fn probe(&self, netlist: &Netlist, mv: ArrMove, delta: &mut Delta) -> (u32, u64) {
        delta.clear();
        match mv {
            ArrMove::Swap(p, q) if p != q => self.swap_spans(netlist, p, q, delta),
            ArrMove::Relocate { from, to } if from != to => {
                self.relocate_spans(netlist, from, to, delta)
            }
            _ => {}
        }
        self.profile.evaluate(delta)
    }

    /// Lists the new spans of the nets a swap of positions `p` and `q`
    /// changes.
    fn swap_spans(&self, netlist: &Netlist, p: usize, q: usize, delta: &mut Delta) {
        let arr = &self.arrangement;
        let a = arr.element_at(p);
        let b = arr.element_at(q);
        let (p, q) = (p as u32, q as u32);
        // A net incident to both elements keeps its pin-position set (only
        // the labels trade places), so its span comes out unchanged from
        // either side and is never recorded.
        let swapped = |pin: u32| {
            if pin == a {
                q
            } else if pin == b {
                p
            } else {
                arr.position_of(pin)
            }
        };
        for (e, from, to) in [(a, p, q), (b, q, p)] {
            for &net in netlist.nets_of(e as usize) {
                let (lo, hi) = self.profile.span(net as usize);
                let span = if netlist.pins(net as usize).len() == 2 {
                    // The pin is one end and the other end stays, unless it
                    // is the other swapped element.
                    let other = lo + hi - from;
                    if other == to {
                        continue;
                    }
                    (other.min(to), other.max(to))
                } else if (from == lo && to > lo) || (from == hi && to < hi) {
                    // The pin leaves an end inward: the other pins decide
                    // the new end.
                    CutProfile::span_with(netlist, net as usize, swapped)
                } else {
                    // The pin leaves an interior position, or leaves an end
                    // outward: the span stretches to cover `to`.
                    (lo.min(to), hi.max(to))
                };
                if span != (lo, hi) {
                    delta.change(net, (lo, hi), span);
                }
            }
        }
    }

    /// Lists the new spans of the nets a relocation from `from` to `to`
    /// changes: the moved element lands on `to` and the rest of the window
    /// shifts by one toward `from`.
    fn relocate_spans(&self, netlist: &Netlist, from: usize, to: usize, delta: &mut Delta) {
        let arr = &self.arrangement;
        let (from, to) = (from as u32, to as u32);
        let (first, last) = (from.min(to), from.max(to));
        let shifted = |p: u32| {
            if p == from {
                to
            } else if from < to && from < p && p <= to {
                p - 1
            } else if to < from && to <= p && p < from {
                p + 1
            } else {
                p
            }
        };
        // Every net touching the window may change. Each is handled from
        // its leftmost pin inside the window, so none is listed twice.
        for p in first..=last {
            let e = arr.element_at(p as usize);
            'nets: for &net in netlist.nets_of(e as usize) {
                let (mut lo, mut hi) = (u32::MAX, 0);
                for &pin in netlist.pins(net as usize) {
                    let at = arr.position_of(pin);
                    if first <= at && at < p {
                        continue 'nets;
                    }
                    let moved = shifted(at);
                    lo = lo.min(moved);
                    hi = hi.max(moved);
                }
                let old = self.profile.span(net as usize);
                if (lo, hi) != old {
                    delta.change(net, old, (lo, hi));
                }
            }
        }
    }

    /// Verifies the profile against a rebuild (test support).
    pub fn verify(&self, netlist: &Netlist) -> bool {
        self.profile.verify(netlist, &self.arrangement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_netlist::generator::{random_multi_pin, random_two_pin};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn apply(s: &mut ArrangedState, nl: &Netlist, mv: ArrMove) {
        s.evaluate(nl, mv);
        s.commit(mv);
    }

    #[test]
    fn swap_updates_incrementally() {
        let mut rng = StdRng::seed_from_u64(7);
        let nl = random_two_pin(15, 150, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(15, &mut rng));
        for _ in 0..200 {
            let p = rng.random_range(0..15);
            let q = rng.random_range(0..15);
            apply(&mut s, &nl, ArrMove::Swap(p, q));
        }
        assert!(s.verify(&nl));
    }

    #[test]
    fn relocate_updates_incrementally() {
        let mut rng = StdRng::seed_from_u64(8);
        let nl = random_multi_pin(15, 150, 2, 5, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(15, &mut rng));
        for _ in 0..200 {
            let from = rng.random_range(0..15);
            let to = rng.random_range(0..15);
            apply(&mut s, &nl, ArrMove::Relocate { from, to });
        }
        assert!(s.verify(&nl));
    }

    #[test]
    fn swap_is_involutive_on_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let nl = random_two_pin(10, 40, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(10, &mut rng));
        let before = s.clone();
        apply(&mut s, &nl, ArrMove::Swap(2, 7));
        assert_ne!(s.arrangement(), before.arrangement());
        apply(&mut s, &nl, ArrMove::Swap(2, 7));
        assert_eq!(s, before);
    }

    #[test]
    fn noop_moves_do_nothing() {
        let mut rng = StdRng::seed_from_u64(10);
        let nl = random_two_pin(8, 20, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(8, &mut rng));
        let before = s.clone();
        apply(&mut s, &nl, ArrMove::Swap(3, 3));
        apply(&mut s, &nl, ArrMove::Relocate { from: 5, to: 5 });
        assert_eq!(s, before);
    }
}
