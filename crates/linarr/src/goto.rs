//! The constructive heuristic of Goto, Cederbaum and Ting [GOTO77], as
//! described in §4.2.2 of the paper:
//!
//! > "The heuristic of Goto constructs the linear arrangement left to right.
//! > It begins with the most lightly connected element and places this at
//! > the leftmost position. Let S be the set of nets in the elements already
//! > placed. Let i be an element not yet placed, and let T be the nets in
//! > the remaining elements not yet placed. The next element, i, to be
//! > placed is chosen such that S∩T is minimum over all choices for i."
//!
//! Placing `i` next makes `S∩T` exactly the set of nets crossing the new
//! boundary between the placed prefix and the unplaced suffix, so each step
//! greedily minimizes the crossing count of the gap it creates.

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;

/// Builds an arrangement with the Goto greedy construction.
///
/// Ties are broken toward the smaller element index, making the construction
/// deterministic.
///
/// # Panics
///
/// Panics if the netlist has no elements.
///
/// # Examples
///
/// ```
/// use anneal_linarr::{goto_arrangement, LinearArrangementProblem};
/// use anneal_netlist::generator::random_two_pin;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let netlist = random_two_pin(15, 150, &mut rng);
/// let arrangement = goto_arrangement(&netlist);
/// let problem = LinearArrangementProblem::new(netlist);
/// let state = problem.state_from(arrangement);
/// // Goto arrangements are far better than random ones (§4.2.2).
/// assert!(state.density() < 90);
/// ```
pub fn goto_arrangement(netlist: &Netlist) -> Arrangement {
    let n = netlist.n_elements();
    assert!(n > 0, "netlist has no elements");
    let m = netlist.n_nets();

    let mut placed = vec![false; n];
    let mut placed_pins = vec![0u32; m]; // per net: pins already placed
    let mut order = Vec::with_capacity(n);

    // Step 1: the most lightly connected element.
    let first = (0..n)
        .min_by_key(|&e| (netlist.degree(e), e))
        .expect("n > 0");
    place(netlist, first, &mut placed, &mut placed_pins, &mut order);

    // Greedy extension: minimize the crossing count of the next boundary.
    while order.len() < n {
        let crossing_now = (0..m)
            .filter(|&net| crosses(netlist, net, placed_pins[net]))
            .count() as u32;
        let mut best: Option<(u32, usize)> = None;
        #[allow(clippy::needless_range_loop)] // index drives two parallel arrays
        for cand in 0..n {
            if placed[cand] {
                continue;
            }
            let crossing = crossing_after(netlist, cand, &placed_pins, crossing_now);
            match best {
                Some((c, e)) if (c, e) <= (crossing, cand) => {}
                _ => best = Some((crossing, cand)),
            }
        }
        let (_, next) = best.expect("an unplaced element remains");
        place(netlist, next, &mut placed, &mut placed_pins, &mut order);
    }

    Arrangement::from_order(order)
}

fn place(
    netlist: &Netlist,
    element: usize,
    placed: &mut [bool],
    placed_pins: &mut [u32],
    order: &mut Vec<u32>,
) {
    placed[element] = true;
    order.push(element as u32);
    for &net in netlist.nets_of(element) {
        placed_pins[net as usize] += 1;
    }
}

/// Whether `net`, with `placed` of its pins on the placed side, crosses
/// the boundary.
fn crosses(netlist: &Netlist, net: usize, placed: u32) -> bool {
    placed > 0 && (placed as usize) < netlist.pins(net).len()
}

/// Number of nets that would cross the boundary after placing `cand`, given
/// the `crossing_now`: only the nets of `cand` can change.
fn crossing_after(netlist: &Netlist, cand: usize, placed_pins: &[u32], crossing_now: u32) -> u32 {
    let mut crossing = crossing_now;
    for &net in netlist.nets_of(cand) {
        let (net, p) = (net as usize, placed_pins[net as usize]);
        crossing += u32::from(crosses(netlist, net, p + 1));
        crossing -= u32::from(crosses(netlist, net, p));
    }
    crossing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ArrangedState;
    use anneal_netlist::generator::{random_multi_pin, random_two_pin};
    use anneal_netlist::Netlist;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn path_graph_is_arranged_optimally() {
        // A path 0-1-2-3-4 has an arrangement of density 1; Goto finds it.
        let nl = Netlist::builder(5)
            .net([0, 1])
            .net([1, 2])
            .net([2, 3])
            .net([3, 4])
            .build()
            .unwrap();
        let arr = goto_arrangement(&nl);
        let s = ArrangedState::new(&nl, arr);
        assert_eq!(s.density(), 1);
    }

    #[test]
    fn starts_with_most_lightly_connected() {
        // Element 3 has degree 1, the rest higher.
        let nl = Netlist::builder(4)
            .net([0, 1])
            .net([0, 2])
            .net([1, 2])
            .net([2, 3])
            .build()
            .unwrap();
        let arr = goto_arrangement(&nl);
        assert_eq!(arr.element_at(0), 3);
    }

    #[test]
    fn deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let nl = random_two_pin(15, 150, &mut rng);
        assert_eq!(goto_arrangement(&nl), goto_arrangement(&nl));
    }

    #[test]
    fn beats_random_arrangements_on_average() {
        // §4.2.2: Goto performs as well as the best Monte Carlo methods.
        let mut total_random = 0u64;
        let mut total_goto = 0u64;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = random_two_pin(15, 150, &mut rng);
            let random = ArrangedState::new(&nl, Arrangement::random(15, &mut rng));
            let goto = ArrangedState::new(&nl, goto_arrangement(&nl));
            total_random += u64::from(random.density());
            total_goto += u64::from(goto.density());
        }
        assert!(
            total_goto < total_random,
            "goto {total_goto} should beat random {total_random}"
        );
    }

    #[test]
    fn works_on_multi_pin_netlists() {
        let mut rng = StdRng::seed_from_u64(2);
        let nl = random_multi_pin(15, 150, 2, 5, &mut rng);
        let arr = goto_arrangement(&nl);
        let s = ArrangedState::new(&nl, arr);
        assert!(s.verify(&nl));
        assert!(s.density() <= 150);
    }

    #[test]
    fn covers_all_elements_exactly_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let nl = random_two_pin(12, 60, &mut rng);
        let arr = goto_arrangement(&nl);
        let mut seen = arr.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<u32>>());
    }
}
