//! Every instance the harness generates, regenerated deterministically
//! from a base seed: the paper's sets (§4.2.1, §4.3.1), the extension
//! tables' instances and the job server's generated instances.
//!
//! Each family has one generator taking `(seed, index, size)` and owning
//! its seed-stream salt, so a table and a served job that name the same
//! family, seed and index solve the same instance.

use anneal_core::derive_seed;
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::{
    random_multi_pin, random_two_pin, PAPER_ELEMENTS, PAPER_INSTANCES, PAPER_NETS,
};
use anneal_netlist::Netlist;
use anneal_tsp::TspInstance;
use rand::{rngs::StdRng, SeedableRng};

/// Base seed of the default experiment suite (the publication year).
pub const DEFAULT_SEED: u64 = 1985;

/// NOLA net sizes: the paper only says "150 nets", but its starting random
/// arrangements sum to density 4254 (≈ 142 per instance of 150 nets), which
/// pins down fairly large nets; pin counts uniform in 2..=10 reproduce that
/// starting density (documented substitution, DESIGN.md).
pub const NOLA_PIN_RANGE: (usize, usize) = (2, 10);

/// The generator stream of instance `index` from `seed`.
fn stream(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, index))
}

/// GOLA instance `index`: `elements` elements, `nets` two-pin nets.
pub(crate) fn gola(seed: u64, index: u64, elements: usize, nets: usize) -> Netlist {
    random_two_pin(elements, nets, &mut stream(seed, index))
}

/// NOLA instance `index`: `elements` elements, `nets` nets of
/// [`NOLA_PIN_RANGE`] pins each.
pub(crate) fn nola(seed: u64, index: u64, elements: usize, nets: usize) -> Netlist {
    let seed = seed.wrapping_add(0x4E4F);
    multi_pin(seed, index, elements, nets, NOLA_PIN_RANGE)
}

/// Multi-pin instance `index` with pin counts uniform in `pins` (the NOLA
/// net-size ablation), on `seed`'s unsalted stream.
pub(crate) fn multi_pin(
    seed: u64,
    index: u64,
    elements: usize,
    nets: usize,
    (lo, hi): (usize, usize),
) -> Netlist {
    random_multi_pin(elements, nets, lo, hi, &mut stream(seed, index))
}

/// Circuit-partition instance `index`: `elements` elements, `nets` two-pin
/// nets.
pub(crate) fn partition(seed: u64, index: u64, elements: usize, nets: usize) -> Netlist {
    random_two_pin(elements, nets, &mut stream(seed ^ 0x504152, index))
}

/// Euclidean TSP instance `index`: `cities` cities in the unit square.
pub(crate) fn tsp(seed: u64, index: u64, cities: usize) -> TspInstance {
    TspInstance::random_euclidean(cities, &mut stream(seed ^ 0x545350, index))
}

/// The 30 GOLA instances: 15 elements, 150 two-pin nets each (§4.2.1).
pub fn gola_paper_set(seed: u64) -> Vec<LinearArrangementProblem> {
    paper_set(seed, gola)
}

/// The 30 NOLA instances: 15 elements, 150 multi-pin nets each (§4.3.1).
pub fn nola_paper_set(seed: u64) -> Vec<LinearArrangementProblem> {
    paper_set(seed, nola)
}

fn paper_set(
    seed: u64,
    family: fn(u64, u64, usize, usize) -> Netlist,
) -> Vec<LinearArrangementProblem> {
    let instance = |i| LinearArrangementProblem::new(family(seed, i, PAPER_ELEMENTS, PAPER_NETS));
    (0..PAPER_INSTANCES as u64).map(instance).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gola_set_shape() {
        let set = gola_paper_set(DEFAULT_SEED);
        assert_eq!(set.len(), 30);
        for p in &set {
            assert_eq!(p.netlist().n_elements(), 15);
            assert_eq!(p.netlist().n_nets(), 150);
            assert!(p.is_gola());
        }
    }

    #[test]
    fn nola_set_shape() {
        let set = nola_paper_set(DEFAULT_SEED);
        assert_eq!(set.len(), 30);
        let mut any_multi = false;
        for p in &set {
            assert_eq!(p.netlist().n_nets(), 150);
            any_multi |= !p.is_gola();
        }
        assert!(any_multi, "NOLA instances must contain multi-pin nets");
    }

    #[test]
    fn sets_are_deterministic_and_distinct() {
        let a = gola_paper_set(7);
        let b = gola_paper_set(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.netlist(), y.netlist());
        }
        let c = gola_paper_set(8);
        assert_ne!(a[0].netlist(), c[0].netlist());
        // GOLA and NOLA sets differ even at the same seed.
        let n = nola_paper_set(7);
        assert_ne!(a[0].netlist(), n[0].netlist());
    }
}
