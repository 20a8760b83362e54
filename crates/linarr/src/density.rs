//! Cut-density evaluation by difference arrays.
//!
//! For an arrangement of `n` elements there are `n-1` *gaps* between adjacent
//! positions. A net *crosses* gap `g` when it has pins on both sides, i.e.
//! when its position span `[lo, hi]` satisfies `lo ≤ g < hi`. The **density**
//! of the arrangement is the maximum crossing count over all gaps (§4.1) —
//! the quantity NOLA/GOLA minimize.
//!
//! [`CutProfile`] keeps, per net, its current position span, per gap, its
//! crossing count, and the density and total span length (the classic
//! total-wirelength objective, kept as a secondary objective at negligible
//! cost).
//!
//! A move is evaluated without touching the profile. The caller lists the
//! nets whose span the move changes, each with its new span, in a
//! [`Delta`]. Each changed net adds four entries to a difference array over
//! the gaps: −1 at its old `lo`, +1 at its old `hi`, +1 at its new `lo`, −1
//! at its new `hi`. One linear scan then takes the running sum of the
//! difference array and the maximum of `cut[g] + sum` — the density the
//! moved arrangement would have — and zeroes the array behind it. The total
//! span comes from the same per-net span deltas. Committing the move repeats
//! the accumulation and folds the sums into the gap counts in the same scan.
//! Both cost O(changed nets + n); a full rebuild is O(total pins + n). The
//! `linarr/*` kernels of the `bench` binary quantify the speedup.

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;

/// Cut structure of an arrangement: net spans, gap crossing counts, density
/// and total span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutProfile {
    /// Per net: current position span `(lo, hi)`, `lo < hi` (nets have ≥ 2
    /// pins at distinct positions).
    spans: Vec<(u32, u32)>,
    /// Per gap `g` in `0..n-1`: number of nets crossing it.
    cut: Vec<u32>,
    /// Current density: `max_g cut[g]`.
    max_cut: u32,
    /// Sum over nets of `hi - lo` (total wirelength).
    total_span: u64,
}

/// The span changes of one move, accumulated for evaluation.
///
/// Holds no information about the arrangement itself, so it is excluded
/// from state equality.
#[derive(Debug, Clone, Default)]
pub(crate) struct Delta {
    /// `(net, new span)` for every net whose span the move changes.
    changed: Vec<(u32, (u32, u32))>,
    /// Difference array over positions `0..n` of the changes recorded so
    /// far; all zero once a scan has consumed it.
    diff: Vec<i32>,
    /// Change in total span of the changes recorded so far.
    span_change: i64,
}

impl Delta {
    /// An empty delta for arrangements of `n` elements.
    pub(crate) fn new(n: usize) -> Self {
        Delta {
            changed: Vec::new(),
            diff: vec![0; n],
            span_change: 0,
        }
    }

    /// Forgets the recorded changes (the difference array is already
    /// zero after a scan).
    pub(crate) fn clear(&mut self) {
        self.changed.clear();
        self.span_change = 0;
    }

    /// Records that `net`'s span moves from `old` to `new`.
    pub(crate) fn change(&mut self, net: u32, old: (u32, u32), new: (u32, u32)) {
        self.span_change += mark(&mut self.diff, old, new);
        self.changed.push((net, new));
    }
}

/// Adds a span change from `old` to `new` to the difference array `diff`
/// and returns the change in span length.
fn mark(diff: &mut [i32], (old_lo, old_hi): (u32, u32), (lo, hi): (u32, u32)) -> i64 {
    diff[old_lo as usize] -= 1;
    diff[old_hi as usize] += 1;
    diff[lo as usize] += 1;
    diff[hi as usize] -= 1;
    i64::from(hi - lo) - i64::from(old_hi - old_lo)
}

impl CutProfile {
    /// Builds the profile of `arrangement` from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the arrangement size differs from the netlist's element
    /// count.
    pub fn build(netlist: &Netlist, arrangement: &Arrangement) -> Self {
        assert_eq!(
            netlist.n_elements(),
            arrangement.len(),
            "arrangement size must match the netlist"
        );
        let n = arrangement.len();
        let spans: Vec<(u32, u32)> = (0..netlist.n_nets())
            .map(|net| Self::span_of(netlist, arrangement, net))
            .collect();
        let mut diff = vec![0i32; n];
        let mut total_span = 0;
        for &(lo, hi) in &spans {
            diff[lo as usize] += 1;
            diff[hi as usize] -= 1;
            total_span += u64::from(hi - lo);
        }
        let mut cut = Vec::with_capacity(n.saturating_sub(1));
        let mut acc = 0;
        for &d in &diff[..n.saturating_sub(1)] {
            acc += d;
            cut.push(acc as u32);
        }
        let max_cut = cut.iter().copied().max().unwrap_or(0);
        CutProfile {
            spans,
            cut,
            max_cut,
            total_span,
        }
    }

    /// The density (maximum crossing count over all gaps).
    pub fn density(&self) -> u32 {
        self.max_cut
    }

    /// Total span length over all nets (total wirelength).
    pub fn total_span(&self) -> u64 {
        self.total_span
    }

    /// The crossing count of gap `g` (between positions `g` and `g+1`).
    ///
    /// # Panics
    ///
    /// Panics if `g >= n - 1`.
    pub fn cut_at(&self, g: usize) -> u32 {
        self.cut[g]
    }

    /// The current span of `net`.
    pub fn span(&self, net: usize) -> (u32, u32) {
        self.spans[net]
    }

    /// The span of `net` when element `e` sits at `pos(e)`.
    pub(crate) fn span_with(
        netlist: &Netlist,
        net: usize,
        mut pos: impl FnMut(u32) -> u32,
    ) -> (u32, u32) {
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &pin in netlist.pins(net) {
            let p = pos(pin);
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }

    fn span_of(netlist: &Netlist, arrangement: &Arrangement, net: usize) -> (u32, u32) {
        Self::span_with(netlist, net, |pin| arrangement.position_of(pin))
    }

    /// The `(density, total span)` the arrangement would have with the
    /// changes recorded in `delta`. Leaves the profile untouched and the
    /// difference array zeroed; the changes stay listed for
    /// [`commit`](Self::commit).
    pub(crate) fn evaluate(&self, delta: &mut Delta) -> (u32, u64) {
        let mut acc = 0i32;
        let mut max = 0i32;
        for (d, &c) in delta.diff.iter_mut().zip(&self.cut) {
            acc += *d;
            *d = 0;
            max = max.max(c as i32 + acc);
        }
        if let Some(last) = delta.diff.last_mut() {
            *last = 0;
        }
        (
            max as u32,
            (self.total_span as i64 + delta.span_change) as u64,
        )
    }

    /// Replaces the spans listed in `delta` by an
    /// [`evaluate`](Self::evaluate) call, updating gap counts, density and
    /// total span, and empties `delta`.
    pub(crate) fn commit(&mut self, delta: &mut Delta) {
        let mut span_change = 0;
        for &(net, span) in &delta.changed {
            let old = std::mem::replace(&mut self.spans[net as usize], span);
            span_change += mark(&mut delta.diff, old, span);
        }
        self.total_span = (self.total_span as i64 + span_change) as u64;
        delta.changed.clear();
        let mut acc = 0i32;
        let mut max = 0;
        for (d, c) in delta.diff.iter_mut().zip(&mut self.cut) {
            acc += *d;
            *d = 0;
            *c = (*c as i32 + acc) as u32;
            max = max.max(*c);
        }
        if let Some(last) = delta.diff.last_mut() {
            *last = 0;
        }
        self.max_cut = max;
    }

    /// Verifies the profile against a from-scratch rebuild (test support).
    pub fn verify(&self, netlist: &Netlist, arrangement: &Arrangement) -> bool {
        *self == Self::build(netlist, arrangement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_netlist() -> Netlist {
        // 0-1, 1-2, 2-3 on 4 elements.
        Netlist::builder(4)
            .net([0, 1])
            .net([1, 2])
            .net([2, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn identity_path_has_density_one() {
        let nl = path_netlist();
        let arr = Arrangement::identity(4);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.density(), 1);
        assert_eq!(p.total_span(), 3);
        for g in 0..3 {
            assert_eq!(p.cut_at(g), 1);
        }
    }

    #[test]
    fn interleaved_path_has_higher_density() {
        let nl = path_netlist();
        // Order 0 2 1 3: net(0,1) spans [0,2], net(1,2) spans [1,2],
        // net(2,3) spans [1,3]. Gap 1 is crossed by all three.
        let arr = Arrangement::from_order(vec![0, 2, 1, 3]);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.cut_at(0), 1);
        assert_eq!(p.cut_at(1), 3);
        assert_eq!(p.cut_at(2), 1);
        assert_eq!(p.density(), 3);
        assert_eq!(p.total_span(), 5);
    }

    #[test]
    fn multi_pin_net_span() {
        let nl = Netlist::builder(5).net([0, 2, 4]).build().unwrap();
        let arr = Arrangement::identity(5);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.span(0), (0, 4));
        assert_eq!(p.density(), 1);
        assert_eq!(p.total_span(), 4);
    }

    #[test]
    fn evaluate_then_commit_matches_rebuild() {
        // Swap positions 1 and 2 of the path by hand: every net changes.
        let nl = path_netlist();
        let mut p = CutProfile::build(&nl, &Arrangement::identity(4));
        let before = p.clone();
        let moved = Arrangement::from_order(vec![0, 2, 1, 3]);
        let mut delta = Delta::new(4);
        for net in 0..3 {
            let span = CutProfile::span_of(&nl, &moved, net);
            delta.change(net as u32, p.span(net), span);
        }
        assert_eq!(p.evaluate(&mut delta), (3, 5));
        assert_eq!(p, before, "evaluate must not touch the profile");
        assert!(delta.diff.iter().all(|&d| d == 0));
        p.commit(&mut delta);
        assert!(p.verify(&nl, &moved));
        assert!(delta.changed.is_empty());
        assert!(delta.diff.iter().all(|&d| d == 0));
    }

    #[test]
    fn single_element_arrangement_has_no_gaps() {
        let nl = Netlist::builder(2).net([0, 1]).build().unwrap();
        let arr = Arrangement::identity(2);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.density(), 1);
        // Degenerate n=1 netlists cannot have nets (min 2 pins), so density 0:
        let nl1 = Netlist::builder(1).build().unwrap();
        let arr1 = Arrangement::identity(1);
        let p1 = CutProfile::build(&nl1, &arr1);
        assert_eq!(p1.density(), 0);
        assert_eq!(p1.total_span(), 0);
    }

    #[test]
    #[should_panic(expected = "must match the netlist")]
    fn size_mismatch_panics() {
        let nl = path_netlist();
        let arr = Arrangement::identity(3);
        let _ = CutProfile::build(&nl, &arr);
    }
}
