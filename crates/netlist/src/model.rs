//! The netlist data model: circuit elements connected by multi-pin nets.
//!
//! The paper's problem instances (§4.1) are "n circuit elements (cells,
//! boards, chips, etc) and connectivity information": a collection of nets,
//! each connecting two or more elements. When every net connects exactly two
//! elements the netlist is a (multi)graph — the GOLA special case.

use std::fmt;

/// Errors raised while building a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// The netlist declares zero elements.
    NoElements,
    /// A net references an element index `pin >= n_elements`.
    PinOutOfRange {
        /// Index of the offending net (insertion order).
        net: usize,
        /// The out-of-range pin.
        pin: u32,
        /// Declared element count.
        n_elements: usize,
    },
    /// A net connects fewer than two distinct elements.
    NetTooSmall {
        /// Index of the offending net (insertion order).
        net: usize,
        /// Number of distinct pins found.
        size: usize,
    },
    /// A net lists the same element twice.
    DuplicatePin {
        /// Index of the offending net (insertion order).
        net: usize,
        /// The repeated pin.
        pin: u32,
    },
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::NoElements => write!(f, "netlist has no elements"),
            BuildNetlistError::PinOutOfRange {
                net,
                pin,
                n_elements,
            } => write!(
                f,
                "net {net} references element {pin} but only {n_elements} elements exist"
            ),
            BuildNetlistError::NetTooSmall { net, size } => {
                write!(
                    f,
                    "net {net} connects {size} distinct elements, need at least 2"
                )
            }
            BuildNetlistError::DuplicatePin { net, pin } => {
                write!(f, "net {net} lists element {pin} more than once")
            }
        }
    }
}

impl std::error::Error for BuildNetlistError {}

/// An immutable netlist: `n_elements` circuit elements and a list of nets,
/// each a sorted set of at least two element indices.
///
/// # Examples
///
/// ```
/// use anneal_netlist::Netlist;
///
/// // A triangle plus one 3-pin net.
/// let nl = Netlist::builder(3)
///     .net([0, 1])
///     .net([1, 2])
///     .net([0, 2])
///     .net([0, 1, 2])
///     .build()?;
/// assert_eq!(nl.n_elements(), 3);
/// assert_eq!(nl.n_nets(), 4);
/// assert_eq!(nl.degree(1), 3);
/// assert!(!nl.is_two_pin());
/// # Ok::<(), anneal_netlist::BuildNetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    n_elements: usize,
    /// Compressed sparse rows of pins: net `i`'s pins are
    /// `pins[net_start[i]..net_start[i + 1]]`.
    net_start: Vec<u32>,
    pins: Vec<u32>,
    /// Compressed sparse rows of incident nets: element `e`'s nets are
    /// `incident[element_start[e]..element_start[e + 1]]`.
    element_start: Vec<u32>,
    incident: Vec<u32>,
}

impl Netlist {
    /// Starts building a netlist over `n_elements` elements.
    pub fn builder(n_elements: usize) -> NetlistBuilder {
        NetlistBuilder {
            n_elements,
            nets: Vec::new(),
        }
    }

    /// Number of circuit elements.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Number of nets.
    #[inline]
    pub fn n_nets(&self) -> usize {
        self.net_start.len() - 1
    }

    /// The pins (element indices, ascending) of net `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net >= self.n_nets()`.
    #[inline]
    pub fn pins(&self, net: usize) -> &[u32] {
        &self.pins[self.net_start[net] as usize..self.net_start[net + 1] as usize]
    }

    /// Iterator over all nets' pin lists.
    pub fn nets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.n_nets()).map(|net| self.pins(net))
    }

    /// The nets incident to `element` (ascending net indices).
    ///
    /// # Panics
    ///
    /// Panics if `element >= self.n_elements()`.
    #[inline]
    pub fn nets_of(&self, element: usize) -> &[u32] {
        &self.incident
            [self.element_start[element] as usize..self.element_start[element + 1] as usize]
    }

    /// Number of nets incident to `element` — the paper's "connectivity" of
    /// an element (Goto's heuristic starts from the most lightly connected
    /// element).
    #[inline]
    pub fn degree(&self, element: usize) -> usize {
        self.nets_of(element).len()
    }

    /// Whether every net connects exactly two elements (the GOLA case).
    pub fn is_two_pin(&self) -> bool {
        self.net_start.windows(2).all(|w| w[1] - w[0] == 2)
    }

    /// Number of nets connecting `a` and `b` jointly (the multigraph edge
    /// weight used by Kernighan–Lin on two-pin netlists).
    pub fn joint_nets(&self, a: usize, b: usize) -> usize {
        let (short, other) = if self.degree(a) <= self.degree(b) {
            (a, b as u32)
        } else {
            (b, a as u32)
        };
        self.nets_of(short)
            .iter()
            .filter(|&&n| self.pins(n as usize).binary_search(&other).is_ok())
            .count()
    }

    /// Total pin count over all nets.
    pub fn total_pins(&self) -> usize {
        self.pins.len()
    }
}

/// Incremental builder for [`Netlist`], validating on
/// [`build`](NetlistBuilder::build).
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    n_elements: usize,
    nets: Vec<Vec<u32>>,
}

impl NetlistBuilder {
    /// Adds a net connecting the given elements.
    pub fn net(mut self, pins: impl IntoIterator<Item = u32>) -> Self {
        self.nets.push(pins.into_iter().collect());
        self
    }

    /// Adds many nets at once.
    pub fn nets<I, N>(mut self, nets: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: IntoIterator<Item = u32>,
    {
        for n in nets {
            self.nets.push(n.into_iter().collect());
        }
        self
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist has no elements, a net references an
    /// out-of-range element, repeats a pin, or connects fewer than two
    /// elements.
    pub fn build(self) -> Result<Netlist, BuildNetlistError> {
        if self.n_elements == 0 {
            return Err(BuildNetlistError::NoElements);
        }
        let mut net_start = Vec::with_capacity(self.nets.len() + 1);
        net_start.push(0);
        let mut flat = Vec::new();
        let mut degree = vec![0u32; self.n_elements + 1];
        for (i, mut pins) in self.nets.into_iter().enumerate() {
            pins.sort_unstable();
            for w in pins.windows(2) {
                if w[0] == w[1] {
                    return Err(BuildNetlistError::DuplicatePin { net: i, pin: w[0] });
                }
            }
            if let Some(&pin) = pins.iter().find(|&&p| p as usize >= self.n_elements) {
                return Err(BuildNetlistError::PinOutOfRange {
                    net: i,
                    pin,
                    n_elements: self.n_elements,
                });
            }
            if pins.len() < 2 {
                return Err(BuildNetlistError::NetTooSmall {
                    net: i,
                    size: pins.len(),
                });
            }
            for &p in &pins {
                degree[p as usize + 1] += 1;
            }
            flat.extend_from_slice(&pins);
            net_start.push(flat.len() as u32);
        }
        // Prefix sums of the degrees give each element's row start; filling
        // the rows net by net keeps every row in ascending net order.
        let mut element_start = degree;
        for e in 1..element_start.len() {
            element_start[e] += element_start[e - 1];
        }
        let mut fill = element_start.clone();
        let mut incident = vec![0; flat.len()];
        for net in 0..net_start.len() - 1 {
            for &p in &flat[net_start[net] as usize..net_start[net + 1] as usize] {
                incident[fill[p as usize] as usize] = net as u32;
                fill[p as usize] += 1;
            }
        }
        Ok(Netlist {
            n_elements: self.n_elements,
            net_start,
            pins: flat,
            element_start,
            incident,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Netlist {
        Netlist::builder(3)
            .net([0, 1])
            .net([1, 2])
            .net([0, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_queries() {
        let nl = triangle();
        assert_eq!(nl.n_elements(), 3);
        assert_eq!(nl.n_nets(), 3);
        assert!(nl.is_two_pin());
        assert_eq!(nl.degree(0), 2);
        assert_eq!(nl.pins(0), &[0, 1]);
        assert_eq!(nl.nets_of(1), &[0, 1]);
        assert_eq!(nl.total_pins(), 6);
    }

    #[test]
    fn pins_are_sorted_regardless_of_insertion_order() {
        let nl = Netlist::builder(5).net([4, 0, 2]).build().unwrap();
        assert_eq!(nl.pins(0), &[0, 2, 4]);
        assert!(!nl.is_two_pin());
    }

    #[test]
    fn joint_nets_counts_multiedges() {
        let nl = Netlist::builder(4)
            .net([0, 1])
            .net([0, 1])
            .net([0, 1, 2])
            .net([2, 3])
            .build()
            .unwrap();
        assert_eq!(nl.joint_nets(0, 1), 3);
        assert_eq!(nl.joint_nets(1, 0), 3);
        assert_eq!(nl.joint_nets(0, 2), 1);
        assert_eq!(nl.joint_nets(0, 3), 0);
    }

    #[test]
    fn rejects_empty_netlist() {
        assert_eq!(
            Netlist::builder(0).build().unwrap_err(),
            BuildNetlistError::NoElements
        );
    }

    #[test]
    fn rejects_out_of_range_pin() {
        let err = Netlist::builder(3).net([0, 3]).build().unwrap_err();
        assert_eq!(
            err,
            BuildNetlistError::PinOutOfRange {
                net: 0,
                pin: 3,
                n_elements: 3
            }
        );
    }

    #[test]
    fn rejects_small_and_duplicate_nets() {
        assert_eq!(
            Netlist::builder(3).net([1]).build().unwrap_err(),
            BuildNetlistError::NetTooSmall { net: 0, size: 1 }
        );
        assert_eq!(
            Netlist::builder(3).net([1, 1]).build().unwrap_err(),
            BuildNetlistError::DuplicatePin { net: 0, pin: 1 }
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BuildNetlistError::PinOutOfRange {
            net: 7,
            pin: 9,
            n_elements: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("net 7") && msg.contains("element 9") && msg.contains('5'));
    }

    #[test]
    fn builder_nets_bulk_add() {
        let nl = Netlist::builder(4)
            .nets(vec![vec![0u32, 1], vec![2, 3]])
            .build()
            .unwrap();
        assert_eq!(nl.n_nets(), 2);
    }
}
