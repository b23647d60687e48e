//! Data partitions for distributed aggregates.
//!
//! The paper's distributed-memory model partitions primitive-data object
//! fields "among aggregate elements, according to a pre-defined partition
//! (block, cyclic and hybrid)" (§III.C). These pure functions compute the
//! owner and local extent of every global index and are shared by the
//! scatter/gather primitives, halo exchange, the distributed `for` construct
//! and the run-time adaptation protocol (which uses the partition information
//! to merge an aggregate back into a single instance, §IV.B).

use std::ops::Range;

/// How a one-dimensional index space (array rows, loop iterations, genes,
/// particles, ...) is split across aggregate elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partition {
    /// Contiguous near-equal blocks in element order.
    #[default]
    Block,
    /// Element `e` owns indices `e, e+P, e+2P, ...`.
    Cyclic,
    /// Blocks of `block` indices dealt round-robin (the paper's "hybrid").
    BlockCyclic {
        /// Block length; must be ≥ 1.
        block: usize,
    },
}

/// Which of an object's fields participates in aggregate state, and how.
///
/// §IV.B: "each class field must be marked as Replicated, Partitioned or
/// Local (by default, fields are considered Local)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldDist {
    /// Duplicated on every aggregate element; kept equal by construction.
    /// On expansion the new elements copy the master's value.
    Replicated,
    /// Split across elements according to a [`Partition`]. On contraction the
    /// pieces are gathered into the surviving instance; on expansion they are
    /// scattered out.
    Partitioned(Partition),
    /// Private to each element; never moved by the runtime.
    Local,
}

/// The contiguous range of `0..len` owned by `element` under a block
/// partition over `elements` elements (leading elements take the remainder).
pub fn block_owned(len: usize, elements: usize, element: usize) -> Range<usize> {
    crate::schedule::block_range(len, elements, element)
}

/// Owner of global index `i` under the given partition.
pub fn owner_of(partition: Partition, len: usize, elements: usize, i: usize) -> usize {
    assert!(elements > 0, "elements must be >= 1");
    assert!(i < len, "index {i} out of bounds 0..{len}");
    match partition {
        Partition::Block => {
            let base = len / elements;
            let extra = len % elements;
            let big = (base + 1) * extra; // indices held by the first `extra` elements
            if base == 0 {
                // fewer indices than elements: index i lives on element i
                i
            } else if i < big {
                i / (base + 1)
            } else {
                extra + (i - big) / base
            }
        }
        Partition::Cyclic => i % elements,
        Partition::BlockCyclic { block } => (i / block.max(1)) % elements,
    }
}

/// The list of global-index ranges owned by `element` under the partition.
/// Ranges are returned in increasing order and are pairwise disjoint.
pub fn owned_ranges(
    partition: Partition,
    len: usize,
    elements: usize,
    element: usize,
) -> Vec<Range<usize>> {
    assert!(elements > 0, "elements must be >= 1");
    assert!(
        element < elements,
        "element {element} out of range 0..{elements}"
    );
    match partition {
        Partition::Block => {
            let r = block_owned(len, elements, element);
            if r.is_empty() {
                vec![]
            } else {
                vec![r]
            }
        }
        Partition::Cyclic => (element..len).step_by(elements).map(|i| i..i + 1).collect(),
        Partition::BlockCyclic { block } => {
            crate::schedule::block_cyclic_ranges(len, elements, element, block.max(1)).collect()
        }
    }
}

/// Total number of indices owned by `element`.
pub fn owned_len(partition: Partition, len: usize, elements: usize, element: usize) -> usize {
    owned_ranges(partition, len, elements, element)
        .iter()
        .map(|r| r.len())
        .sum()
}

/// For block partitions of a *stencil* field: the range `element` must read,
/// i.e. its owned block widened by `halo` on each side (clamped to bounds).
/// Used by the halo-exchange update plug.
pub fn block_with_halo(len: usize, elements: usize, element: usize, halo: usize) -> Range<usize> {
    let own = block_owned(len, elements, element);
    if own.is_empty() {
        return own;
    }
    own.start.saturating_sub(halo)..(own.end + halo).min(len)
}

/// What a restore hands `element` of a partitioned field: its owned ranges,
/// or — for a stencil field (`halo > 0`, block partitions) — its owned
/// block widened by the halo. The distributed engine's post-restore
/// scatter ships exactly these ranges; an element installing its share of
/// an in-memory record itself takes the same.
pub fn scatter_ranges(
    partition: Partition,
    len: usize,
    elements: usize,
    element: usize,
    halo: usize,
) -> Vec<Range<usize>> {
    if halo > 0 {
        vec![block_with_halo(len, elements, element, halo)]
    } else {
        owned_ranges(partition, len, elements, element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Partition; 3] = [
        Partition::Block,
        Partition::Cyclic,
        Partition::BlockCyclic { block: 3 },
    ];

    #[test]
    fn owner_matches_owned_ranges() {
        for partition in ALL {
            for len in [0usize, 1, 5, 17, 64] {
                for elements in 1..=6usize {
                    for e in 0..elements {
                        for r in owned_ranges(partition, len, elements, e) {
                            for i in r {
                                assert_eq!(
                                    owner_of(partition, len, elements, i),
                                    e,
                                    "{partition:?} len={len} el={elements} i={i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_with_halo_clamps() {
        assert_eq!(block_with_halo(10, 2, 0, 1), 0..6);
        assert_eq!(block_with_halo(10, 2, 1, 1), 4..10);
        assert_eq!(block_with_halo(10, 1, 0, 3), 0..10);
        assert_eq!(scatter_ranges(Partition::Block, 10, 2, 1, 1), vec![4..10]);
        assert_eq!(
            scatter_ranges(Partition::Cyclic, 5, 2, 1, 0),
            vec![1..2, 3..4]
        );
    }

    #[test]
    fn owned_len_sums_to_total() {
        for partition in ALL {
            let total: usize = (0..5).map(|e| owned_len(partition, 33, 5, e)).sum();
            assert_eq!(total, 33, "{partition:?}");
        }
    }

    #[test]
    fn block_owner_with_remainder() {
        // len=10, elements=3 -> blocks [0..4), [4..7), [7..10)
        let owners: Vec<usize> = (0..10)
            .map(|i| owner_of(Partition::Block, 10, 3, i))
            .collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn block_owner_when_fewer_items_than_elements() {
        for i in 0..3 {
            assert_eq!(owner_of(Partition::Block, 3, 5, i), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn owner_of_rejects_oob() {
        owner_of(Partition::Block, 5, 2, 5);
    }

    proptest! {
        #[test]
        fn prop_partitions_cover_exactly_once(
            len in 0usize..400,
            elements in 1usize..13,
            kind in 0usize..3,
            block in 1usize..7,
        ) {
            let partition = match kind {
                0 => Partition::Block,
                1 => Partition::Cyclic,
                _ => Partition::BlockCyclic { block },
            };
            let mut seen = vec![0u32; len];
            for e in 0..elements {
                for r in owned_ranges(partition, len, elements, e) {
                    for i in r {
                        seen[i] += 1;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }

        #[test]
        fn prop_owner_consistent_with_ranges(
            len in 1usize..300,
            elements in 1usize..9,
            kind in 0usize..3,
            block in 1usize..5,
            i_frac in 0.0f64..1.0,
        ) {
            let partition = match kind {
                0 => Partition::Block,
                1 => Partition::Cyclic,
                _ => Partition::BlockCyclic { block },
            };
            let i = ((len as f64 * i_frac) as usize).min(len - 1);
            let owner = owner_of(partition, len, elements, i);
            prop_assert!(owner < elements);
            let owns = owned_ranges(partition, len, elements, owner)
                .iter()
                .any(|r| r.contains(&i));
            prop_assert!(owns);
        }
    }
}
