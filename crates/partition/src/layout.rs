//! Flat, arena-backed partition layouts — the data-oriented view the
//! evaluation hot path consumes.
//!
//! [`Partition::subgraphs`] materializes a `Vec<Vec<NodeId>>` per call:
//! one heap allocation per subgraph plus the outer vector, repeated for
//! every candidate of every generation. [`PartitionLayout`] is the same
//! information in two contiguous buffers — one flat member array plus an
//! offsets array — and [`LayoutArena`] builds it with a counting sort
//! into reusable storage, so a warmed arena materializes a partition's
//! member lists without touching the allocator at all.
//!
//! The layout reproduces [`Partition::subgraphs`]' order **exactly**:
//! subgraphs appear in ascending (sparse) id order with empty ids
//! skipped, and members within a subgraph ascend (topological order).
//! Everything downstream — fingerprinting, cache keys, the per-subgraph
//! fold — consumes the layout, so its results match the evaluator's
//! nested-vector oracle (`Evaluator::eval_partition` over
//! [`Partition::subgraphs`]) bit for bit.

use crate::partition::Partition;
use crate::quotient::compact_ids;
use cocco_graph::NodeId;

/// A flat view of one partition's member lists: a contiguous `NodeId`
/// buffer plus an offsets array (`offsets[i]..offsets[i + 1]` delimits
/// subgraph `i`). Subgraph order and member order match
/// [`Partition::subgraphs`] exactly.
///
/// # Examples
///
/// ```
/// use cocco_partition::{LayoutArena, Partition};
///
/// let p = Partition::from_assignment(vec![9, 2, 2, 9]);
/// let mut arena = LayoutArena::new();
/// let layout = arena.build_from_partition(&p);
/// assert_eq!(layout.num_subgraphs(), 2);
/// assert_eq!(layout.to_nested(), p.subgraphs());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartitionLayout<'a> {
    members: &'a [NodeId],
    offsets: &'a [u32],
}

impl<'a> PartitionLayout<'a> {
    /// Wraps raw layout buffers. `offsets` must be ascending, start at 0
    /// (when non-empty) and end at `members.len()`; debug builds assert
    /// this, release builds trust the (arena) builder.
    pub fn from_raw(members: &'a [NodeId], offsets: &'a [u32]) -> Self {
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        debug_assert!(
            offsets.first().is_none_or(|&o| o == 0),
            "offsets start at 0"
        );
        debug_assert!(
            offsets.last().is_none_or(|&o| o as usize == members.len()),
            "offsets cover the member buffer"
        );
        Self { members, offsets }
    }

    /// Number of subgraphs.
    pub fn num_subgraphs(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of member nodes across all subgraphs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the layout covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members of subgraph `i` — a slice into the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn subgraph(&self, i: usize) -> &'a [NodeId] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates subgraph member slices in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [NodeId]> + '_ {
        (0..self.num_subgraphs()).map(|i| self.subgraph(i))
    }

    /// The flat member buffer (subgraphs concatenated in order).
    pub fn members(&self) -> &'a [NodeId] {
        self.members
    }

    /// Converts back to the nested reference representation.
    pub fn to_nested(&self) -> Vec<Vec<NodeId>> {
        self.iter().map(<[NodeId]>::to_vec).collect()
    }
}

/// Reusable storage for [`PartitionLayout`]s: a bump-style arena whose
/// buffers are cleared (capacity kept) between builds and grown
/// monotonically, so a warmed arena materializes layouts with **zero**
/// heap allocations.
///
/// The builder is a counting sort over the assignment — one pass to
/// count members per (sparse) subgraph id, a prefix sum for the offsets,
/// one pass to scatter node ids — reproducing [`Partition::subgraphs`]'
/// subgraph order and ascending member order exactly.
#[derive(Debug, Default)]
pub struct LayoutArena {
    members: Vec<NodeId>,
    offsets: Vec<u32>,
    /// Counting-sort scratch: per sparse subgraph id, the member count,
    /// then (after the prefix pass) the id's write cursor.
    counts: Vec<u32>,
    builds: u64,
    grows: u64,
}

impl LayoutArena {
    /// An empty arena (first builds grow it to the working-set size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the build buffers, keeping capacity, and counts whether
    /// this build will have to grow any of them.
    fn begin(&mut self, members_needed: usize, offsets_needed: usize, counts_needed: usize) {
        self.builds += 1;
        if self.members.capacity() < members_needed
            || self.offsets.capacity() < offsets_needed
            || self.counts.capacity() < counts_needed
        {
            self.grows += 1;
        }
        self.members.clear();
        self.offsets.clear();
    }

    /// Builds the layout of `partition` into the arena, returning a view
    /// valid until the next build. Alloc-free once the arena has grown
    /// to the partition's size.
    ///
    /// The counting table is indexed by subgraph id, so it is sized by the
    /// largest id. A canonical partition has every id below the node
    /// count; a partition with a larger id is counted over its compacted
    /// ids instead, so no table is ever larger than the node count.
    pub fn build_from_partition(&mut self, partition: &Partition) -> PartitionLayout<'_> {
        let assignment = partition.assignment();
        let n = assignment.len();
        let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
        if max >= n {
            let (_, compact) = compact_ids(assignment);
            return self.build_dense(&compact);
        }
        self.build_dense(assignment)
    }

    /// The counting sort over labels all below `assignment.len()` (or an
    /// empty assignment).
    fn build_dense(&mut self, assignment: &[u32]) -> PartitionLayout<'_> {
        let n = assignment.len();
        let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
        self.begin(n, max + 2, max + 1);
        self.counts.clear();
        self.counts.resize(max + 1, 0);
        for &a in assignment {
            self.counts[a as usize] += 1;
        }
        // Prefix pass: non-empty ids (in ascending id order, matching
        // `Partition::subgraphs`) get their start cursor; each one closes
        // the previous subgraph's offset.
        self.offsets.push(0);
        let mut total = 0u32;
        for c in self.counts.iter_mut() {
            if *c > 0 {
                let k = *c;
                *c = total;
                total += k;
                self.offsets.push(total);
            }
        }
        // Scatter pass: nodes iterate ascending, so each subgraph's run
        // fills in ascending member order.
        self.members.resize(n, NodeId::from_index(0));
        for (i, &a) in assignment.iter().enumerate() {
            let slot = self.counts[a as usize];
            self.counts[a as usize] = slot + 1;
            self.members[slot as usize] = NodeId::from_index(i);
        }
        self.layout()
    }

    /// The most recently built layout (empty before the first build).
    pub fn layout(&self) -> PartitionLayout<'_> {
        PartitionLayout::from_raw(&self.members, &self.offsets)
    }

    /// Bytes of heap capacity currently owned by the arena's buffers.
    pub fn bytes(&self) -> u64 {
        (self.members.capacity() * std::mem::size_of::<NodeId>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Builds served entirely from existing capacity (the warmed,
    /// zero-allocation steady state).
    pub fn reuses(&self) -> u64 {
        self.builds - self.grows
    }

    /// Builds that had to grow at least one buffer.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Total builds performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_subgraphs_order_exactly() {
        for assignment in [
            vec![0u32, 0, 1, 1, 2],
            vec![9, 2, 2, 9, 4],
            vec![3, 3, 3, 3],
            vec![5, 0, 5, 0, 7, 1],
            vec![0],
            // An id far above the node count: built over compacted ids.
            vec![0, u32::MAX - 1, u32::MAX - 1, 3],
        ] {
            let p = Partition::from_assignment(assignment.clone());
            let mut arena = LayoutArena::new();
            let layout = arena.build_from_partition(&p);
            assert_eq!(layout.to_nested(), p.subgraphs(), "{assignment:?}");
            assert_eq!(layout.len(), p.len());
            // Members ascend within every subgraph.
            for sub in layout.iter() {
                assert!(sub.windows(2).all(|w| w[0] < w[1]));
            }
            // No buffer is sized by the largest id.
            assert!(arena.bytes() < 1024, "{assignment:?}: {} B", arena.bytes());
        }
    }

    #[test]
    fn models_round_trip_through_the_arena() {
        for name in ["googlenet", "resnet50", "randwire-a"] {
            let g = cocco_graph::models::by_name(name).unwrap();
            let mut arena = LayoutArena::new();
            for l in [1usize, 3, 7] {
                let p = Partition::depth_groups(&g, l);
                let nested = p.subgraphs();
                assert_eq!(arena.build_from_partition(&p).to_nested(), nested);
            }
        }
    }

    #[test]
    fn warmed_arena_reuses_capacity() {
        let g = cocco_graph::models::googlenet();
        let p = Partition::depth_groups(&g, 3);
        let mut arena = LayoutArena::new();
        arena.build_from_partition(&p);
        let grows_after_warmup = arena.grows();
        assert!(grows_after_warmup >= 1, "first build must grow");
        for _ in 0..10 {
            arena.build_from_partition(&p);
        }
        assert_eq!(
            arena.grows(),
            grows_after_warmup,
            "warmed builds must not grow"
        );
        assert_eq!(arena.reuses(), 10);
        assert_eq!(arena.builds(), 11);
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn empty_and_singleton_layouts() {
        let mut arena = LayoutArena::new();
        assert_eq!(arena.layout().num_subgraphs(), 0, "nothing built yet");
        let layout = arena.build_from_partition(&Partition::from_assignment(vec![]));
        assert_eq!(layout.num_subgraphs(), 0);
        assert!(layout.is_empty());
        let p = Partition::singletons(3);
        let layout = arena.build_from_partition(&p);
        assert_eq!(layout.num_subgraphs(), 3);
        assert!(layout.iter().all(|members| !members.is_empty()));
        assert_eq!(layout.subgraph(1), &[NodeId::from_index(1)]);
    }

    #[test]
    fn views_agree_across_representations() {
        let p = Partition::from_assignment(vec![1, 1, 4, 4, 2]);
        let nested = p.subgraphs();
        let mut arena = LayoutArena::new();
        let layout = arena.build_from_partition(&p);
        assert_eq!(layout.num_subgraphs(), nested.len());
        for (i, members) in nested.iter().enumerate() {
            assert_eq!(layout.subgraph(i), members.as_slice());
        }
        assert_eq!(layout.members(), nested.concat().as_slice());
    }
}
