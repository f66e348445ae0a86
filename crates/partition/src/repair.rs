//! Validity repair: connectivity splits, SCC merges and in-situ capacity
//! splits (paper §4.4.4).
//!
//! Every entry point ([`repair`], [`repair_connectivity`],
//! [`split_oversized`] and their `*_with_delta` forms) runs one pipeline
//! over every subgraph of any input assignment:
//!
//! - **Connectivity.** Each pass splits subgraphs into weakly-connected
//!   components and builds one flat quotient. When its Kahn order is
//!   complete, that order is the canonical execution order; otherwise
//!   each quotient SCC is merged and the next pass re-splits only the
//!   merged subgraphs.
//! - **Capacity.** Every multi-node subgraph is probed against `fits`
//!   once; a failing one is halved along its topological member order,
//!   and each half's components go back on a worklist, with no further
//!   whole-graph pass.
//!
//! The repair records, into a [`PartitionDelta`], every node whose
//! subgraph *member set* it changed — the change record the incremental
//! evaluation path uses to re-score only touched subgraphs. The delta is
//! output only: nodes the caller already marked stay marked, and no
//! subgraph is skipped because it is clean. Renumbering alone
//! (canonicalization) emits no dirt: node-level deltas survive id
//! remapping by construction.

use crate::delta::PartitionDelta;
use crate::partition::Partition;
use crate::quotient::{compact_ids, relabel_in_order, Quotient};
use cocco_graph::{Graph, NodeId};

/// Restores connectivity and acyclicity after arbitrary assignment edits:
///
/// 1. split every subgraph into its weakly-connected components;
/// 2. merge each quotient SCC into one subgraph — the SCC's members are
///    mutually reachable through each other's edges, so the merged subgraph
///    stays connected while the quotient becomes acyclic;
/// 3. canonicalize ids into execution order.
///
/// The result always satisfies [`Partition::validate`].
///
/// # Examples
///
/// ```
/// use cocco_partition::{repair_connectivity, Partition};
///
/// let g = cocco_graph::models::diamond();
/// // Invalid: quotient cycle between subgraphs 0 and 1.
/// let broken = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
/// let fixed = repair_connectivity(&g, broken);
/// assert!(fixed.validate(&g).is_ok());
/// ```
pub fn repair_connectivity(graph: &Graph, partition: Partition) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    repair_connectivity_with_delta(graph, partition, &mut delta)
}

/// [`repair_connectivity`], recording every membership change into `delta`.
pub fn repair_connectivity_with_delta(
    graph: &Graph,
    partition: Partition,
    delta: &mut PartitionDelta,
) -> Partition {
    let (mut labels, _, order) = connect(graph, &partition, delta);
    relabel_in_order(&mut labels, &order);
    Partition::from_assignment(labels)
}

/// Splits every subgraph whose footprint check fails, using the paper's
/// in-situ `split-subgraph`: the subgraph is halved along the topological
/// order (never creating quotient cycles), each half is split into its
/// components, and the process repeats until every subgraph fits or is a
/// single node.
///
/// `fits` receives the (ascending) member list of one subgraph. On a valid
/// partition only the capacity splits change anything; an invalid one is
/// first repaired for connectivity, which makes this [`repair`].
pub fn split_oversized(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    split_oversized_with_delta(graph, partition, fits, &mut delta)
}

/// [`split_oversized`], recording every membership change into `delta`.
pub fn split_oversized_with_delta(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
) -> Partition {
    repair_with_delta(graph, partition, fits, delta)
}

/// Full repair pipeline: connectivity + acyclicity, then capacity splits.
/// The result is valid and every multi-node subgraph satisfies `fits`.
pub fn repair(graph: &Graph, partition: Partition, fits: &dyn Fn(&[NodeId]) -> bool) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    repair_with_delta(graph, partition, fits, &mut delta)
}

/// [`repair`], recording every membership change into `delta`. A node the
/// pipeline never moves between member sets stays clean, so a subgraph
/// with no dirty node is guaranteed to be the same member set the caller
/// had before repair.
pub fn repair_with_delta(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
) -> Partition {
    let (mut labels, k, order) = connect(graph, &partition, delta);
    if split_oversized_pieces(graph, &mut labels, k, fits, delta) {
        // Halving leaves sparse labels and no order: canonicalize once.
        let mut repaired = Partition::from_assignment(labels);
        let acyclic = repaired.canonicalize(graph);
        debug_assert!(acyclic, "capacity splits left a cyclic quotient");
        return repaired;
    }
    relabel_in_order(&mut labels, &order);
    Partition::from_assignment(labels)
}

/// Splits every subgraph into components and merges quotient SCCs until
/// the quotient is acyclic. Returns dense labels `0..k` per node and the
/// canonical execution order of those labels.
///
/// One quotient is built per pass. When Kahn's order is complete it is
/// the canonical order, so no further build is needed; otherwise Tarjan
/// finds the SCCs, each SCC is merged, and the next pass re-splits only
/// the merged subgraphs.
fn connect(
    graph: &Graph,
    partition: &Partition,
    delta: &mut PartitionDelta,
) -> (Vec<u32>, usize, Vec<u32>) {
    debug_assert_eq!(partition.len(), graph.len());
    let (originals, mut labels) = compact_ids(partition.assignment());
    let mut k = originals.len();
    let mut resplit = vec![true; k];
    loop {
        k = split_components(graph, &mut labels, k, &resplit, delta);
        let quotient = Quotient::from_compact(graph, &labels, (0..k as u32).collect());
        if let Some(order) = quotient.topo_order() {
            return (labels, k, order);
        }
        resplit = merge_sccs(&quotient, &mut labels, delta);
        k = resplit.len();
    }
}

/// Splits every subgraph of the dense labelling `labels` (`0..k`) that
/// `resplit` flags into weakly-connected components, marking the members
/// of every subgraph that actually split. The first piece of a subgraph keeps its
/// label and further pieces take labels `k..`; returns the new count.
fn split_components(
    graph: &Graph,
    labels: &mut [u32],
    k: usize,
    resplit: &[bool],
    delta: &mut PartitionDelta,
) -> usize {
    // Flood each component to a temporary label `k + j`, so a node still
    // carrying a flagged label below `k` is unvisited; `target[j]` is
    // the piece's final label and `origin[j]` the subgraph it came from.
    let mut pieces = vec![0u32; k];
    let mut origin: Vec<u32> = Vec::new();
    let mut target: Vec<u32> = Vec::new();
    let mut next = k as u32;
    let mut queue = Vec::new();
    for i in 0..labels.len() {
        let s = labels[i];
        if s as usize >= k || !resplit[s as usize] {
            continue;
        }
        pieces[s as usize] += 1;
        target.push(if pieces[s as usize] == 1 {
            s
        } else {
            next += 1;
            next - 1
        });
        let temp = (k + origin.len()) as u32;
        origin.push(s);
        queue.clear();
        flood(graph, labels, NodeId::from_index(i), s, temp, &mut queue);
    }
    for (i, l) in labels.iter_mut().enumerate() {
        if let Some(j) = (*l as usize).checked_sub(k) {
            if pieces[origin[j] as usize] > 1 {
                delta.touch(NodeId::from_index(i));
            }
            *l = target[j];
        }
    }
    next as usize
}

/// Merges every quotient SCC into one subgraph, marking the members of
/// every non-trivial one. Relabels `labels` densely (one label per SCC)
/// and returns, per new label, whether it merged several subgraphs.
fn merge_sccs(quotient: &Quotient, labels: &mut [u32], delta: &mut PartitionDelta) -> Vec<bool> {
    let sccs = quotient.sccs();
    let mut scc_of = vec![0u32; quotient.num_subgraphs()];
    for (s, scc) in sccs.iter().enumerate() {
        for &c in scc {
            scc_of[c as usize] = s as u32;
        }
    }
    let merged: Vec<bool> = sccs.iter().map(|scc| scc.len() > 1).collect();
    for (i, l) in labels.iter_mut().enumerate() {
        *l = scc_of[*l as usize];
        if merged[*l as usize] {
            delta.touch(NodeId::from_index(i));
        }
    }
    merged
}

/// Capacity phase over the dense labelling `labels` (`0..k`, acyclic
/// quotient): probes `fits` once on every multi-node subgraph and on every
/// piece a halving produces. A failing member set is marked dirty, halved
/// along the ascending (topological) member order, each half is split into
/// its components, and every piece goes back on the worklist.
///
/// No pass re-checks acyclicity: all edges inside a halved subgraph run
/// from its first half to its second, and the components of one half share
/// no edge, so a quotient cycle through the pieces would contract to a
/// cycle of the acyclic input quotient.
///
/// Returns whether anything was halved (the labels are then sparse).
fn split_oversized_pieces(
    graph: &Graph,
    labels: &mut [u32],
    k: usize,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
) -> bool {
    // `pool` holds every member list probed: first each subgraph's
    // ascending members (a counting sort by label), then the pieces
    // halvings produce, appended. Worklist entries are ranges into it.
    let mut start = vec![0usize; k + 1];
    for &l in labels.iter() {
        start[l as usize + 1] += 1;
    }
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut pool = vec![NodeId::from_index(0); labels.len()];
    let mut cursor = start.clone();
    for (i, &l) in labels.iter().enumerate() {
        pool[cursor[l as usize]] = NodeId::from_index(i);
        cursor[l as usize] += 1;
    }
    let mut work: Vec<(usize, usize)> = (0..k)
        .map(|c| (start[c], start[c + 1]))
        .filter(|&(lo, hi)| hi - lo > 1 && !fits(&pool[lo..hi]))
        .collect();
    if work.is_empty() {
        return false;
    }
    let mut next = k as u32;
    while let Some((lo, hi)) = work.pop() {
        delta.touch_members(&pool[lo..hi]);
        let mid = lo + (hi - lo) / 2;
        for (a, b) in [(lo, mid), (mid, hi)] {
            let half = next;
            next += 1;
            for &m in &pool[a..b] {
                labels[m.index()] = half;
            }
            for at in a..b {
                let m = pool[at];
                if labels[m.index()] != half {
                    continue;
                }
                let piece_start = pool.len();
                flood(graph, labels, m, half, next, &mut pool);
                next += 1;
                let piece = if pool.len() - piece_start == b - a {
                    // The half is connected: it is its own piece.
                    pool.truncate(piece_start);
                    (a, b)
                } else {
                    pool[piece_start..].sort_unstable();
                    (piece_start, pool.len())
                };
                if piece.1 - piece.0 > 1 && !fits(&pool[piece.0..piece.1]) {
                    work.push(piece);
                }
            }
        }
    }
    true
}

/// Relabels the weakly-connected component of `start` among the nodes
/// labelled `from` to `to`, appending its nodes to `visited` in visit order.
fn flood(
    graph: &Graph,
    labels: &mut [u32],
    start: NodeId,
    from: u32,
    to: u32,
    visited: &mut Vec<NodeId>,
) {
    labels[start.index()] = to;
    let mut at = visited.len();
    visited.push(start);
    while at < visited.len() {
        let u = visited[at];
        at += 1;
        for &v in graph.producers(u).iter().chain(graph.consumers(u)) {
            if labels[v.index()] == from {
                labels[v.index()] = to;
                visited.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn repairs_random_assignments() {
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let k = rng.gen_range(1..=20u32);
            let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
            let p = repair_connectivity(&g, Partition::from_assignment(assignment));
            assert!(p.validate(&g).is_ok());
        }
    }

    #[test]
    fn valid_partitions_pass_through_stably() {
        let g = cocco_graph::models::chain(5);
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let repaired = repair_connectivity(&g, p.clone());
        assert_eq!(repaired, p);
    }

    #[test]
    fn scc_merge_preserves_connectivity() {
        let g = cocco_graph::models::diamond();
        // Cycle: {input,a,l,add} vs {r}.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let fixed = repair_connectivity(&g, p);
        assert!(fixed.validate(&g).is_ok());
        // The cycle can only be fixed by merging: one subgraph remains.
        assert_eq!(fixed.num_subgraphs(), 1);
    }

    #[test]
    fn oversized_split_terminates_at_singletons() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Nothing fits: must end fully split.
        let fixed = split_oversized(&g, p, &|_| false);
        assert!(fixed.validate(&g).is_ok());
        assert_eq!(fixed.num_subgraphs(), g.len());
    }

    #[test]
    fn oversized_split_respects_fitting_subgraphs() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Subgraphs of <= 3 nodes "fit".
        let fixed = split_oversized(&g, p, &|m| m.len() <= 3);
        assert!(fixed.validate(&g).is_ok());
        assert!(fixed.subgraphs().iter().all(|m| m.len() <= 3));
        // Should not have split all the way down.
        assert!(fixed.num_subgraphs() < g.len());
    }

    #[test]
    fn clean_pass_through_emits_no_dirt() {
        let g = cocco_graph::models::chain(5);
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let mut delta = PartitionDelta::clean(g.len());
        let repaired = repair_with_delta(&g, p.clone(), &|_| true, &mut delta);
        assert_eq!(repaired, p);
        assert!(delta.is_clean(), "a no-op repair must not invalidate reuse");
    }

    #[test]
    fn scc_merge_marks_merged_members() {
        let g = cocco_graph::models::diamond();
        // Cycle: {input,a,l,add} vs {r} — repair merges everything.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let mut delta = PartitionDelta::clean(g.len());
        let fixed = repair_connectivity_with_delta(&g, p, &mut delta);
        assert_eq!(fixed.num_subgraphs(), 1);
        assert!(
            delta.is_all(),
            "every node's subgraph membership changed in the merge"
        );
    }

    #[test]
    fn capacity_split_marks_only_the_halved_subgraph() {
        let g = cocco_graph::models::chain(7); // 8 nodes
        let p = Partition::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let mut delta = PartitionDelta::clean(g.len());
        // Only the second subgraph is "too big".
        let first = cocco_graph::NodeId::from_index(0);
        let fixed =
            split_oversized_with_delta(&g, p, &|m| m.len() <= 2 || m.contains(&first), &mut delta);
        assert!(fixed.validate(&g).is_ok());
        for i in 0..4 {
            assert!(
                !delta.is_dirty(cocco_graph::NodeId::from_index(i)),
                "untouched subgraph must stay clean (node {i})"
            );
        }
        for i in 4..8 {
            assert!(
                delta.is_dirty(cocco_graph::NodeId::from_index(i)),
                "halved subgraph must be marked (node {i})"
            );
        }
    }

    #[test]
    fn untouched_subgraphs_keep_their_member_sets() {
        // The reuse invariant: after repair, any subgraph with no dirty
        // node has a member set that already existed before the repair.
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let k = rng.gen_range(1..=16u32);
            let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
            let before = Partition::from_assignment(assignment);
            let old_sets: std::collections::HashSet<Vec<cocco_graph::NodeId>> =
                before.subgraphs().into_iter().collect();
            let mut delta = PartitionDelta::clean(g.len());
            let after = repair_with_delta(&g, before, &|m| m.len() <= 6, &mut delta);
            let dirty = delta.dirty_subgraphs(&after);
            for (members, dirty) in after.subgraphs().into_iter().zip(dirty) {
                if !dirty {
                    assert!(
                        old_sets.contains(&members),
                        "clean subgraph {members:?} did not exist before repair"
                    );
                }
            }
        }
    }

    #[test]
    fn full_repair_on_random_nasnet_assignments() {
        let g = cocco_graph::models::randwire_a();
        let mut rng = StdRng::seed_from_u64(11);
        let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..12)).collect();
        let fixed = repair(&g, Partition::from_assignment(assignment), &|m| {
            m.len() <= 10
        });
        assert!(fixed.validate(&g).is_ok());
        assert!(fixed.subgraphs().iter().all(|m| m.len() <= 10));
    }
}
