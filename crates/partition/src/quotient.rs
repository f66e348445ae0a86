//! The quotient DAG obtained by contracting each subgraph to one vertex.

use crate::partition::Partition;
use cocco_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The contracted graph of a partition: one vertex per subgraph, one edge
/// per pair of subgraphs connected by at least one graph edge.
///
/// Subgraph ids are compacted to `0..num_subgraphs()`; use
/// [`compact_id`](Quotient::compact_id) to translate original ids.
///
/// # Examples
///
/// ```
/// use cocco_partition::{Partition, Quotient};
///
/// let g = cocco_graph::models::chain(3);
/// let p = Partition::from_assignment(vec![0, 0, 1, 1]);
/// let q = Quotient::build(&g, &p);
/// assert_eq!(q.num_subgraphs(), 2);
/// assert!(q.topo_order().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Quotient {
    /// Original subgraph id per compact id, ascending.
    originals: Vec<u32>,
    /// CSR adjacency: the successors of compact id `c` are
    /// `succs[succ_off[c]..succ_off[c + 1]]`, ascending and deduplicated;
    /// `preds`/`pred_off` mirror it for predecessors.
    succ_off: Vec<u32>,
    succs: Vec<u32>,
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    /// Smallest member node per compact id (the topological tie-break).
    min_member: Vec<u32>,
}

/// Renumbers subgraph ids densely, preserving id order: returns the
/// ascending distinct ids and each node's index into them. The ids are
/// sorted and deduplicated, so no allocation is ever sized by the largest
/// id.
pub(crate) fn compact_ids(assignment: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut originals = assignment.to_vec();
    originals.sort_unstable();
    originals.dedup();
    let compact = assignment
        .iter()
        // Every id is in `originals`, so the search always hits.
        .map(|a| originals.binary_search(a).unwrap_or_else(|i| i) as u32)
        .collect();
    (originals, compact)
}

/// Rewrites dense labels into canonical ids: label `order[i]` becomes `i`.
pub(crate) fn relabel_in_order(labels: &mut [u32], order: &[u32]) {
    let mut rank = vec![0u32; order.len()];
    for (i, &c) in order.iter().enumerate() {
        rank[c as usize] = i as u32;
    }
    for l in labels.iter_mut() {
        *l = rank[*l as usize];
    }
}

impl Quotient {
    /// Contracts `partition` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the partition length does not match the graph.
    pub fn build(graph: &Graph, partition: &Partition) -> Self {
        Self::build_compact(graph, partition).0
    }

    /// [`build`](Quotient::build), also returning each node's compact
    /// subgraph id.
    pub(crate) fn build_compact(graph: &Graph, partition: &Partition) -> (Self, Vec<u32>) {
        assert_eq!(
            partition.len(),
            graph.len(),
            "partition does not cover the graph"
        );
        let (originals, compact) = compact_ids(partition.assignment());
        (Self::from_compact(graph, &compact, originals), compact)
    }

    /// Contracts the dense labelling `compact` (node -> `0..originals.len()`,
    /// every label used) whose label `c` stands for subgraph
    /// `originals[c]`.
    pub(crate) fn from_compact(graph: &Graph, compact: &[u32], originals: Vec<u32>) -> Self {
        let k = originals.len();
        let mut min_member = vec![u32::MAX; k];
        // One packed `from << 32 | to` key per cut edge; sorting groups
        // them by source with ascending targets, and dedup drops parallel
        // edges, which leaves the successor CSR in place.
        let mut edges: Vec<u64> = Vec::new();
        for (u, &from) in compact.iter().enumerate() {
            if min_member[from as usize] == u32::MAX {
                min_member[from as usize] = u as u32;
            }
            for &v in graph.consumers(NodeId::from_index(u)) {
                let to = compact[v.index()];
                if from != to {
                    edges.push(u64::from(from) << 32 | u64::from(to));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut succ_off = vec![0u32; k + 1];
        let mut pred_off = vec![0u32; k + 1];
        for &e in &edges {
            succ_off[(e >> 32) as usize + 1] += 1;
            pred_off[(e as u32) as usize + 1] += 1;
        }
        for c in 0..k {
            succ_off[c + 1] += succ_off[c];
            pred_off[c + 1] += pred_off[c];
        }
        let succs = edges.iter().map(|&e| e as u32).collect();
        // Scattering edges in (from, to) order fills each predecessor
        // list in ascending order, so no second sort is needed.
        let mut preds = vec![0u32; edges.len()];
        let mut cursor = pred_off.clone();
        for &e in &edges {
            let to = e as u32 as usize;
            preds[cursor[to] as usize] = (e >> 32) as u32;
            cursor[to] += 1;
        }
        Self {
            originals,
            succ_off,
            succs,
            pred_off,
            preds,
            min_member,
        }
    }

    /// Number of subgraphs (quotient vertices).
    pub fn num_subgraphs(&self) -> usize {
        self.originals.len()
    }

    /// Translates an original subgraph id to its compact id.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not a subgraph id of the partition.
    pub fn compact_id(&self, original: u32) -> u32 {
        self.originals
            .binary_search(&original)
            // cocco-audit: allow(R1) documented panic: the contract requires a subgraph id of this partition
            .expect("unknown subgraph id") as u32
    }

    /// Successor subgraphs of compact id `id`, ascending.
    pub fn succs(&self, id: u32) -> &[u32] {
        let c = id as usize;
        &self.succs[self.succ_off[c] as usize..self.succ_off[c + 1] as usize]
    }

    /// Predecessor subgraphs of compact id `id`, ascending.
    pub fn preds(&self, id: u32) -> &[u32] {
        let c = id as usize;
        &self.preds[self.pred_off[c] as usize..self.pred_off[c + 1] as usize]
    }

    /// Kahn topological order over compact ids (ties broken by smallest
    /// member node, giving a deterministic execution order), or `None` if
    /// the quotient is cyclic.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let k = self.num_subgraphs();
        let mut indegree: Vec<u32> = self.pred_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (id, &d) in indegree.iter().enumerate() {
            if d == 0 {
                heap.push(Reverse((self.min_member[id], id as u32)));
            }
        }
        let mut order = Vec::with_capacity(k);
        while let Some(Reverse((_, id))) = heap.pop() {
            order.push(id);
            for &s in self.succs(id) {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    heap.push(Reverse((self.min_member[s as usize], s)));
                }
            }
        }
        (order.len() == k).then_some(order)
    }

    /// Strongly connected components over compact ids (iterative Tarjan),
    /// in reverse topological order of the condensation.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        let k = self.num_subgraphs();
        let mut index = vec![u32::MAX; k];
        let mut lowlink = vec![0u32; k];
        let mut on_stack = vec![false; k];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        // Explicit DFS: (node, next child position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for start in 0..k as u32 {
            if index[start as usize] != u32::MAX {
                continue;
            }
            call.push((start, 0));
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;
            while let Some(&mut (v, ref mut child)) = call.last_mut() {
                let succs = self.succs(v);
                if *child < succs.len() {
                    let w = succs[*child];
                    *child += 1;
                    if index[w as usize] == u32::MAX {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_quotient_is_a_path() {
        let g = cocco_graph::models::chain(3);
        let p = Partition::from_assignment(vec![0, 0, 1, 2]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.num_subgraphs(), 3);
        assert_eq!(q.topo_order(), Some(vec![0, 1, 2]));
        assert_eq!(q.succs(0), &[1]);
        assert_eq!(q.preds(2), &[1]);
    }

    #[test]
    fn cycle_detected_by_topo_and_scc() {
        let g = cocco_graph::models::diamond(); // input,a,l,r,add
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let q = Quotient::build(&g, &p);
        assert!(q.topo_order().is_none());
        let sccs = q.sccs();
        // {0, 1} form one SCC.
        assert!(sccs.iter().any(|s| s == &[0, 1]));
    }

    #[test]
    fn sccs_of_dag_are_singletons() {
        let g = cocco_graph::models::googlenet();
        let p = Partition::depth_groups(&g, 4);
        let q = Quotient::build(&g, &p);
        let sccs = q.sccs();
        assert_eq!(sccs.len(), q.num_subgraphs());
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn sparse_ids_are_compacted() {
        let g = cocco_graph::models::chain(2);
        let p = Partition::from_assignment(vec![10, 10, 99]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.num_subgraphs(), 2);
        assert_eq!(q.compact_id(10), 0);
        assert_eq!(q.compact_id(99), 1);
        // Ids near the top of the range compact without an id-sized table.
        let p = Partition::from_assignment(vec![u32::MAX - 1, 7, 7]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.num_subgraphs(), 2);
        assert_eq!(q.compact_id(7), 0);
        assert_eq!(q.compact_id(u32::MAX - 1), 1);
        assert_eq!(q.succs(1), &[0]);
        assert_eq!(q.preds(0), &[1]);
    }

    #[test]
    fn topo_tie_break_is_deterministic() {
        // Two independent branches: order must follow smallest member id.
        let g = cocco_graph::models::diamond();
        let p = Partition::from_assignment(vec![0, 0, 1, 2, 3]);
        let q = Quotient::build(&g, &p);
        let order = q.topo_order().unwrap();
        assert_eq!(order[0], 0);
        // l (node 2) before r (node 3).
        assert_eq!(order[1], q.compact_id(1));
        assert_eq!(order[2], q.compact_id(2));
    }
}
