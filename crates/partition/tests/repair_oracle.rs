//! Oracle tests for validity repair. The production repair must return
//! the same partition and the same delta as the round-based reference it
//! replaced, kept verbatim below, over seeded edit walks on every registry
//! model.

use cocco_graph::{Graph, NodeId};
use cocco_partition::{
    repair_connectivity_with_delta, repair_with_delta, Partition, PartitionDelta, Quotient,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The repair pipeline as it stood before the one-pass repair: whole-graph
/// union-find splits, one quotient for the SCC pass and another for
/// canonicalization, and a full connectivity pass after every round of
/// capacity halvings.
mod reference {
    use cocco_graph::{Graph, NodeId};
    use cocco_partition::{Partition, PartitionDelta, Quotient};

    /// The round-based connectivity repair: split every subgraph into
    /// components, merge quotient SCCs, repeat until nothing merges.
    pub fn repair_connectivity_with_delta(
        graph: &Graph,
        mut partition: Partition,
        delta: &mut PartitionDelta,
    ) -> Partition {
        debug_assert_eq!(partition.len(), graph.len());
        for _ in 0..graph.len().max(4) {
            split_components(graph, &mut partition, delta);
            let merged = merge_sccs(graph, &mut partition, delta);
            if !merged {
                break;
            }
        }
        let ok = partition.canonicalize(graph);
        debug_assert!(ok, "repair_connectivity left a cyclic quotient");
        partition
    }

    /// The round-based capacity repair: halve every failing subgraph, then
    /// re-run the whole connectivity repair, until a round halves nothing.
    pub fn split_oversized_with_delta(
        graph: &Graph,
        mut partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
    ) -> Partition {
        loop {
            let mut changed = false;
            let mut next = partition.fresh_id();
            for members in partition.subgraphs() {
                if members.len() <= 1 || fits(&members) {
                    continue;
                }
                // Halve along the topological order: members are ascending, so
                // all internal edges flow first-half -> second-half.
                delta.touch_members(&members);
                let mid = members.len() / 2;
                for &m in &members[mid..] {
                    partition.assign(m, next);
                }
                next += 1;
                changed = true;
            }
            if !changed {
                break;
            }
            // Halving may disconnect pieces; restore validity before retrying.
            partition = repair_connectivity_with_delta(graph, partition, delta);
        }
        partition
    }

    /// Connectivity repair, then capacity repair.
    pub fn repair_with_delta(
        graph: &Graph,
        partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
    ) -> Partition {
        let partition = repair_connectivity_with_delta(graph, partition, delta);
        split_oversized_with_delta(graph, partition, fits, delta)
    }

    /// Splits each subgraph into weakly-connected components (in place),
    /// marking the members of every subgraph that actually split.
    fn split_components(graph: &Graph, partition: &mut Partition, delta: &mut PartitionDelta) {
        let n = graph.len();
        // Union-find over nodes, unioning only edges internal to a subgraph.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for id in graph.node_ids() {
            for &c in graph.consumers(id) {
                if partition.subgraph_of(id) == partition.subgraph_of(c) {
                    let (a, b) = (
                        find(&mut parent, id.index() as u32),
                        find(&mut parent, c.index() as u32),
                    );
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        // Each (old subgraph, component root) pair becomes its own subgraph.
        let olds: Vec<u32> = (0..n)
            .map(|i| partition.subgraph_of(NodeId::from_index(i)))
            .collect();
        let roots: Vec<u32> = (0..n).map(|i| find(&mut parent, i as u32)).collect();
        let mut fresh = partition.fresh_id();
        let mut remap: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        let mut components_of: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for i in 0..n {
            let id = *remap.entry((olds[i], roots[i])).or_insert_with(|| {
                let id = fresh;
                fresh += 1;
                *components_of.entry(olds[i]).or_insert(0) += 1;
                id
            });
            partition.assign(NodeId::from_index(i), id);
        }
        // A subgraph that stayed in one piece kept its member set (only its id
        // changed); one that split changed every piece's membership.
        for (i, old) in olds.iter().enumerate() {
            if components_of.get(old).copied().unwrap_or(0) > 1 {
                delta.touch(NodeId::from_index(i));
            }
        }
    }

    /// Merges every non-trivial quotient SCC into a single subgraph, marking
    /// the members of every merged subgraph; returns whether anything changed.
    fn merge_sccs(graph: &Graph, partition: &mut Partition, delta: &mut PartitionDelta) -> bool {
        let quotient = Quotient::build(graph, partition);
        let sccs = quotient.sccs();
        if sccs.iter().all(|s| s.len() == 1) {
            return false;
        }
        // Map compact id -> SCC representative (first member) and SCC size.
        let mut rep = vec![0u32; quotient.num_subgraphs()];
        let mut scc_len = vec![0usize; quotient.num_subgraphs()];
        for scc in &sccs {
            for &m in scc {
                rep[m as usize] = scc[0];
                scc_len[m as usize] = scc.len();
            }
        }
        for i in 0..partition.len() {
            let node = NodeId::from_index(i);
            let compact = quotient.compact_id(partition.subgraph_of(node));
            if scc_len[compact as usize] > 1 {
                delta.touch(node);
            }
            partition.assign(node, rep[compact as usize]);
        }
        true
    }
}

/// A `fits` stand-in with a per-node weight, so whether a member set fits
/// depends on which nodes it holds, not only on how many.
fn fits_under(cap: u32) -> impl Fn(&[NodeId]) -> bool {
    move |members| {
        members
            .iter()
            .map(|m| m.index() as u32 % 5 + 1)
            .sum::<u32>()
            <= cap
    }
}

fn random_assignment(g: &Graph, rng: &mut StdRng) -> Partition {
    let k = rng.gen_range(1..=16u32);
    Partition::from_assignment((0..g.len()).map(|_| rng.gen_range(0..k)).collect())
}

/// One random edit in the style of the GA operators, marking into
/// `delta` every member of every subgraph whose member set changed.
fn random_edit(g: &Graph, p: &mut Partition, delta: &mut PartitionDelta, rng: &mut StdRng) {
    match rng.gen_range(0..4u32) {
        0 => {
            // modify-node: move one node to a neighbouring or fresh subgraph.
            let node = NodeId::from_index(rng.gen_range(0..g.len()));
            let mut candidates: Vec<u32> = g
                .producers(node)
                .iter()
                .chain(g.consumers(node).iter())
                .map(|&v| p.subgraph_of(v))
                .filter(|&sg| sg != p.subgraph_of(node))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            candidates.push(p.fresh_id());
            let target = candidates[rng.gen_range(0..candidates.len())];
            delta.touch_subgraph(p, p.subgraph_of(node));
            delta.touch_subgraph(p, target);
            delta.touch(node);
            p.assign(node, target);
        }
        1 => {
            // split: cut one subgraph at a random topological point.
            let groups = p.subgraphs();
            let splittable: Vec<_> = groups.iter().filter(|m| m.len() >= 2).collect();
            if !splittable.is_empty() {
                let group = splittable[rng.gen_range(0..splittable.len())];
                let cut = rng.gen_range(1..group.len());
                let fresh = p.fresh_id();
                delta.touch_members(group);
                for &m in &group[cut..] {
                    p.assign(m, fresh);
                }
            }
        }
        2 => {
            // merge: join the two ends of a random quotient edge.
            let quotient = Quotient::build(g, p);
            let groups = p.subgraphs();
            let edges: Vec<(u32, u32)> = (0..quotient.num_subgraphs() as u32)
                .flat_map(|a| quotient.succs(a).iter().map(move |&b| (a, b)))
                .collect();
            if !edges.is_empty() {
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                let target = p.subgraph_of(groups[a as usize][0]);
                delta.touch_members(&groups[a as usize]);
                delta.touch_members(&groups[b as usize]);
                for &m in &groups[b as usize] {
                    p.assign(m, target);
                }
            }
        }
        _ => regroup(g, p, delta, rng),
    }
}

/// Crossover-style regroup (paper Fig. 9b): rebuild `p` from whole
/// subgraphs of itself and of a second repaired partition, then mark every
/// resulting subgraph that is not one of `p`'s member sets.
fn regroup(g: &Graph, p: &mut Partition, delta: &mut PartitionDelta, rng: &mut StdRng) {
    let other = cocco_partition::repair(g, random_assignment(g, rng), &|_| true);
    let members_of = |q: &Partition| {
        let mut m: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, &a) in q.assignment().iter().enumerate() {
            m.entry(a).or_default().push(i);
        }
        m
    };
    let parents = [(&*p, members_of(p)), (&other, members_of(&other))];
    const UNDECIDED: u32 = u32::MAX;
    let mut child = vec![UNDECIDED; g.len()];
    let mut next_id = 0u32;
    for v in 0..g.len() {
        if child[v] != UNDECIDED {
            continue;
        }
        let (parent, members) = &parents[rng.gen_range(0..2usize)];
        let group = &members[&parent.subgraph_of(NodeId::from_index(v))];
        let decided: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&u| child[u] != UNDECIDED)
            .collect();
        let id = if decided.is_empty() || rng.gen_bool(0.5) {
            next_id += 1;
            next_id - 1
        } else {
            child[decided[rng.gen_range(0..decided.len())]]
        };
        for &u in group {
            if child[u] == UNDECIDED {
                child[u] = id;
            }
        }
    }
    let before: BTreeSet<Vec<NodeId>> = p.subgraphs().into_iter().collect();
    let child = Partition::from_assignment(child);
    for members in child.subgraphs() {
        if !before.contains(&members) {
            delta.touch_members(&members);
        }
    }
    *p = child;
}

/// Every member of subgraph `subgraph` made clean again: the planted
/// emitter bug of the negative control.
fn forget_subgraph(p: &Partition, delta: &PartitionDelta, subgraph: u32) -> PartitionDelta {
    let mut lie = PartitionDelta::clean(p.len());
    for (i, &a) in p.assignment().iter().enumerate() {
        let node = NodeId::from_index(i);
        if a != subgraph && delta.is_dirty(node) {
            lie.touch(node);
        }
    }
    lie
}

/// Walks `steps` repairs on `g`: each step applies 1-3 random edits to
/// the last repaired partition and repairs the result with the production
/// repair and with the reference, asserting identical partitions and
/// deltas. It also asserts the reuse invariant incremental evaluation
/// rests on: every repaired subgraph with no dirty node is a member set of
/// the partition the step started from. With `plant_bug`, one edited
/// subgraph per step is wrongly left clean in the delta; the walk then
/// counts the steps that broke the reuse invariant instead of failing.
fn walk(name: &str, g: &Graph, seed: u64, steps: usize, plant_bug: bool) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cap = 40;
    let mut p = reference::repair_with_delta(
        g,
        random_assignment(g, &mut rng),
        &fits_under(cap),
        &mut PartitionDelta::clean(g.len()),
    );
    let mut violations = 0;
    for step in 0..steps {
        // The buffer sometimes tightens (clean subgraphs may stop fitting)
        // and sometimes resets.
        match rng.gen_range(0..8u32) {
            0 => cap = (cap * 3 / 4).max(2),
            1 => cap = rng.gen_range(8..=80),
            _ => {}
        }
        let fits = fits_under(cap);
        let before: BTreeSet<Vec<NodeId>> = p.subgraphs().into_iter().collect();
        let mut delta = PartitionDelta::clean(g.len());
        for _ in 0..rng.gen_range(1..=3) {
            random_edit(g, &mut p, &mut delta, &mut rng);
        }
        if plant_bug {
            let dirty: Vec<u32> = p
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(i, _)| delta.is_dirty(NodeId::from_index(i)))
                .map(|(_, &a)| a)
                .collect();
            if !dirty.is_empty() {
                let forgotten = dirty[rng.gen_range(0..dirty.len())];
                delta = forget_subgraph(&p, &delta, forgotten);
            }
        }
        let ctx = format!("{name} seed {seed} step {step}");
        let (mut d_repair, mut d_ref) = (delta.clone(), delta.clone());
        let repaired = repair_with_delta(g, p.clone(), &fits, &mut d_repair);
        let expected = reference::repair_with_delta(g, p.clone(), &fits, &mut d_ref);
        assert_eq!(repaired, expected, "{ctx}: partition");
        assert_eq!(d_repair, d_ref, "{ctx}: delta");
        let (mut d_conn, mut d_conn_ref) = (delta.clone(), delta);
        assert_eq!(
            repair_connectivity_with_delta(g, p.clone(), &mut d_conn),
            reference::repair_connectivity_with_delta(g, p, &mut d_conn_ref),
            "{ctx}: connectivity partition"
        );
        assert_eq!(d_conn, d_conn_ref, "{ctx}: connectivity delta");
        assert!(repaired.validate(g).is_ok(), "{ctx}: invalid repair");
        assert!(
            repaired.subgraphs().iter().all(|m| m.len() == 1 || fits(m)),
            "{ctx}: oversized subgraph survived repair"
        );
        let stale = repaired
            .subgraphs()
            .into_iter()
            .zip(d_repair.dirty_subgraphs(&repaired))
            .any(|(members, dirty)| !dirty && !before.contains(&members));
        if plant_bug {
            violations += usize::from(stale);
        } else {
            assert!(!stale, "{ctx}: a clean subgraph is not a prior member set");
        }
        p = repaired;
    }
    violations
}

#[test]
fn repair_matches_reference_on_every_model() {
    for (seed, &(name, build)) in cocco_graph::models::registry().iter().enumerate() {
        walk(name, &build(), seed as u64, 40, false);
    }
}

#[test]
fn repair_matches_reference_on_arbitrary_assignments() {
    // Repair takes any assignment and any prior dirt, not only the
    // member-set-rule deltas of an edit walk, so its own split and merge
    // marks are what the delta comparison checks here.
    let mut rng = StdRng::seed_from_u64(99);
    for &(name, build) in cocco_graph::models::registry() {
        let g = build();
        for round in 0..20 {
            let p = random_assignment(&g, &mut rng);
            let mut delta = PartitionDelta::clean(g.len());
            for i in 0..g.len() {
                if rng.gen_bool(0.05) {
                    delta.touch(NodeId::from_index(i));
                }
            }
            let fits = fits_under(rng.gen_range(2..=60));
            let ctx = format!("{name} round {round}");
            let (mut d_whole, mut d_ref) = (delta.clone(), delta.clone());
            assert_eq!(
                repair_with_delta(&g, p.clone(), &fits, &mut d_whole),
                reference::repair_with_delta(&g, p.clone(), &fits, &mut d_ref),
                "{ctx}: partition"
            );
            assert_eq!(d_whole, d_ref, "{ctx}: delta");
            let (mut d_conn, mut d_conn_ref) = (delta.clone(), delta);
            assert_eq!(
                repair_connectivity_with_delta(&g, p.clone(), &mut d_conn),
                reference::repair_connectivity_with_delta(&g, p, &mut d_conn_ref),
                "{ctx}: connectivity partition"
            );
            assert_eq!(d_conn, d_conn_ref, "{ctx}: connectivity delta");
        }
    }
}

#[test]
fn planted_clean_subgraph_is_caught() {
    // Negative control: the same walk with one edited subgraph wrongly
    // left clean must break the reuse invariant, or the check has no teeth.
    let mut violations = 0;
    for (seed, &(name, build)) in cocco_graph::models::registry().iter().enumerate() {
        violations += walk(name, &build(), seed as u64, 40, true);
    }
    assert!(violations > 0, "no planted violation was detected");
}

#[test]
#[ignore = "long walk: run with `cargo test --release -p cocco-partition -- --ignored`"]
fn long_walk_matches_reference() {
    // 10 models x 10_000 steps: 100_000 repairs, each checked against the
    // reference.
    for (seed, &(name, build)) in cocco_graph::models::registry().iter().enumerate() {
        walk(name, &build(), 1_000 + seed as u64, 10_000, false);
    }
}
