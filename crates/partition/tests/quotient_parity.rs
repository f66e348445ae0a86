//! Parity of the CSR [`Quotient`] with a naive `BTreeSet` adjacency built
//! here, over seeded assignments on every registry model — cyclic ones
//! drawn at random and acyclic ones from repair, both under sparse and
//! near-`u32::MAX` subgraph ids.

use cocco_graph::{Graph, NodeId};
use cocco_partition::{repair, Partition, Quotient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The quotient computed the obvious way.
struct Naive {
    originals: Vec<u32>,
    succs: Vec<BTreeSet<u32>>,
    preds: Vec<BTreeSet<u32>>,
    min_member: Vec<usize>,
}

impl Naive {
    fn build(g: &Graph, p: &Partition) -> Self {
        let originals: Vec<u32> = p
            .assignment()
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let compact: BTreeMap<u32, u32> = originals
            .iter()
            .enumerate()
            .map(|(c, &o)| (o, c as u32))
            .collect();
        let k = originals.len();
        let mut succs = vec![BTreeSet::new(); k];
        let mut preds = vec![BTreeSet::new(); k];
        let mut min_member = vec![usize::MAX; k];
        for u in g.node_ids() {
            let from = compact[&p.subgraph_of(u)];
            min_member[from as usize] = min_member[from as usize].min(u.index());
            for &v in g.consumers(u) {
                let to = compact[&p.subgraph_of(v)];
                if from != to {
                    succs[from as usize].insert(to);
                    preds[to as usize].insert(from);
                }
            }
        }
        Self {
            originals,
            succs,
            preds,
            min_member,
        }
    }

    /// Repeatedly emits the ready vertex with the smallest member.
    fn topo_order(&self) -> Option<Vec<u32>> {
        let k = self.originals.len();
        let mut done = vec![false; k];
        let mut order = Vec::new();
        while order.len() < k {
            let ready = (0..k)
                .filter(|&c| !done[c] && self.preds[c].iter().all(|&p| done[p as usize]))
                .min_by_key(|&c| self.min_member[c])?;
            done[ready] = true;
            order.push(ready as u32);
        }
        Some(order)
    }

    fn reachable(&self, from: u32) -> BTreeSet<u32> {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for &v in &self.succs[u as usize] {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// SCCs as mutually reachable classes, each ascending, sorted.
    fn sccs(&self) -> Vec<Vec<u32>> {
        let k = self.originals.len() as u32;
        let reach: Vec<BTreeSet<u32>> = (0..k).map(|c| self.reachable(c)).collect();
        let mut sccs: Vec<Vec<u32>> = (0..k)
            .map(|a| {
                (0..k)
                    .filter(|&b| reach[a as usize].contains(&b) && reach[b as usize].contains(&a))
                    .collect()
            })
            .collect();
        sccs.sort();
        sccs.dedup();
        sccs
    }
}

fn check(g: &Graph, p: &Partition, ctx: &str) {
    let q = Quotient::build(g, p);
    let naive = Naive::build(g, p);
    assert_eq!(q.num_subgraphs(), naive.originals.len(), "{ctx}");
    for (c, &original) in naive.originals.iter().enumerate() {
        assert_eq!(q.compact_id(original), c as u32, "{ctx}: compact_id");
        let succs: Vec<u32> = naive.succs[c].iter().copied().collect();
        let preds: Vec<u32> = naive.preds[c].iter().copied().collect();
        assert_eq!(q.succs(c as u32), succs.as_slice(), "{ctx}: succs({c})");
        assert_eq!(q.preds(c as u32), preds.as_slice(), "{ctx}: preds({c})");
    }
    assert_eq!(q.topo_order(), naive.topo_order(), "{ctx}: topo_order");
    let sccs = q.sccs();
    // Tarjan emits SCCs in reverse topological order of the condensation:
    // every cut edge points to an SCC emitted earlier.
    let mut emitted_at = vec![0usize; q.num_subgraphs()];
    for (i, scc) in sccs.iter().enumerate() {
        for &c in scc {
            emitted_at[c as usize] = i;
        }
    }
    for a in 0..q.num_subgraphs() as u32 {
        for &b in q.succs(a) {
            assert!(
                emitted_at[b as usize] <= emitted_at[a as usize],
                "{ctx}: SCC order"
            );
        }
    }
    let mut sorted = sccs;
    sorted.sort();
    assert_eq!(sorted, naive.sccs(), "{ctx}: sccs");
}

/// Maps every id of `p` through a random injection into ids spread over
/// the whole `u32` range, including its top.
fn sparse_ids(p: &Partition, rng: &mut StdRng) -> Partition {
    let mut map: BTreeMap<u32, u32> = BTreeMap::new();
    let mut used = BTreeSet::new();
    for &a in p.assignment() {
        map.entry(a).or_insert_with(|| loop {
            let id = match rng.gen_range(0..4u32) {
                0 => u32::MAX - rng.gen_range(0..3u32),
                1 => rng.gen_range(0..64u32),
                _ => rng.gen::<u32>(),
            };
            if used.insert(id) {
                break id;
            }
        });
    }
    Partition::from_assignment(p.assignment().iter().map(|a| map[a]).collect())
}

#[test]
fn csr_quotient_matches_naive_adjacency_on_every_model() {
    let mut rng = StdRng::seed_from_u64(5);
    for &(name, build) in cocco_graph::models::registry() {
        let g = build();
        for round in 0..8 {
            let k = rng.gen_range(1..=24u32);
            let random =
                Partition::from_assignment((0..g.len()).map(|_| rng.gen_range(0..k)).collect());
            let repaired = repair(&g, random.clone(), &|m: &[NodeId]| m.len() <= 6);
            for (kind, p) in [("random", random), ("repaired", repaired)] {
                let sparse = sparse_ids(&p, &mut rng);
                check(&g, &p, &format!("{name} round {round} {kind}"));
                check(&g, &sparse, &format!("{name} round {round} {kind} sparse"));
            }
        }
    }
}
