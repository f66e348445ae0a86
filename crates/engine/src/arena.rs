//! Per-worker evaluation scratch: the reusable buffers that make a warmed
//! scoring dispatch allocation-free.
//!
//! Every partition-scoring entry point claims one [`EvalArena`] slot from
//! the engine's [`ScratchPool`] for the duration of the call. A slot
//! bundles the flat [`LayoutArena`] a candidate partition is materialized
//! into, the fixed-size composition vectors (per-position fingerprints
//! and statistics) — cleared (capacity kept) between uses and grown
//! monotonically, so the steady state touches the allocator only for
//! values that escape into long-lived structures (cache inserts) — and
//! the queue of cache entries staged for the batch-end drain.
//!
//! Slots never affect results: scratch contents are fully overwritten
//! before each read, and which slot a call claims is invisible to the
//! score. Claiming spins over `try_lock` — with one more slot than worker
//! threads and the single-claim discipline (only public entry points
//! claim; internal helpers receive the scratch by reference), a free slot
//! always exists, so the spin terminates immediately in practice.

use crate::cache::EvalKey;
use crate::engine::{ScoredEval, SubgraphScore};
use cocco_graph::NodeSetFp;
use cocco_partition::LayoutArena;
use cocco_sim::SubgraphStats;
use std::mem::size_of;
use std::sync::Mutex;

/// A partition roll-up staged for funding-order publication: the batch
/// sequence number it was computed under, plus the shared-cache payload.
pub(crate) type PendingPartition = (u64, EvalKey, ScoredEval);

/// A subgraph term staged for funding-order publication.
pub(crate) type PendingSubgraph = (u64, EvalKey, SubgraphScore);

/// Freshly computed cache entries a batch job *staged* rather than wrote
/// straight to the shared cache, each tagged with the funding-order
/// sequence number of the job that computed it. The engine drains every
/// slot at the batch-end quiescent point and inserts the entries in
/// ascending sequence order, so the shared cache's insertion history is
/// independent of thread count and slot assignment.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub partitions: Vec<PendingPartition>,
    pub subgraphs: Vec<PendingSubgraph>,
}

impl Staged {
    /// Bytes of heap capacity currently owned by the queues.
    fn bytes(&self) -> u64 {
        (self.partitions.capacity() * size_of::<PendingPartition>()
            + self.subgraphs.capacity() * size_of::<PendingSubgraph>()) as u64
    }
}

/// The composition scratch of one scoring call: per-position subgraph
/// fingerprints and statistics.
#[derive(Debug, Default)]
pub(crate) struct ComposeScratch {
    /// Subgraph fingerprint per position — the key material of the
    /// partition probe and of every term probe.
    pub fps: Vec<NodeSetFp>,
    /// Statistics per position (their weight footprints drive the
    /// `next_wgt` chain).
    pub stats: Vec<SubgraphStats>,
}

impl ComposeScratch {
    /// Bytes of heap capacity currently owned by the scratch buffers.
    fn bytes(&self) -> u64 {
        (self.fps.capacity() * size_of::<NodeSetFp>()
            + self.stats.capacity() * size_of::<SubgraphStats>()) as u64
    }
}

/// One reusable scratch slot: a layout arena, the composition buffers
/// and the staging queues.
#[derive(Debug, Default)]
pub struct EvalArena {
    /// Flat-layout storage the candidate partition is built into.
    pub(crate) layout: LayoutArena,
    /// Composition scratch.
    pub(crate) compose: ComposeScratch,
    /// Entries awaiting the batch-end funding-order drain.
    pub(crate) staged: Staged,
}

impl EvalArena {
    /// Bytes of heap capacity currently owned by this slot.
    pub fn bytes(&self) -> u64 {
        self.layout.bytes() + self.compose.bytes() + self.staged.bytes()
    }

    /// Layout builds served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.layout.reuses()
    }

    /// Layout builds that had to grow a buffer.
    pub fn grows(&self) -> u64 {
        self.layout.grows()
    }
}

/// The engine's slot set: `resolved_threads + 1` independent
/// [`EvalArena`]s, claimed per scoring call via `try_lock`.
#[derive(Debug)]
pub(crate) struct ScratchPool {
    slots: Vec<Mutex<EvalArena>>,
}

impl ScratchPool {
    /// A pool of `slots` empty arenas (`slots >= 1`).
    pub fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    /// Runs `f` with an exclusive scratch slot. Spins over the slots
    /// until one is free — callers never nest claims and the pool holds
    /// one more slot than there are worker threads, so the first pass
    /// succeeds in the steady state.
    pub fn with_slot<R>(&self, f: impl FnOnce(&mut EvalArena) -> R) -> R {
        loop {
            for slot in &self.slots {
                if let Ok(mut arena) = slot.try_lock() {
                    return f(&mut arena);
                }
            }
            std::thread::yield_now();
        }
    }

    /// Collects every slot's staged cache entries (blocking lock; called
    /// only at the batch-end quiescent point, after the pool has joined).
    /// Slots are visited in fixed index order, but the caller re-sorts by
    /// sequence number anyway, so slot order never reaches the cache.
    pub fn drain_pending(&self) -> (Vec<PendingPartition>, Vec<PendingSubgraph>) {
        let mut partitions = Vec::new();
        let mut subgraphs = Vec::new();
        for slot in &self.slots {
            let staged = std::mem::take(&mut slot.lock().unwrap().staged);
            partitions.extend(staged.partitions);
            subgraphs.extend(staged.subgraphs);
        }
        (partitions, subgraphs)
    }

    /// Sums `per_slot` over every slot (blocking; used at quiescent
    /// points — metrics collection and dispatch boundaries).
    fn sum(&self, per_slot: impl Fn(&EvalArena) -> u64) -> u64 {
        self.slots
            .iter()
            .map(|slot| per_slot(&slot.lock().unwrap()))
            .sum()
    }

    /// Total bytes of heap capacity owned by all slots.
    pub fn bytes(&self) -> u64 {
        self.sum(EvalArena::bytes)
    }

    /// Total layout builds served from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.sum(EvalArena::reuses)
    }

    /// Total layout builds that grew a buffer.
    pub fn grows(&self) -> u64 {
        self.sum(EvalArena::grows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_exclusive_and_reusable() {
        let pool = ScratchPool::new(2);
        pool.with_slot(|a| {
            a.compose.fps.push(NodeSetFp::EMPTY);
            // A nested claim from another logical task still succeeds:
            // the second slot is free.
            pool.with_slot(|b| b.compose.fps.push(NodeSetFp::EMPTY));
        });
        // Scratch persists across claims (capacity reuse is the point).
        let total: u64 = pool.bytes();
        assert!(total > 0);
        assert_eq!(pool.reuses() + pool.grows(), 0, "no layout builds yet");
    }

    #[test]
    fn empty_pool_clamps_to_one_slot() {
        let pool = ScratchPool::new(0);
        let inside = pool.with_slot(|arena| {
            arena.compose.fps.reserve(8);
            arena.bytes()
        });
        assert_eq!(pool.bytes(), inside);
    }

    #[test]
    fn claims_never_alias_under_contention() {
        use cocco_graph::NodeId;
        use cocco_partition::Partition;
        use std::sync::atomic::{AtomicU64, Ordering};

        // `threads + 1` concurrent batches hammer claim/release — one
        // more claimant than the pool was sized for, so at least two
        // claimants always compete for the same slots. Each claim writes
        // a unique token's fingerprint into its slot, yields to invite
        // interleaving, and asserts the token survived: any aliasing (two
        // claimants in one slot) or lost exclusivity would corrupt it.
        const THREADS: usize = 4;
        const CLAIMS_PER_BATCH: u64 = 300;
        let pool = ScratchPool::new(THREADS + 1);
        let next_token = AtomicU64::new(1);
        std::thread::scope(|scope| {
            for _ in 0..THREADS + 2 {
                scope.spawn(|| {
                    let partition = Partition::from_assignment(vec![0, 0, 1, 2]);
                    for _ in 0..CLAIMS_PER_BATCH {
                        let token = next_token.fetch_add(1, Ordering::Relaxed);
                        pool.with_slot(|arena| {
                            let fp = NodeSetFp::of_members(&[NodeId::from_index(token as usize)]);
                            arena.compose.fps.clear();
                            arena.compose.fps.push(fp);
                            arena.layout.build_from_partition(&partition);
                            std::thread::yield_now();
                            assert_eq!(arena.compose.fps, [fp], "slot aliased across claims");
                        });
                    }
                });
            }
        });
        // Accounting stays exact under contention: every claim built one
        // layout, and each build was either a reuse or a grow.
        let builds = (THREADS as u64 + 2) * CLAIMS_PER_BATCH;
        assert_eq!(pool.reuses() + pool.grows(), builds);
        // Growth is bounded by warmup: after a slot has seen the shape
        // once, every later build in that slot must reuse capacity.
        assert!(
            pool.grows() <= (THREADS as u64 + 1) * 4,
            "grows kept climbing after warmup: {}",
            pool.grows()
        );
        assert!(pool.reuses() >= builds - (THREADS as u64 + 1) * 4);
    }
}
