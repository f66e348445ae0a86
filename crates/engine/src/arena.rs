//! Per-worker evaluation scratch: the reusable buffers that make a warmed
//! scoring dispatch allocation-free.
//!
//! Every public scoring entry point claims one [`EvalArena`] slot from the
//! engine's [`ScratchPool`] for the duration of the call. A slot bundles
//! the flat [`LayoutArena`] a candidate partition is materialized into,
//! the worker-local L0 cache, and the fixed-size composition vectors —
//! all cleared (capacity kept) between uses and grown monotonically, so
//! the steady state touches the allocator only for values that escape
//! into long-lived structures (memo entries, fingerprints, cache inserts).
//!
//! Slots never affect results: scratch contents are fully overwritten
//! before each read, and which slot a call claims is invisible to the
//! score. Claiming spins over `try_lock` — with one more slot than worker
//! threads and the single-claim discipline (only public entry points
//! claim; internal helpers receive the scratch by reference), a free slot
//! always exists, so the spin terminates immediately in practice.

use crate::cache::EvalKey;
use crate::engine::{EvalMemo, MemoEntry, ScoredEval, SubgraphScore};
use cocco_graph::BuildFpHasher;
use cocco_partition::LayoutArena;
use cocco_sim::SubgraphStats;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex};

/// A partition roll-up staged for funding-order publication: the batch
/// sequence number it was computed under, plus the shared-cache payload.
pub(crate) type PendingPartition = (u64, EvalKey, ScoredEval, Option<Arc<EvalMemo>>);

/// A subgraph term staged for funding-order publication.
pub(crate) type PendingSubgraph = (u64, EvalKey, SubgraphScore);

/// Worker-local L0 cache: the lock-free front of the cache hierarchy.
///
/// Each scratch slot owns one. Because a slot is exclusively held for the
/// duration of a scoring call, probes and inserts here pay no shard lock
/// and no atomic counter — just one identity-hashed `HashMap` lookup.
/// Entries are pure functions of their [`EvalKey`]s, so an L0 hit is
/// bit-identical to the shared-cache (or recomputed) value; the L0 can
/// therefore never change a result, only skip contention.
///
/// Freshly computed values are *staged* rather than written straight to
/// the shared cache: `pending_*` queues carry them (tagged with the
/// funding-order sequence number of the job that computed them) until the
/// engine drains every slot at the batch-end quiescent point and inserts
/// them in ascending sequence order — making the shared cache's insertion
/// history independent of thread count and slot assignment.
///
/// The maps never leak iteration order: they are probed by key and, on
/// overflow, cleared wholesale (capacity kept), so determinism rule D1 is
/// satisfied structurally.
#[derive(Debug, Default)]
pub(crate) struct L0Cache {
    partition: HashMap<EvalKey, (ScoredEval, Option<Arc<EvalMemo>>), BuildFpHasher>,
    subgraph: HashMap<EvalKey, SubgraphScore, BuildFpHasher>,
    pending_partition: Vec<PendingPartition>,
    pending_subgraph: Vec<PendingSubgraph>,
}

impl L0Cache {
    /// Partition-rollup entries kept per slot. Roll-ups carry memos
    /// (kilobytes each on large models), so the local copy stays small;
    /// repeat probes within a few batches are what it exists to absorb.
    const PARTITION_CAP: usize = 256;

    /// Subgraph-term entries kept per slot (a few dozen bytes each).
    const SUBGRAPH_CAP: usize = 2048;

    /// Lock-free partition roll-up probe.
    pub fn get_partition(&self, key: &EvalKey) -> Option<(ScoredEval, Option<Arc<EvalMemo>>)> {
        self.partition
            .get(key)
            .map(|(scored, memo)| (*scored, memo.clone()))
    }

    /// Read-through population after a shared-cache hit (nothing staged:
    /// the entry is already published).
    pub fn put_partition(&mut self, key: EvalKey, scored: ScoredEval, memo: Option<Arc<EvalMemo>>) {
        if self.partition.len() >= Self::PARTITION_CAP {
            self.partition.clear();
        }
        self.partition.insert(key, (scored, memo));
    }

    /// Records a freshly computed roll-up locally *and* stages it for the
    /// batch-end funding-order drain into the shared cache.
    pub fn stage_partition(
        &mut self,
        seq: u64,
        key: EvalKey,
        scored: ScoredEval,
        memo: Option<Arc<EvalMemo>>,
    ) {
        self.put_partition(key, scored, memo.clone());
        self.pending_partition.push((seq, key, scored, memo));
    }

    /// Lock-free subgraph-term probe.
    pub fn get_subgraph(&self, key: &EvalKey) -> Option<SubgraphScore> {
        self.subgraph.get(key).copied()
    }

    /// Read-through population after a shared-cache subgraph hit.
    pub fn put_subgraph(&mut self, key: EvalKey, value: SubgraphScore) {
        if self.subgraph.len() >= Self::SUBGRAPH_CAP {
            self.subgraph.clear();
        }
        self.subgraph.insert(key, value);
    }

    /// Records a freshly computed term locally and stages it for the
    /// batch-end drain.
    pub fn stage_subgraph(&mut self, seq: u64, key: EvalKey, value: SubgraphScore) {
        self.put_subgraph(key, value);
        self.pending_subgraph.push((seq, key, value));
    }

    /// Moves the staged entries out (local lookup maps are kept — they
    /// remain valid, the entries are now also shared).
    pub fn take_pending(&mut self) -> (Vec<PendingPartition>, Vec<PendingSubgraph>) {
        (
            std::mem::take(&mut self.pending_partition),
            std::mem::take(&mut self.pending_subgraph),
        )
    }

    /// Bytes of heap capacity currently owned by the L0 structures
    /// (map capacities approximated by entry footprint).
    fn bytes(&self) -> u64 {
        (self.partition.capacity() * size_of::<(EvalKey, (ScoredEval, Option<Arc<EvalMemo>>))>()
            + self.subgraph.capacity() * size_of::<(EvalKey, SubgraphScore)>()
            + self.pending_partition.capacity() * size_of::<PendingPartition>()
            + self.pending_subgraph.capacity() * size_of::<PendingSubgraph>()) as u64
    }
}

/// The composition scratch of one scoring call: per-position memo copies,
/// statistics and weight footprints.
#[derive(Debug, Default)]
pub(crate) struct ComposeScratch {
    /// Memoized entry per clean position (`MemoEntry` is `Copy`, so the
    /// memo's borrow ends before the fold starts).
    pub entries: Vec<Option<MemoEntry>>,
    /// Statistics of freshly derived positions (`None` where the memo
    /// entry was copied instead).
    pub stats_of: Vec<Option<SubgraphStats>>,
    /// Weight footprint per position (drives the `next_wgt` chain).
    pub wgts: Vec<u64>,
}

impl ComposeScratch {
    /// Bytes of heap capacity currently owned by the scratch buffers.
    fn bytes(&self) -> u64 {
        (self.entries.capacity() * size_of::<Option<MemoEntry>>()
            + self.stats_of.capacity() * size_of::<Option<SubgraphStats>>()
            + self.wgts.capacity() * size_of::<u64>()) as u64
    }
}

/// One reusable scratch slot: a layout arena, per-subgraph dirty flags,
/// and the composition buffers.
#[derive(Debug, Default)]
pub struct EvalArena {
    /// Flat-layout storage the candidate partition is built into.
    pub(crate) layout: LayoutArena,
    /// Per-subgraph dirty flags projected from a `PartitionDelta`.
    pub(crate) dirty: Vec<bool>,
    /// Composition scratch.
    pub(crate) compose: ComposeScratch,
    /// Worker-local L0 cache probed lock-free before the shared shards.
    pub(crate) l0: L0Cache,
}

impl EvalArena {
    /// Bytes of heap capacity currently owned by this slot.
    pub fn bytes(&self) -> u64 {
        self.layout.bytes()
            + (self.dirty.capacity() * size_of::<bool>()) as u64
            + self.compose.bytes()
            + self.l0.bytes()
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
            let (p, s) = slot.lock().unwrap().l0.take_pending();
            partitions.extend(p);
            subgraphs.extend(s);
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
            a.dirty.push(true);
            // A nested claim from another logical task still succeeds:
            // the second slot is free.
            pool.with_slot(|b| b.dirty.push(false));
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
            arena.dirty.reserve(8);
            arena.bytes()
        });
        assert_eq!(pool.bytes(), inside);
    }

    #[test]
    fn claims_never_alias_under_contention() {
        use cocco_partition::Partition;
        use std::sync::atomic::{AtomicU64, Ordering};

        // `threads + 1` concurrent batches hammer claim/release — one
        // more claimant than the pool was sized for, so at least two
        // claimants always compete for the same slots. Each claim writes
        // a unique token into its slot, yields to invite interleaving,
        // and asserts the token survived: any aliasing (two claimants in
        // one slot) or lost exclusivity would corrupt the token.
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
                            arena.dirty.clear();
                            for bit in 0..64 {
                                arena.dirty.push(token >> bit & 1 == 1);
                            }
                            arena.layout.build_from_partition(&partition);
                            std::thread::yield_now();
                            let read: u64 = arena
                                .dirty
                                .iter()
                                .enumerate()
                                .map(|(bit, &set)| u64::from(set) << bit)
                                .sum();
                            assert_eq!(read, token, "slot aliased across claims");
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
