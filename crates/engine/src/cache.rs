//! The sharded, two-level, bounded memoization cache for evaluations.
//!
//! Level 1 (**subgraph terms**) memoizes the pure per-subgraph scores
//! produced by `Evaluator::eval_subgraph` under the coordinates
//! `(evaluator fingerprint, members, next_wgt, buffer, options)` — the
//! exact inputs of that function, so one entry serves every partition that
//! places the same subgraph before the same successor — and the one source
//! of every subgraph term the engine composes. Level 2 (**partition
//! roll-up**) memoizes whole-partition [`ScoredEval`]s, so a re-proposed
//! genome skips composition altogether.
//!
//! # Zero-rehash keys
//!
//! Every key is a fixed-size [`EvalKey`] — the evaluator fingerprint plus
//! a 128-bit content hash folded from per-subgraph [`NodeSetFp`]
//! fingerprints (derived once per scoring call) and the
//! `(buffer, options, next_wgt)` coordinates. Building a key allocates
//! nothing and never walks a member vector, shard selection reads one
//! precomputed word, and the maps use a pass-through hasher
//! ([`BuildFpHasher`]) instead of re-hashing the key per probe. Key equality is fingerprint equality; see
//! [`NodeSetFp`] for the (negligible) collision model.
//!
//! # Bounded growth
//!
//! Both levels are bounded by a configurable entry budget
//! (`EngineConfig::cache_capacity`; the subgraph-term level takes at
//! least half, the partition level the rest under a fixed entry cap — see [`EvalCache::with_capacity`]). A
//! shard that fills up runs a **generation sweep**: entries not touched
//! since the previous sweep are evicted (counted in the level's eviction
//! counter), so a long exploration keeps its working set and sheds stale
//! genomes. Eviction never changes results — a re-miss recomputes the
//! bit-identical value.
//!
//! The cache also persists: [`EvalCache::snapshot`]/[`EvalCache::restore`]
//! move both levels through a serde-serializable [`CacheSnapshot`], and
//! [`EvalCache::save`]/[`CacheSnapshot::load`] write/read it as JSON so
//! repeated explorations of the same model warm-start. Keys embed the
//! evaluator fingerprint, so entries recorded under a different
//! accelerator configuration (or model) can never produce a false hit;
//! [`CacheSnapshot::split_fingerprint`] additionally lets callers restore
//! only the entries of the evaluator at hand. Snapshots from the previous
//! (v1, member-vector-keyed) format are upgraded on load by re-deriving
//! each key's fingerprints, so `--cache-file` warm starts survive the
//! re-keying.

use crate::engine::{ScoredEval, SubgraphScore};
use cocco_faults::{atomic_save, FaultPlan};
use cocco_graph::{mix64, BuildFpHasher, NodeId, NodeSetFp};
use cocco_sim::{BufferConfig, EvalOptions};
use cocco_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independent shards; keys spread by their precomputed hash, so
/// concurrent workers rarely contend on the same lock.
const SHARDS: usize = 16;

/// Folds one word into a 128-bit chain state (order-sensitive; the two
/// lanes stay independent through different salts).
#[inline]
fn fold(lo: &mut u64, hi: &mut u64, word: u64) {
    *lo = mix64(*lo ^ word);
    *hi = mix64(*hi ^ word ^ 0x9E37_79B9_7F4A_7C15);
}

/// A fixed-size cache key: the evaluator fingerprint (kept verbatim so
/// snapshots can be split per `(model, accelerator)` pair) plus a 128-bit
/// content hash of the evaluation coordinates. Copyable, allocation-free,
/// and pre-hashed — a probe neither builds a key vector nor re-hashes one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EvalKey {
    /// The evaluator's `(graph, accelerator config)` fingerprint.
    pub fingerprint: u64,
    /// First lane of the content hash (also the shard/bucket selector).
    pub lo: u64,
    /// Second, independently salted lane of the content hash.
    pub hi: u64,
}

impl EvalKey {
    /// The `(fingerprint, buffer, options)` coordinate prefix shared by
    /// both key kinds.
    #[inline]
    fn coords(fingerprint: u64, buffer: &BufferConfig, options: EvalOptions) -> (u64, u64) {
        let mut lo = mix64(fingerprint ^ 0x243F_6A88_85A3_08D3);
        let mut hi = mix64(fingerprint ^ 0x1319_8A2E_0370_7344);
        let (tag, a, b) = match buffer {
            BufferConfig::Shared { total } => (0u64, *total, 0u64),
            BufferConfig::Separate { glb, wgt } => (1u64, *glb, *wgt),
        };
        for word in [
            tag,
            a,
            b,
            u64::from(options.cores()),
            u64::from(options.batch()),
        ] {
            fold(&mut lo, &mut hi, word);
        }
        (lo, hi)
    }

    /// The key of one subgraph term: `(evaluator fingerprint, members,
    /// next_wgt, buffer, options)`, with the member set represented by its
    /// precomputed [`NodeSetFp`]. O(1), no allocation.
    pub fn subgraph(
        fingerprint: u64,
        members: NodeSetFp,
        next_wgt: u64,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> Self {
        let (mut lo, mut hi) = Self::coords(fingerprint, buffer, options);
        fold(&mut lo, &mut hi, next_wgt);
        fold(&mut lo, &mut hi, members.lo);
        fold(&mut lo, &mut hi, members.hi);
        Self {
            fingerprint,
            lo,
            hi,
        }
    }

    /// The key of a whole-partition roll-up: the ordered subgraph
    /// fingerprints folded into the coordinate chain. Subgraph *order* is
    /// part of the key (the fold is a chain) — partition evaluation is
    /// order-sensitive because the bandwidth model prefetches the *next*
    /// subgraph's weights. O(#subgraphs), no allocation.
    pub fn partition<I>(
        fingerprint: u64,
        subgraphs: I,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> Self
    where
        I: IntoIterator<Item = NodeSetFp>,
    {
        let (mut lo, mut hi) = Self::coords(fingerprint, buffer, options);
        let mut count = 0u64;
        for fp in subgraphs {
            fold(&mut lo, &mut hi, fp.lo);
            fold(&mut lo, &mut hi, fp.hi);
            count += 1;
        }
        fold(&mut lo, &mut hi, count);
        Self {
            fingerprint,
            lo,
            hi,
        }
    }

    /// Deterministic shard selection from the precomputed hash.
    #[inline]
    fn shard(&self) -> usize {
        (self.lo % SHARDS as u64) as usize
    }
}

/// One cached value plus its last-touched generation (updated on hits
/// under the shard's read lock, hence atomic).
#[derive(Debug)]
struct Slot<V> {
    value: V,
    gen: AtomicU64,
}

/// One shard: the map plus the shard's sweep generation.
#[derive(Debug)]
struct ShardMap<V> {
    map: HashMap<EvalKey, Slot<V>, BuildFpHasher>,
    gen: u64,
}

/// One level of the cache: sharded bounded map plus hit/miss/eviction
/// counters.
#[derive(Debug)]
struct Level<V> {
    /// Level name for telemetry events (`"partition"` / `"subgraph"`).
    name: &'static str,
    shards: [RwLock<ShardMap<V>>; SHARDS],
    /// Entry budget per shard.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Sweep events land here; disabled handles cost one branch per
    /// sweep (sweeps are rare — at most one per `capacity/2` inserts).
    telemetry: Telemetry,
}

impl<V> Level<V> {
    fn new(name: &'static str, capacity: usize, telemetry: Telemetry) -> Self {
        Self {
            name,
            shards: std::array::from_fn(|_| {
                RwLock::new(ShardMap {
                    map: HashMap::default(),
                    gen: 0,
                })
            }),
            shard_capacity: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            telemetry,
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).map.len()).sum()
    }
}

/// Takes a shard's read lock, tolerating poisoning: every value in the map
/// was inserted whole under the write lock, so a panic elsewhere (a worker
/// job dying mid-batch) never leaves a torn entry behind — the data is
/// valid and the engine must stay usable after the panic is caught.
fn read_shard<V>(shard: &RwLock<ShardMap<V>>) -> RwLockReadGuard<'_, ShardMap<V>> {
    shard
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Takes a shard's write lock, tolerating poisoning (see [`read_shard`]).
fn write_shard<V>(shard: &RwLock<ShardMap<V>>) -> RwLockWriteGuard<'_, ShardMap<V>> {
    shard
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<V: Clone> Level<V> {
    fn get(&self, key: &EvalKey) -> Option<V> {
        let found = {
            let shard = read_shard(&self.shards[key.shard()]);
            shard.map.get(key).map(|slot| {
                // Touch: mark the entry live in the current generation so
                // the next sweep keeps it.
                slot.gen.store(shard.gen, Ordering::Relaxed);
                slot.value.clone()
            })
        };
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: EvalKey, value: V) {
        let mut shard = write_shard(&self.shards[key.shard()]);
        let gen = shard.gen;
        shard.map.insert(
            key,
            Slot {
                value,
                gen: AtomicU64::new(gen),
            },
        );
        if shard.map.len() > self.shard_capacity {
            // Generation sweep: evict everything not touched since the
            // previous sweep; if the live working set alone overflows the
            // budget, shed down to *half* the budget (not just the
            // surplus) so the next full-shard sweep is amortized over
            // `capacity/2` inserts instead of firing on every one.
            let before = shard.map.len();
            shard
                .map
                .retain(|_, slot| slot.gen.load(Ordering::Relaxed) >= gen);
            if shard.map.len() > self.shard_capacity {
                let target = (self.shard_capacity / 2).max(1);
                let surplus = shard.map.len() - target;
                // Victim selection must not depend on HashMap iteration
                // order: two identical runs have to shed the *same*
                // entries, or their persisted snapshots diverge. Sort the
                // candidate keys and evict the smallest — any total order
                // works, as long as it is a property of the keys alone.
                // cocco-audit: allow(D1) victims are sorted before use, so map order never escapes
                let mut victims: Vec<EvalKey> = shard.map.keys().copied().collect();
                victims.sort_unstable();
                for victim in victims.iter().take(surplus) {
                    shard.map.remove(victim);
                }
            }
            shard.gen += 1;
            let evicted = (before - shard.map.len()) as u64;
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            let remaining = shard.map.len();
            self.telemetry.emit("engine.cache.sweep", || {
                vec![
                    ("level", self.name.into()),
                    ("evicted", evicted.into()),
                    ("remaining", remaining.into()),
                ]
            });
        }
    }

    /// All entries projected through `project`, sorted by key so snapshots
    /// are stable and diffable.
    fn entries<T>(&self, project: impl Fn(&V) -> T) -> Vec<(EvalKey, T)> {
        let mut out: Vec<(EvalKey, T)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            // cocco-audit: allow(D1) the collected entries are sorted by key below, so map order never escapes
            for (k, slot) in read_shard(shard).map.iter() {
                out.push((*k, project(&slot.value)));
            }
        }
        out.sort_by_key(|entry| entry.0);
        out
    }
}

/// A serializable image of both cache levels, for cross-run persistence.
///
/// Entries are plain `(key, value)` pairs sorted by key; the `f64` fields
/// inside the values survive the JSON round-trip exactly, so a
/// warm-started exploration is bit-identical to a cold one — the snapshot
/// only changes which lookups hit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Snapshot format version (bumped on incompatible key changes).
    pub version: u32,
    /// Partition roll-up entries.
    pub partition: Vec<(EvalKey, ScoredEval)>,
    /// Per-subgraph term entries.
    pub subgraph: Vec<(EvalKey, SubgraphScore)>,
}

/// Current [`CacheSnapshot::version`]. Version 1 (member-vector keys) is
/// upgraded on load by re-deriving each key's fingerprints; other versions
/// load as empty.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The version-1 on-disk shape: keys were flattened `u64` sequences
/// (`[fingerprint, buffer tag, b1, b2, cores, batch, ...members...]`).
#[derive(Deserialize)]
struct SnapshotV1 {
    version: u32,
    partition: Vec<(Vec<u64>, ScoredEval)>,
    subgraph: Vec<(Vec<u64>, SubgraphScore)>,
}

/// Parses a v1 key's coordinate prefix; returns the trailing member words.
fn v1_coords(words: &[u64]) -> Option<(u64, BufferConfig, EvalOptions, &[u64])> {
    if words.len() < 6 {
        return None;
    }
    let fingerprint = words[0];
    let buffer = match words[1] {
        0 => BufferConfig::shared(words[2]),
        1 => BufferConfig::separate(words[2], words[3]),
        _ => return None,
    };
    let cores = u32::try_from(words[4]).ok()?;
    let batch = u32::try_from(words[5]).ok()?;
    let options = EvalOptions::new(cores, batch).ok()?;
    Some((fingerprint, buffer, options, &words[6..]))
}

/// Re-derives a v2 partition key from a v1 one (member groups separated by
/// `u64::MAX`).
fn v1_partition_key(words: &[u64]) -> Option<EvalKey> {
    let (fingerprint, buffer, options, rest) = v1_coords(words)?;
    let mut fps = Vec::new();
    let mut current = NodeSetFp::EMPTY;
    let mut members = 0usize;
    for &w in rest {
        if w == u64::MAX {
            if members == 0 {
                return None; // empty group: not a v1 writer's output
            }
            fps.push(current);
            current = NodeSetFp::EMPTY;
            members = 0;
        } else {
            current.insert(NodeId::from_index(usize::try_from(w).ok()?));
            members += 1;
        }
    }
    if members != 0 {
        return None; // trailing members without a separator
    }
    Some(EvalKey::partition(fingerprint, fps, &buffer, options))
}

/// Re-derives a v2 subgraph key from a v1 one (`[next_wgt, ...members]`).
fn v1_subgraph_key(words: &[u64]) -> Option<EvalKey> {
    let (fingerprint, buffer, options, rest) = v1_coords(words)?;
    let (&next_wgt, members) = rest.split_first()?;
    if members.is_empty() {
        return None;
    }
    let mut fp = NodeSetFp::EMPTY;
    for &w in members {
        fp.insert(NodeId::from_index(usize::try_from(w).ok()?));
    }
    Some(EvalKey::subgraph(
        fingerprint,
        fp,
        next_wgt,
        &buffer,
        options,
    ))
}

impl CacheSnapshot {
    /// Total entries across both levels.
    pub fn len(&self) -> usize {
        self.partition.len() + self.subgraph.len()
    }

    /// `true` when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into the entries recorded under `fingerprint` (first) and
    /// everything else (second). Every key carries the evaluator
    /// fingerprint, so this cleanly separates one `(model, accelerator)`
    /// pair's entries from a multi-model cache file — changing the
    /// accelerator configuration changes the fingerprint and thereby
    /// invalidates (filters out) all previous entries.
    pub fn split_fingerprint(self, fingerprint: u64) -> (CacheSnapshot, CacheSnapshot) {
        let mut mine = CacheSnapshot {
            version: self.version,
            ..Default::default()
        };
        let mut rest = mine.clone();
        for entry in self.partition {
            let target = if entry.0.fingerprint == fingerprint {
                &mut mine.partition
            } else {
                &mut rest.partition
            };
            target.push(entry);
        }
        for entry in self.subgraph {
            let target = if entry.0.fingerprint == fingerprint {
                &mut mine.subgraph
            } else {
                &mut rest.subgraph
            };
            target.push(entry);
        }
        (mine, rest)
    }

    /// Appends another snapshot's entries (deduplication happens on
    /// restore — later inserts of an identical key overwrite with an
    /// identical, deterministically computed value).
    pub fn merge(&mut self, other: CacheSnapshot) {
        self.partition.extend(other.partition);
        self.subgraph.extend(other.subgraph);
        self.partition.sort_by_key(|entry| entry.0);
        self.subgraph.sort_by_key(|entry| entry.0);
        self.partition.dedup_by(|a, b| a.0 == b.0);
        self.subgraph.dedup_by(|a, b| a.0 == b.0);
    }

    /// Writes the snapshot to `path` as JSON, atomically: the document is
    /// written to a unique sibling temp file and renamed into place (so a
    /// reader — or a concurrent saver sharing one sweep-wide cache file —
    /// never observes a half-written snapshot), with bounded attempt-count
    /// retry and guaranteed temp-file cleanup on every error path (see
    /// [`cocco_faults::atomic_save`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors after the final attempt.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with(path, &FaultPlan::disabled())
    }

    /// Like [`save`](Self::save), with a [`FaultPlan`] that can inject
    /// write errors / torn writes and that records save retries and
    /// failures on its log.
    pub fn save_with(&self, path: &Path, faults: &FaultPlan) -> std::io::Result<()> {
        let text = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        atomic_save(path, &text, faults)
    }

    /// Reads a snapshot from `path`. A version-1 snapshot is upgraded in
    /// place (fingerprints re-derived from its member-vector keys); other
    /// foreign versions load as empty (their keys must not be trusted).
    ///
    /// # Errors
    ///
    /// Returns filesystem errors as-is and malformed JSON as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<CacheSnapshot> {
        Self::load_with(path, &FaultPlan::disabled())
    }

    /// Like [`load`](Self::load), but a corrupt document — truncated by a
    /// torn write, or with a garbage region — is **salvaged** instead of
    /// rejected: every entry of either level that still parses (current
    /// *or* v1 key shape) is recovered, and only a document yielding zero
    /// entries is reported as `InvalidData`. Salvaged and dropped entry
    /// counts land on the [`FaultPlan`]'s log — including for disabled
    /// plans, so real corruption is always visible in health reports.
    pub fn load_with(path: &Path, faults: &FaultPlan) -> std::io::Result<CacheSnapshot> {
        let text = std::fs::read_to_string(path)?;
        let current = serde_json::from_str::<CacheSnapshot>(&text);
        if let Ok(snap) = current {
            if snap.version == SNAPSHOT_VERSION {
                return Ok(snap);
            }
            return Ok(CacheSnapshot {
                version: SNAPSHOT_VERSION,
                ..Default::default()
            });
        }
        // Not the current shape: a v1 document (upgrade it), or a corrupt
        // one (salvage what parses), or hopeless garbage (report it).
        let v1: SnapshotV1 = match serde_json::from_str(&text) {
            Ok(v1) => v1,
            Err(e) => {
                return match salvage(&text, faults) {
                    Some(snap) => Ok(snap),
                    None => Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    )),
                };
            }
        };
        if v1.version != 1 {
            return Ok(CacheSnapshot {
                version: SNAPSHOT_VERSION,
                ..Default::default()
            });
        }
        let mut out = CacheSnapshot {
            version: SNAPSHOT_VERSION,
            ..Default::default()
        };
        for (words, value) in v1.partition {
            if let Some(key) = v1_partition_key(&words) {
                out.partition.push((key, value));
            }
        }
        for (words, value) in v1.subgraph {
            if let Some(key) = v1_subgraph_key(&words) {
                out.subgraph.push((key, value));
            }
        }
        out.partition.sort_by_key(|entry| entry.0);
        out.subgraph.sort_by_key(|entry| entry.0);
        Ok(out)
    }
}

/// Best-effort recovery of a corrupt snapshot document: extracts the
/// top-level elements of the `"partition"` and `"subgraph"` arrays
/// textually (string- and nesting-aware, tolerant of truncation) and keeps
/// every element that parses under the current key shape or upgrades from
/// the v1 shape. Returns `None` when nothing is recoverable. Entries are
/// worth salvaging because cached values are *exact*: a warm start from a
/// salvaged subset is bit-identical to one from the full file — the subset
/// only changes which lookups hit.
fn salvage(text: &str, faults: &FaultPlan) -> Option<CacheSnapshot> {
    let mut out = CacheSnapshot {
        version: SNAPSHOT_VERSION,
        ..Default::default()
    };
    let mut dropped = 0u64;
    for element in extract_array_elements(text, "partition") {
        if let Ok(entry) = serde_json::from_str::<(EvalKey, ScoredEval)>(element) {
            out.partition.push(entry);
        } else if let Ok((words, value)) = serde_json::from_str::<(Vec<u64>, ScoredEval)>(element) {
            match v1_partition_key(&words) {
                Some(key) => out.partition.push((key, value)),
                None => dropped += 1,
            }
        } else {
            dropped += 1;
        }
    }
    for element in extract_array_elements(text, "subgraph") {
        if let Ok(entry) = serde_json::from_str::<(EvalKey, SubgraphScore)>(element) {
            out.subgraph.push(entry);
        } else if let Ok((words, value)) =
            serde_json::from_str::<(Vec<u64>, SubgraphScore)>(element)
        {
            match v1_subgraph_key(&words) {
                Some(key) => out.subgraph.push((key, value)),
                None => dropped += 1,
            }
        } else {
            dropped += 1;
        }
    }
    if out.is_empty() {
        return None;
    }
    out.partition.sort_by_key(|entry| entry.0);
    out.subgraph.sort_by_key(|entry| entry.0);
    out.partition.dedup_by(|a, b| a.0 == b.0);
    out.subgraph.dedup_by(|a, b| a.0 == b.0);
    faults.log().note_salvaged_entries(out.len() as u64);
    faults.log().note_dropped_entries(dropped);
    Some(out)
}

/// Returns the top-level element substrings of the JSON array stored under
/// `"field"` in `text`, without requiring the document to be well-formed:
/// elements are split on depth-0 commas with full string/escape awareness,
/// extraction stops at the array's closing bracket (or any depth-0
/// close — corruption may unbalance the document), and a trailing partial
/// element from a torn write is dropped rather than returned.
fn extract_array_elements<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let marker = format!("\"{field}\"");
    let Some(pos) = text.find(&marker) else {
        return Vec::new();
    };
    let after = &text[pos + marker.len()..];
    let Some(stripped) = after.trim_start().strip_prefix(':') else {
        return Vec::new();
    };
    let Some(body) = stripped.trim_start().strip_prefix('[') else {
        return Vec::new();
    };
    let mut elements = Vec::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    let push = |elements: &mut Vec<&'a str>, start: usize, end: usize| {
        let element = body[start..end].trim();
        if !element.is_empty() {
            elements.push(element);
        }
    };
    for (i, c) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                if depth == 0 {
                    // The array's own close (or an unbalanced one from a
                    // corrupt region): the last complete element ends here.
                    push(&mut elements, start, i);
                    return elements;
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                push(&mut elements, start, i);
                start = i + 1;
            }
            _ => {}
        }
    }
    // Truncated document: whatever trails the last depth-0 comma is a
    // partial element — drop it.
    elements
}

/// The two-level sharded, bounded evaluation cache.
///
/// Lookups take a shard read lock; inserts a shard write lock. Two workers
/// racing on the same missing key may both compute it — the computation is
/// deterministic, so the duplicate insert is idempotent and results never
/// depend on the race.
#[derive(Debug)]
pub struct EvalCache {
    partition: Level<ScoredEval>,
    subgraph: Level<SubgraphScore>,
}

impl EvalCache {
    /// Creates an empty cache with the default (generous) entry budget.
    pub fn new() -> Self {
        Self::with_capacity(crate::config::EngineConfig::DEFAULT_CACHE_CAPACITY)
    }

    /// Upper bound on the partition level's share of any capacity.
    /// Partition roll-ups pay off only for recently re-proposed genomes,
    /// so a moderate budget keeps their hit rate, and the rest of a
    /// generous total budget goes to the subgraph-term level, which
    /// answers every clean subgraph of every composed partition.
    const PARTITION_ENTRY_CAP: usize = 1 << 14;

    /// Creates an empty cache bounded to `capacity` total entries. The
    /// subgraph-term level takes at least half; the partition level takes
    /// the rest, additionally capped at 16 384 entries. Tiny capacities
    /// are clamped so every shard can hold at least one entry.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_telemetry(capacity, Telemetry::disabled())
    }

    /// Like [`with_capacity`](Self::with_capacity), but an enabled
    /// `telemetry` handle receives an `engine.cache.sweep` event (level,
    /// evicted, remaining) whenever a generation sweep fires.
    /// Observation-only: the sweep policy and its victims are unchanged.
    pub fn with_capacity_telemetry(capacity: usize, telemetry: Telemetry) -> Self {
        let partition = (capacity / 2).clamp(SHARDS, Self::PARTITION_ENTRY_CAP);
        let subgraph = capacity.saturating_sub(partition).max(SHARDS);
        Self {
            partition: Level::new("partition", partition, telemetry.clone()),
            subgraph: Level::new("subgraph", subgraph, telemetry),
        }
    }

    /// Looks a partition roll-up key up, counting a hit or miss.
    pub fn get_partition(&self, key: &EvalKey) -> Option<ScoredEval> {
        self.partition.get(key)
    }

    /// Inserts a computed partition evaluation.
    pub fn insert_partition(&self, key: EvalKey, value: ScoredEval) {
        self.partition.insert(key, value);
    }

    /// Looks a per-subgraph term up, counting a subgraph-level hit or miss.
    pub fn get_subgraph(&self, key: &EvalKey) -> Option<SubgraphScore> {
        self.subgraph.get(key)
    }

    /// Inserts a computed per-subgraph term.
    pub fn insert_subgraph(&self, key: EvalKey, value: SubgraphScore) {
        self.subgraph.insert(key, value);
    }

    /// Distinct cached evaluations across both levels.
    pub fn len(&self) -> usize {
        self.partition.len() + self.subgraph.len()
    }

    /// `true` when nothing has been cached at either level.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct partition roll-up entries.
    pub fn partition_entries(&self) -> usize {
        self.partition.len()
    }

    /// Distinct per-subgraph term entries.
    pub fn subgraph_entries(&self) -> usize {
        self.subgraph.len()
    }

    /// Partition-level lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.partition.hits.load(Ordering::Relaxed)
    }

    /// Partition-level lookups that required composing or evaluating.
    pub fn misses(&self) -> u64 {
        self.partition.misses.load(Ordering::Relaxed)
    }

    /// Subgraph-level lookups answered from the cache.
    pub fn subgraph_hits(&self) -> u64 {
        self.subgraph.hits.load(Ordering::Relaxed)
    }

    /// Subgraph-level lookups that required a fresh `eval_subgraph` term.
    pub fn subgraph_misses(&self) -> u64 {
        self.subgraph.misses.load(Ordering::Relaxed)
    }

    /// Partition-level entries evicted by generation sweeps.
    pub fn evictions(&self) -> u64 {
        self.partition.evictions.load(Ordering::Relaxed)
    }

    /// Subgraph-level entries evicted by generation sweeps.
    pub fn subgraph_evictions(&self) -> u64 {
        self.subgraph.evictions.load(Ordering::Relaxed)
    }

    /// A serializable image of both levels (entries sorted by key).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            version: SNAPSHOT_VERSION,
            partition: self.partition.entries(|scored| *scored),
            subgraph: self.subgraph.entries(|term| *term),
        }
    }

    /// Inserts every entry of `snapshot` (counters are unaffected —
    /// restored entries only show up as later hits).
    pub fn restore(&self, snapshot: &CacheSnapshot) {
        if snapshot.version != SNAPSHOT_VERSION {
            return;
        }
        for (key, value) in &snapshot.partition {
            self.partition.insert(*key, *value);
        }
        for (key, value) in &snapshot.subgraph {
            self.subgraph.insert(*key, *value);
        }
    }

    /// Saves a snapshot of both levels to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; see [`CacheSnapshot::save`].
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.snapshot().save(path)
    }

    /// Loads a snapshot from `path` and restores every entry.
    ///
    /// # Errors
    ///
    /// See [`CacheSnapshot::load`].
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let snap = CacheSnapshot::load(path)?;
        self.restore(&snap);
        Ok(snap.len())
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg(groups: &[&[usize]]) -> Vec<Vec<NodeId>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&i| NodeId::from_index(i)).collect())
            .collect()
    }

    /// A partition key fingerprinting each member list on the fly.
    fn eval_key(
        fingerprint: u64,
        subgraphs: &[Vec<NodeId>],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> EvalKey {
        let fps = subgraphs.iter().map(|m| NodeSetFp::of_members(m));
        EvalKey::partition(fingerprint, fps, buffer, options)
    }

    /// A subgraph-term key fingerprinting the member list on the fly.
    fn subgraph_key(
        fingerprint: u64,
        members: &[NodeId],
        next_wgt: u64,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> EvalKey {
        let fp = NodeSetFp::of_members(members);
        EvalKey::subgraph(fingerprint, fp, next_wgt, buffer, options)
    }

    fn scored(ema: u64) -> ScoredEval {
        ScoredEval {
            ema_bytes: ema,
            energy_pj: ema as f64,
            buffer_bytes: 1,
            fits: true,
            error: false,
        }
    }

    fn term(ema: u64) -> SubgraphScore {
        SubgraphScore {
            ema_bytes: ema,
            energy_pj: ema as f64 * 0.5,
            fits: true,
        }
    }

    #[test]
    fn keys_distinguish_subgraph_boundaries_and_order() {
        let buf = BufferConfig::shared(1 << 20);
        let opt = EvalOptions::default();
        let a = eval_key(7, &sg(&[&[0, 1], &[2]]), &buf, opt);
        let b = eval_key(7, &sg(&[&[0], &[1, 2]]), &buf, opt);
        let c = eval_key(7, &sg(&[&[2], &[0, 1]]), &buf, opt);
        assert_ne!(a, b, "boundary placement must matter");
        assert_ne!(a, c, "subgraph order must matter");
        // Member order inside one subgraph is canonical by construction:
        // the fingerprint is order-independent, so permuted listings of
        // the same set share a key.
        assert_eq!(
            eval_key(7, &sg(&[&[0, 1], &[2]]), &buf, opt),
            eval_key(7, &sg(&[&[1, 0], &[2]]), &buf, opt)
        );
    }

    #[test]
    fn keys_distinguish_evaluators() {
        // Same subgraphs, buffer and options under two evaluator
        // fingerprints (two models/platforms) must never collide.
        let buf = BufferConfig::shared(1 << 20);
        let opt = EvalOptions::default();
        let a = eval_key(1, &sg(&[&[0, 1]]), &buf, opt);
        let b = eval_key(2, &sg(&[&[0, 1]]), &buf, opt);
        assert_ne!(a, b, "evaluator identity must be part of the key");
        assert_eq!(a.fingerprint, 1, "the raw fingerprint rides along");
        assert_eq!(b.fingerprint, 2);
    }

    #[test]
    fn keys_distinguish_buffer_and_options() {
        let parts = sg(&[&[0, 1]]);
        let base = eval_key(
            7,
            &parts,
            &BufferConfig::shared(1 << 20),
            EvalOptions::default(),
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(2 << 20),
                EvalOptions::default()
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::separate(1 << 19, 1 << 19),
                EvalOptions::default()
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(1 << 20),
                EvalOptions::with_cores(2)
            )
        );
        assert_ne!(
            base,
            eval_key(
                7,
                &parts,
                &BufferConfig::shared(1 << 20),
                EvalOptions::with_batch(4)
            )
        );
    }

    #[test]
    fn subgraph_keys_distinguish_next_wgt_and_members() {
        let members: Vec<NodeId> = [0usize, 1].iter().map(|&i| NodeId::from_index(i)).collect();
        let buf = BufferConfig::shared(1 << 20);
        let opt = EvalOptions::default();
        let base = subgraph_key(7, &members, 0, &buf, opt);
        assert_ne!(
            base,
            subgraph_key(7, &members, 4096, &buf, opt),
            "the successor's weight prefetch is a term input"
        );
        assert_ne!(base, subgraph_key(7, &members[..1], 0, &buf, opt));
        assert_ne!(base, subgraph_key(8, &members, 0, &buf, opt));
    }

    #[test]
    fn hit_and_miss_counters_per_level() {
        let cache = EvalCache::new();
        let key = eval_key(
            7,
            &sg(&[&[0]]),
            &BufferConfig::shared(64),
            EvalOptions::default(),
        );
        assert!(cache.get_partition(&key).is_none());
        cache.insert_partition(key, scored(7));
        assert_eq!(cache.get_partition(&key).unwrap().ema_bytes, 7);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.partition_entries(), 1);

        let members = [NodeId::from_index(0)];
        let skey = subgraph_key(
            7,
            &members,
            0,
            &BufferConfig::shared(64),
            Default::default(),
        );
        assert!(cache.get_subgraph(&skey).is_none());
        cache.insert_subgraph(skey, term(3));
        assert_eq!(cache.get_subgraph(&skey).unwrap().ema_bytes, 3);
        assert_eq!(cache.subgraph_hits(), 1);
        assert_eq!(cache.subgraph_misses(), 1);
        assert_eq!(cache.subgraph_entries(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bounds_entries_with_generation_sweeps() {
        // 64 total -> 32 per level -> 2 per shard; flooding one level far
        // past the budget must stay bounded and count evictions.
        let cache = EvalCache::with_capacity(64);
        let buf = BufferConfig::shared(64);
        for i in 0..4096usize {
            cache.insert_subgraph(
                subgraph_key(7, &[NodeId::from_index(i)], 0, &buf, Default::default()),
                term(i as u64),
            );
        }
        assert!(
            cache.subgraph_entries() <= 32,
            "level exceeded its budget: {}",
            cache.subgraph_entries()
        );
        assert!(cache.subgraph_evictions() > 0);
        // A hot entry that is touched between sweeps survives them.
        let hot = subgraph_key(7, &[NodeId::from_index(9999)], 0, &buf, Default::default());
        cache.insert_subgraph(hot, term(1));
        for i in 0..512usize {
            assert!(
                cache.get_subgraph(&hot).is_some(),
                "hot entry evicted at {i}"
            );
            cache.insert_subgraph(
                subgraph_key(
                    7,
                    &[NodeId::from_index(100_000 + i)],
                    0,
                    &buf,
                    Default::default(),
                ),
                term(2),
            );
        }
    }

    #[test]
    fn snapshot_round_trips_both_levels() {
        let cache = EvalCache::new();
        let pkey = eval_key(
            7,
            &sg(&[&[0, 1]]),
            &BufferConfig::shared(64),
            EvalOptions::default(),
        );
        cache.insert_partition(pkey, scored(11));
        let members = [NodeId::from_index(0)];
        let skey = subgraph_key(
            7,
            &members,
            5,
            &BufferConfig::shared(64),
            Default::default(),
        );
        cache.insert_subgraph(skey, term(13));

        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);
        let other = EvalCache::new();
        other.restore(&snap);
        assert_eq!(other.get_partition(&pkey).unwrap(), scored(11));
        assert_eq!(other.get_subgraph(&skey).unwrap(), term(13));
        assert_eq!(other.snapshot(), snap, "snapshot ordering is stable");
    }

    #[test]
    fn snapshot_split_by_fingerprint() {
        let cache = EvalCache::new();
        for fp in [1u64, 2] {
            cache.insert_partition(
                eval_key(
                    fp,
                    &sg(&[&[0]]),
                    &BufferConfig::shared(64),
                    EvalOptions::default(),
                ),
                scored(fp),
            );
            cache.insert_subgraph(
                subgraph_key(
                    fp,
                    &[NodeId::from_index(0)],
                    0,
                    &BufferConfig::shared(64),
                    Default::default(),
                ),
                term(fp),
            );
        }
        let (mine, rest) = cache.snapshot().split_fingerprint(1);
        assert_eq!(mine.len(), 2);
        assert_eq!(rest.len(), 2);
        assert!(mine.partition.iter().all(|(k, _)| k.fingerprint == 1));
        assert!(rest.partition.iter().all(|(k, _)| k.fingerprint == 2));
        let mut merged = mine.clone();
        merged.merge(rest);
        assert_eq!(merged.len(), 4);
        // Merging a duplicate is idempotent.
        merged.merge(mine);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let cache = EvalCache::new();
        cache.insert_partition(
            eval_key(
                9,
                &sg(&[&[0, 1], &[2]]),
                &BufferConfig::separate(1 << 19, 1 << 19),
                EvalOptions::default(),
            ),
            scored(21),
        );
        cache.insert_subgraph(
            subgraph_key(
                9,
                &[NodeId::from_index(2)],
                77,
                &BufferConfig::separate(1 << 19, 1 << 19),
                Default::default(),
            ),
            SubgraphScore {
                ema_bytes: 5,
                energy_pj: 1.0 / 3.0, // exercises exact f64 round-trip
                fits: false,
            },
        );
        cache.save(&path).unwrap();
        let restored = EvalCache::new();
        assert_eq!(restored.load(&path).unwrap(), 2);
        assert_eq!(restored.snapshot(), cache.snapshot());

        // Malformed files surface as InvalidData, not a panic.
        std::fs::write(&path, "{not json").unwrap();
        let err = CacheSnapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Unknown versions load as empty.
        let stale = CacheSnapshot {
            version: SNAPSHOT_VERSION + 1,
            partition: vec![(
                EvalKey {
                    fingerprint: 1,
                    lo: 2,
                    hi: 3,
                },
                scored(1),
            )],
            subgraph: Vec::new(),
        };
        stale.save(&path).unwrap();
        assert!(CacheSnapshot::load(&path).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_snapshots_upgrade_with_rederived_fingerprints() {
        // A hand-written v1 document (flattened u64 keys, exactly the PR 3
        // writer's layout) must load with keys equal to the ones the new
        // constructors produce for the same coordinates.
        let dir = std::env::temp_dir().join(format!("cocco-cache-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let max = u64::MAX;
        // Partition key: fp=9, shared(1MiB), cores=1, batch=1,
        // subgraphs {0,1} {2}; subgraph key: same coords, next_wgt=77,
        // members {2}.
        let text = format!(
            concat!(
                "{{\"version\":1,",
                "\"partition\":[[[9,0,{total},0,1,1,0,1,{max},2,{max}],",
                "{{\"ema_bytes\":21,\"energy_pj\":21.0,\"buffer_bytes\":1,",
                "\"fits\":true,\"error\":false}}]],",
                "\"subgraph\":[[[9,0,{total},0,1,1,77,2],",
                "{{\"ema_bytes\":5,\"energy_pj\":2.5,\"fits\":true}}]]}}"
            ),
            total = 1u64 << 20,
            max = max,
        );
        std::fs::write(&path, text).unwrap();
        let snap = CacheSnapshot::load(&path).unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.len(), 2);
        let expected_pkey = eval_key(9, &sg(&[&[0, 1], &[2]]), &buffer, options);
        let expected_skey = subgraph_key(9, &[NodeId::from_index(2)], 77, &buffer, options);
        assert_eq!(snap.partition[0].0, expected_pkey);
        assert_eq!(snap.partition[0].1, scored(21));
        assert_eq!(snap.subgraph[0].0, expected_skey);
        // Restoring serves hits under the re-derived keys.
        let cache = EvalCache::new();
        cache.restore(&snap);
        assert_eq!(cache.get_partition(&expected_pkey).unwrap(), scored(21));
        assert_eq!(cache.get_subgraph(&expected_skey).unwrap().ema_bytes, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a two-entry cache and returns it with its snapshot text.
    fn populated_snapshot_text() -> (EvalCache, String) {
        let cache = EvalCache::new();
        let buf = BufferConfig::shared(1 << 20);
        for i in 0..6usize {
            cache.insert_partition(
                eval_key(9, &sg(&[&[i], &[i + 10]]), &buf, EvalOptions::default()),
                scored(i as u64),
            );
            cache.insert_subgraph(
                subgraph_key(9, &[NodeId::from_index(i)], 7, &buf, EvalOptions::default()),
                term(i as u64),
            );
        }
        let text = serde_json::to_string(&cache.snapshot()).unwrap();
        (cache, text)
    }

    fn stale_temps(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count()
    }

    #[test]
    fn injected_write_error_cleans_temp_and_reports() {
        use cocco_faults::{FaultRates, FaultSite};
        let dir = std::env::temp_dir().join(format!("cocco-cache-werr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, _) = populated_snapshot_text();
        let plan =
            cocco_faults::FaultPlan::seeded(1, FaultRates::none().with(FaultSite::SaveWrite, 1.0));
        let path = dir.join("cache.json");
        let err = cache.snapshot().save_with(&path, &plan).unwrap_err();
        assert!(err.to_string().contains("injected write error"));
        assert!(!path.exists());
        assert_eq!(stale_temps(&dir), 0, "satellite: no stale .tmp.* files");
        assert!(plan.log().save_failures() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_save_salvages_on_load() {
        use cocco_faults::{FaultRates, FaultSite};
        let dir = std::env::temp_dir().join(format!("cocco-cache-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, _) = populated_snapshot_text();
        let full = cache.snapshot();
        let path = dir.join("cache.json");
        let plan =
            cocco_faults::FaultPlan::seeded(2, FaultRates::none().with(FaultSite::SaveTorn, 1.0));
        full.save_with(&path, &plan).expect("torn saves still land");
        let load_plan = cocco_faults::FaultPlan::disabled();
        let salvaged = CacheSnapshot::load_with(&path, &load_plan).expect("salvage");
        assert!(!salvaged.is_empty(), "torn snapshot must salvage entries");
        assert!(salvaged.len() < full.len(), "the tail was lost");
        assert_eq!(load_plan.log().salvaged_entries(), salvaged.len() as u64);
        // Every salvaged entry is exact — byte-identical to the original.
        for (key, value) in &salvaged.partition {
            assert_eq!(
                full.partition.iter().find(|(k, _)| k == key).unwrap().1,
                *value
            );
        }
        for (key, value) in &salvaged.subgraph {
            assert_eq!(
                full.subgraph.iter().find(|(k, _)| k == key).unwrap().1,
                *value
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_salvages_or_errors_never_panics() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, text) = populated_snapshot_text();
        let path = dir.join("cache.json");
        let mut salvages = 0usize;
        for cut in (0..text.len()).step_by(17) {
            let mut end = cut;
            while end < text.len() && !text.is_char_boundary(end) {
                end += 1;
            }
            std::fs::write(&path, &text[..end]).unwrap();
            match CacheSnapshot::load(&path) {
                Ok(snap) => {
                    assert_eq!(snap.version, SNAPSHOT_VERSION);
                    salvages += 1;
                }
                Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            }
        }
        assert!(salvages > 0, "later truncation points must salvage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_region_salvages_surviving_entries() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-corr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, text) = populated_snapshot_text();
        let path = dir.join("cache.json");
        // Splice garbage into the middle of the document, as the
        // SaveCorrupt fault does.
        let cut = text.len() / 2;
        std::fs::write(
            &path,
            format!("{}!corrupt!{}", &text[..cut], &text[cut + 20..]),
        )
        .unwrap();
        let plan = cocco_faults::FaultPlan::disabled();
        match CacheSnapshot::load_with(&path, &plan) {
            Ok(snap) => {
                assert!(!snap.is_empty());
                assert!(plan.log().salvaged_entries() > 0);
            }
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_v1_documents_salvage_with_upgraded_keys() {
        let dir = std::env::temp_dir().join(format!("cocco-cache-v1t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        let max = u64::MAX;
        // Two v1 partition entries; the document is cut inside the second,
        // so only the first survives — under its re-derived v2 key.
        let text = format!(
            concat!(
                "{{\"version\":1,\"partition\":[",
                "[[9,0,{total},0,1,1,0,1,{max},2,{max}],",
                "{{\"ema_bytes\":21,\"energy_pj\":21.0,\"buffer_bytes\":1,",
                "\"fits\":true,\"error\":false}}],",
                "[[9,0,{total},0,1,1,3,{max},4,{max}],",
                "{{\"ema_bytes\":22,\"energy"
            ),
            total = 1u64 << 20,
            max = max,
        );
        std::fs::write(&path, text).unwrap();
        let snap = CacheSnapshot::load(&path).expect("salvage the intact entry");
        assert_eq!(snap.partition.len(), 1);
        let expected = eval_key(
            9,
            &sg(&[&[0, 1], &[2]]),
            &BufferConfig::shared(1 << 20),
            EvalOptions::default(),
        );
        assert_eq!(snap.partition[0].0, expected);
        assert_eq!(snap.partition[0].1, scored(21));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = std::sync::Arc::new(EvalCache::new());
        let keys: Vec<EvalKey> = (0..64)
            .map(|i| {
                eval_key(
                    7,
                    &sg(&[&[i]]),
                    &BufferConfig::shared(64),
                    EvalOptions::default(),
                )
            })
            .collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = cache.clone();
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    if let Some(v) = cache.get_partition(key) {
                        assert_eq!(v.ema_bytes, i as u64, "thread {t}");
                    } else {
                        cache.insert_partition(*key, scored(i as u64));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.partition_entries(), 64);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get_partition(key).unwrap().ema_bytes, i as u64);
        }
    }
}
