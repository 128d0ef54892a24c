//! Hash-consing of object states and process statuses.
//!
//! Exploration revisits the same object states and per-process statuses over
//! and over: a million-configuration graph of a 4-process protocol typically
//! contains only a few thousand *distinct* object states and local states.
//! An [`Interner`] maps each distinct value to a stable `u32` id, so a whole
//! configuration compresses to a short id vector ([`CompactConfig`]) —
//! hashing and comparing configurations during deduplication then touches a
//! handful of words instead of walking deep state trees.
//!
//! The interner is safe to call from several expansion workers
//! concurrently; reads (the overwhelmingly common case — states repeat)
//! take a read lock only. Ids are *not* required to be deterministic across
//! runs: deduplication keys live and die inside one exploration, and graph
//! node indices are assigned by the deterministic merge, never by interning
//! order.

use lbsa_support::hash::{FxHashMap, FxHasher};
use lbsa_support::obs::Counter;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of interner / index shards (must be a power of two).
pub(crate) const SHARDS: usize = 16;

/// Assumed per-entry bookkeeping of one hash-map slot beyond the stored
/// key/value payload (control bytes, load-factor headroom, bucket
/// rounding). The memory gauges are *estimates*: the process's measured
/// peak resident set (`ttvbench`'s `peak_rss_mb`, read from `VmHWM`) is the
/// ground truth they are checked against.
const MAP_ENTRY_OVERHEAD: usize = 24;

/// Heap bytes behind one `Arc` header (strong + weak counts).
const ARC_HEADER: usize = 16;

/// Approximate heap bytes of one dedup-index entry: the shared
/// `Arc<[u32]>` key payload plus the map slot holding the `(Arc, u32)`
/// pair.
fn index_entry_bytes(key_len: usize) -> usize {
    ARC_HEADER
        + key_len * std::mem::size_of::<u32>()
        + std::mem::size_of::<(CompactConfig, u32)>()
        + MAP_ENTRY_OVERHEAD
}

/// Bits of an interned id reserved for the shard number.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// A configuration compressed to interned ids: object-state ids followed by
/// process-status ids. Reference-counted so the dedup index, the frontier,
/// and in-flight successor records can share one allocation.
pub type CompactConfig = Arc<[u32]>;

/// A concurrent hash-consing table: `intern` maps equal values to equal
/// `u32` ids, `resolve` maps ids back to shared values.
///
/// The table is split into [`SHARDS`] independently locked stores, with the
/// shard chosen by the value's hash and folded into the id's low bits
/// (`id = local_index << SHARD_BITS | shard`). Two consequences:
///
/// * **contention** — concurrent expansion workers interning unrelated
///   values take unrelated locks, and even same-shard readers stop bouncing
///   one lock's cache line across every core;
/// * **stability** — within one run, equal values still map to equal ids
///   regardless of which thread interns first (the shard is a pure function
///   of the value, and insertion inside a shard is serialized by its write
///   lock). Ids are *not* deterministic across runs, and nothing may depend
///   on that: deduplication keys live and die inside one exploration, and
///   graph node indices are assigned by the deterministic merge, never by
///   interning order.
///
/// Shard selection costs one extra Fx pass over the value per `intern`; the
/// shard's own map then hashes it again. For the deep object states this
/// table holds, that second pass is far cheaper than the read-lock
/// serialization it replaces once more than one worker is interning.
#[derive(Debug)]
pub struct Interner<T> {
    shards: [RwLock<Store<T>>; SHARDS],
    metrics: [ShardMetrics; SHARDS],
}

#[derive(Debug)]
struct Store<T> {
    map: FxHashMap<Arc<T>, u32>,
    items: Vec<Arc<T>>,
}

/// Per-shard hit/miss counters. Kept one pair per shard so concurrent
/// workers interning into unrelated shards bump unrelated cache lines,
/// matching the lock sharding they already benefit from.
#[derive(Debug, Default)]
struct ShardMetrics {
    hits: Counter,
    misses: Counter,
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Interner {
            shards: std::array::from_fn(|_| {
                RwLock::new(Store {
                    map: FxHashMap::default(),
                    items: Vec::new(),
                })
            }),
            metrics: std::array::from_fn(|_| ShardMetrics::default()),
        }
    }

    /// The shard a value lives in: a pure function of its content.
    fn shard_of(value: &T) -> usize {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Returns the id of `value`, inserting it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX >> SHARD_BITS` distinct values land in
    /// one shard, or if a lock is poisoned by a panicking worker.
    pub fn intern(&self, value: &T) -> u32 {
        let shard = Self::shard_of(value);
        if let Some(&id) = self.shards[shard]
            .read()
            .expect("interner lock poisoned")
            .map
            .get(value)
        {
            self.metrics[shard].hits.bump();
            return id;
        }
        let mut guard = self.shards[shard].write().expect("interner lock poisoned");
        if let Some(&id) = guard.map.get(value) {
            self.metrics[shard].hits.bump();
            return id; // raced with another writer
        }
        self.metrics[shard].misses.bump();
        Self::insert(&mut guard, shard, value)
    }

    /// [`Interner::intern`] for exclusive access: `&mut self` proves no
    /// other thread holds any lock, so `RwLock::get_mut` skips them
    /// entirely. This is the fast path of single-threaded exploration.
    ///
    /// # Panics
    ///
    /// Panics as [`Interner::intern`] does.
    pub fn intern_mut(&mut self, value: &T) -> u32 {
        let shard = Self::shard_of(value);
        let store = self.shards[shard]
            .get_mut()
            .expect("interner lock poisoned");
        if let Some(&id) = store.map.get(value) {
            self.metrics[shard].hits.bump();
            return id;
        }
        self.metrics[shard].misses.bump();
        Self::insert(store, shard, value)
    }

    fn insert(store: &mut Store<T>, shard: usize, value: &T) -> u32 {
        let local = u32::try_from(store.items.len()).expect("interner overflow");
        assert!(
            local <= u32::MAX >> SHARD_BITS,
            "interner shard overflow: more than 2^{} values in one shard",
            32 - SHARD_BITS
        );
        let arc = Arc::new(value.clone());
        store.items.push(Arc::clone(&arc));
        let id = (local << SHARD_BITS) | shard as u32;
        store.map.insert(arc, id);
        id
    }

    /// [`Interner::resolve`] for exclusive access: returns a plain reference
    /// without touching a lock or the reference count.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[must_use]
    pub fn resolve_mut(&mut self, id: u32) -> &T {
        self.shards[(id as usize) & (SHARDS - 1)]
            .get_mut()
            .expect("interner lock poisoned")
            .items
            .get((id >> SHARD_BITS) as usize)
            .expect("unknown interned id")
    }

    /// Resolves an id back to its value.
    ///
    /// For read-mostly hot paths prefer [`Interner::resolve_with`], which
    /// borrows the value under the shard's read lock instead of bumping and
    /// dropping the `Arc` reference count.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[must_use]
    pub fn resolve(&self, id: u32) -> Arc<T> {
        Arc::clone(
            self.shards[(id as usize) & (SHARDS - 1)]
                .read()
                .expect("interner lock poisoned")
                .items
                .get((id >> SHARD_BITS) as usize)
                .expect("unknown interned id"),
        )
    }

    /// Applies `f` to the value behind `id` without cloning the `Arc`: the
    /// borrow lives under the shard's read lock only as long as `f` runs.
    /// This is the shared-access analogue of [`Interner::resolve_mut`] —
    /// it skips the atomic reference-count round-trip that makes
    /// [`Interner::resolve`] show up in expansion profiles.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve_with<R>(&self, id: u32, f: impl FnOnce(&T) -> R) -> R {
        f(self.shards[(id as usize) & (SHARDS - 1)]
            .read()
            .expect("interner lock poisoned")
            .items
            .get((id >> SHARD_BITS) as usize)
            .expect("unknown interned id"))
    }

    /// Number of distinct values interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("interner lock poisoned").items.len())
            .sum()
    }

    /// Returns `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found the value already interned, summed across
    /// shards.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.metrics.iter().map(|m| m.hits.get()).sum()
    }

    /// Lookups that inserted a new distinct value, summed across shards.
    /// Equals [`Interner::len`] at rest.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.metrics.iter().map(|m| m.misses.get()).sum()
    }

    /// Approximate heap bytes held by the interner: per distinct value,
    /// one `Arc<T>` allocation, one map entry, and one `items` slot. The
    /// estimate is *structural* — it counts `size_of::<T>()`, not heap
    /// reachable *through* `T` — and it feeds the `mem.*` registry gauges,
    /// where an octave of error is acceptable and a deep traversal is not.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let per_entry = ARC_HEADER
            + std::mem::size_of::<T>()
            + std::mem::size_of::<(Arc<T>, u32)>()
            + MAP_ENTRY_OVERHEAD
            + std::mem::size_of::<Arc<T>>();
        self.len() * per_entry
    }
}

impl<T: Eq + Hash + Clone> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The deduplication index: `CompactConfig` → graph node index, sharded by
/// configuration hash.
///
/// Concurrency discipline: during a level's expansion, workers hold `&self`
/// and [`probe`](ShardedIndex::probe) concurrently; between levels the merge
/// holds `&mut self` and inserts. The borrow checker enforces the phases, so
/// no locking is needed.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<FxHashMap<CompactConfig, u32>>,
    bytes: usize,
}

impl ShardedIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ShardedIndex {
            shards: (0..SHARDS).map(|_| FxHashMap::default()).collect(),
            bytes: 0,
        }
    }

    /// Shard selection must be a pure function of the key's content, but it
    /// need not be a strong hash — a cheap mix of the first and last ids
    /// (an object state and a process status) spreads configurations well
    /// without hashing the whole key twice per probe.
    pub(crate) fn shard_of(key: &[u32]) -> usize {
        let mix = key.first().copied().unwrap_or(0).wrapping_mul(0x9E37_79B9)
            ^ key.last().copied().unwrap_or(0).wrapping_mul(0x85EB_CA6B);
        (mix >> 24) as usize & (SHARDS - 1)
    }

    /// Looks up the node index of `key`, if already assigned.
    #[must_use]
    pub fn probe(&self, key: &[u32]) -> Option<u32> {
        self.shards[Self::shard_of(key)].get(key).copied()
    }

    /// Assigns `index` to `key` (merge phase only).
    pub fn insert(&mut self, key: CompactConfig, index: u32) {
        let shard = Self::shard_of(&key);
        self.bytes += index_entry_bytes(key.len());
        self.shards[shard].insert(key, index);
    }

    /// Number of configurations indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// Returns `true` if no configuration is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }

    /// Approximate heap bytes held by the index, tracked incrementally at
    /// insert time (O(1) to read). Structural estimate — see
    /// [`Interner::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

impl Default for ShardedIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// The work-stealing frontier's deduplication index: `CompactConfig` → node
/// index, sharded like [`ShardedIndex`] but safe for concurrent *insertion*.
///
/// Where [`ShardedIndex`] relies on the engine's level barrier to separate
/// probe and insert phases, the work-stealing frontier has no barrier:
/// workers discover and claim configurations continuously. Each shard is an
/// independently locked map, and node indices come from one shared atomic
/// counter bumped under the winning shard's write lock — so ids are dense
/// (`0..len`), unique, and each key is inserted by exactly one winner. Ids
/// depend on discovery order and are therefore **not** deterministic across
/// runs; the work-stealing mode's contract is verdict equality, not graph
/// byte-equality (see `crate::explore`).
#[derive(Debug)]
pub struct ConcurrentIndex {
    shards: [RwLock<FxHashMap<CompactConfig, u32>>; SHARDS],
    next: std::sync::atomic::AtomicU32,
    bytes: AtomicUsize,
}

impl ConcurrentIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ConcurrentIndex {
            shards: std::array::from_fn(|_| RwLock::new(FxHashMap::default())),
            next: std::sync::atomic::AtomicU32::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Looks up the node index of `key`, if some worker already claimed it.
    /// A hit is final (the index is insert-only), but a miss is only a
    /// snapshot — claiming requires [`ConcurrentIndex::get_or_insert`].
    #[must_use]
    pub fn probe(&self, key: &[u32]) -> Option<u32> {
        self.shards[ShardedIndex::shard_of(key)]
            .read()
            .expect("index lock poisoned")
            .get(key)
            .copied()
    }

    /// Returns `key`'s node index, assigning the next free one if this call
    /// is the first to claim it. The boolean is `true` for the (unique)
    /// winning insert — the caller that sees `true` owns the node: it must
    /// record the configuration and schedule its expansion.
    pub fn get_or_insert(&self, key: &CompactConfig) -> (u32, bool) {
        let shard = ShardedIndex::shard_of(key);
        if let Some(&id) = self.shards[shard]
            .read()
            .expect("index lock poisoned")
            .get(key.as_ref())
        {
            return (id, false);
        }
        let mut guard = self.shards[shard].write().expect("index lock poisoned");
        if let Some(&id) = guard.get(key.as_ref()) {
            return (id, false); // raced with another winner
        }
        // Bumped under the shard's write lock: every fetch_add result is
        // inserted exactly once, so ids are dense even across shards.
        let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert!(id < u32::MAX, "concurrent index overflow");
        self.bytes
            .fetch_add(index_entry_bytes(key.len()), Ordering::Relaxed);
        guard.insert(Arc::clone(key), id);
        (id, true)
    }

    /// Batched [`ConcurrentIndex::get_or_insert`]: resolves every key of
    /// one task's successor set with at most one read-lock and one
    /// write-lock acquisition *per shard touched*, instead of up to two
    /// lock round-trips per key. `results[i]` receives `(id, inserted)`
    /// for `keys[i]`, with the same winner semantics as the scalar call
    /// (duplicate keys inside one batch: the first occurrence wins, the
    /// rest report hits). Returns the number of keys resolved without
    /// inserting — the batch's hit count.
    ///
    /// Ids are still handed out by the shared counter under the winning
    /// shard's write lock, so they stay dense and unique; within a batch
    /// they follow key order per shard (shard visit order is the probe
    /// order of first misses), which is as discovery-ordered as the
    /// barrier-free engine gets.
    pub fn get_or_insert_batch(
        &self,
        keys: &[CompactConfig],
        results: &mut Vec<(u32, bool)>,
    ) -> u64 {
        results.clear();
        results.resize(keys.len(), (u32::MAX, false));
        let mut hits = 0u64;
        // Tiny batches take the scalar path: once dedup saturates, most
        // tasks miss on zero, one, or two keys, and the shard-grouping
        // pass below would cost more than the lock round-trips it saves.
        // Duplicate keys inside a tiny batch still resolve correctly —
        // the later occurrence re-checks under the lock and reports a hit.
        if keys.len() <= 2 {
            for (i, key) in keys.iter().enumerate() {
                let (id, inserted) = self.get_or_insert(key);
                results[i] = (id, inserted);
                if !inserted {
                    hits += 1;
                }
            }
            return hits;
        }
        // Phase 1: group by shard and probe each touched shard under one
        // read lock. SHARDS is small, so a fixed per-shard index list
        // beats any allocation-heavy grouping.
        let mut by_shard: [Vec<usize>; SHARDS] = std::array::from_fn(|_| Vec::new());
        for (i, key) in keys.iter().enumerate() {
            by_shard[ShardedIndex::shard_of(key)].push(i);
        }
        for (shard, members) in by_shard.iter_mut().enumerate() {
            if members.is_empty() {
                continue;
            }
            {
                let guard = self.shards[shard].read().expect("index lock poisoned");
                members.retain(|&i| match guard.get(keys[i].as_ref()) {
                    Some(&id) => {
                        results[i] = (id, false);
                        hits += 1;
                        false
                    }
                    None => true,
                });
            }
            if members.is_empty() {
                continue;
            }
            // Phase 2: one write lock per shard with misses; re-check
            // under the lock (another worker, or an earlier duplicate in
            // this very batch, may have won meanwhile).
            let mut guard = self.shards[shard].write().expect("index lock poisoned");
            for &i in members.iter() {
                if let Some(&id) = guard.get(keys[i].as_ref()) {
                    results[i] = (id, false);
                    hits += 1;
                    continue;
                }
                let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                assert!(id < u32::MAX, "concurrent index overflow");
                self.bytes
                    .fetch_add(index_entry_bytes(keys[i].len()), Ordering::Relaxed);
                guard.insert(Arc::clone(&keys[i]), id);
                results[i] = (id, true);
            }
        }
        hits
    }

    /// Number of configurations claimed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next.load(std::sync::atomic::Ordering::Acquire) as usize
    }

    /// Returns `true` if no configuration has been claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by the index, tracked incrementally by
    /// winning inserts (one relaxed add each; O(1) to read — this is the
    /// estimate a live watcher polls mid-run). Structural estimate — see
    /// [`Interner::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Default for ConcurrentIndex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_a_bijection() {
        let interner: Interner<String> = Interner::new();
        let a = interner.intern(&"alpha".to_string());
        let b = interner.intern(&"beta".to_string());
        let a2 = interner.intern(&"alpha".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(*interner.resolve(a), "alpha");
        assert_eq!(*interner.resolve(b), "beta");
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.hits(), 1);
        assert_eq!(interner.misses(), 2);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let interner: Interner<u64> = Interner::new();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| (0..500u64).map(|v| interner.intern(&v)).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(interner.len(), 500);
        for other in &ids[1..] {
            assert_eq!(
                &ids[0], other,
                "same value must get the same id in every thread"
            );
        }
        for (v, &id) in ids[0].iter().enumerate() {
            assert_eq!(*interner.resolve(id), v as u64);
        }
        // Exactly one interning per distinct value wins the insert; every
        // other lookup (including write-race losers) counts as a hit.
        assert_eq!(interner.misses(), 500);
        assert_eq!(interner.hits() + interner.misses(), 4 * 500);
    }

    #[test]
    fn resolve_with_matches_resolve() {
        let mut interner: Interner<String> = Interner::new();
        let ids: Vec<u32> = (0..64)
            .map(|i| interner.intern(&format!("value-{i}")))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let expected = format!("value-{i}");
            assert_eq!(*interner.resolve(id), expected);
            assert_eq!(interner.resolve_with(id, |v| v.len()), expected.len());
            assert_eq!(interner.resolve_mut(id), &expected);
            // The shard lives in the id's low bits and matches the value's
            // shard function, so every accessor agrees on the store.
            assert_eq!(
                (id as usize) & (SHARDS - 1),
                Interner::<String>::shard_of(&expected)
            );
        }
        assert_eq!(interner.len(), 64);
    }

    #[test]
    fn concurrent_index_assigns_dense_unique_ids() {
        let index = ConcurrentIndex::new();
        assert!(index.is_empty());
        // Four threads race to claim an overlapping key range; every key
        // must get exactly one winner and ids must be dense.
        let results: Vec<Vec<(u32, bool)>> = std::thread::scope(|s| {
            (0..4u32)
                .map(|t| {
                    let index = &index;
                    s.spawn(move || {
                        (t * 50..t * 50 + 200)
                            .map(|i| {
                                let key: CompactConfig = vec![i, i.wrapping_mul(7), i ^ 3].into();
                                index.get_or_insert(&key)
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let distinct_keys = 350; // 0..350 across the overlapping ranges
        assert_eq!(index.len(), distinct_keys);
        let mut winners = vec![0usize; distinct_keys];
        let mut id_of_key: FxHashMap<u32, u32> = FxHashMap::default();
        for thread_results in &results {
            for &(id, won) in thread_results {
                assert!((id as usize) < distinct_keys, "ids must be dense");
                if won {
                    winners[id as usize] += 1;
                }
            }
        }
        assert!(winners.iter().all(|&w| w == 1), "exactly one winner per id");
        // Same key ⇒ same id, in every thread.
        for (t, thread_results) in results.iter().enumerate() {
            for (j, &(id, _)) in thread_results.iter().enumerate() {
                let key = t as u32 * 50 + j as u32;
                match id_of_key.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => assert_eq!(*e.get(), id),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(id);
                    }
                }
            }
        }
        // probe agrees with get_or_insert after the fact.
        for i in 0..distinct_keys as u32 {
            let key: Vec<u32> = vec![i, i.wrapping_mul(7), i ^ 3];
            assert_eq!(index.probe(&key), Some(id_of_key[&i]));
        }
    }

    #[test]
    fn batch_get_or_insert_matches_scalar_semantics() {
        let index = ConcurrentIndex::new();
        let keys: Vec<CompactConfig> = (0..100u32)
            .map(|i| vec![i % 40, (i % 40).wrapping_mul(13), i % 40].into())
            .collect();
        let mut results = Vec::new();
        let hits = index.get_or_insert_batch(&keys, &mut results);
        assert_eq!(results.len(), keys.len());
        // 0..40 distinct keys; within the batch the first occurrence of
        // each wins, later duplicates are hits.
        let inserted = results.iter().filter(|&&(_, won)| won).count();
        assert_eq!(inserted, 40);
        assert_eq!(hits, 60);
        assert_eq!(index.len(), 40);
        // Ids are dense and agree with the scalar path.
        for (i, &(id, _)) in results.iter().enumerate() {
            assert!((id as usize) < 40, "ids must be dense");
            assert_eq!(index.get_or_insert(&keys[i]), (id, false));
            assert_eq!(index.probe(&keys[i]), Some(id));
        }
        // A second batch over the same keys is all hits.
        let hits2 = index.get_or_insert_batch(&keys, &mut results);
        assert_eq!(hits2, 100);
        assert!(results.iter().all(|&(_, won)| !won));
    }

    #[test]
    fn concurrent_batches_assign_one_winner_per_key() {
        let index = ConcurrentIndex::new();
        let results: Vec<Vec<(u32, bool)>> = std::thread::scope(|s| {
            (0..4u32)
                .map(|t| {
                    let index = &index;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut all = Vec::new();
                        // Overlapping windows, batched 16 at a time.
                        for chunk_start in (t * 50..t * 50 + 200).step_by(16) {
                            let keys: Vec<CompactConfig> = (chunk_start
                                ..(chunk_start + 16).min(t * 50 + 200))
                                .map(|i| vec![i, i.wrapping_mul(7), i ^ 3].into())
                                .collect();
                            index.get_or_insert_batch(&keys, &mut out);
                            all.extend(out.iter().copied());
                        }
                        all
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let distinct = 350;
        assert_eq!(index.len(), distinct);
        let mut winners = vec![0usize; distinct];
        for thread_results in &results {
            for &(id, won) in thread_results {
                assert!((id as usize) < distinct, "ids must be dense");
                if won {
                    winners[id as usize] += 1;
                }
            }
        }
        assert!(winners.iter().all(|&w| w == 1), "exactly one winner per id");
        // Batched and scalar probes agree.
        for i in 0..distinct as u32 {
            let key: Vec<u32> = vec![i, i.wrapping_mul(7), i ^ 3];
            assert!(index.probe(&key).is_some());
        }
    }

    #[test]
    fn sharded_index_round_trips() {
        let mut index = ShardedIndex::new();
        assert!(index.is_empty());
        for i in 0..100u32 {
            let key: CompactConfig = vec![i, i + 1, i + 2].into();
            assert_eq!(index.probe(&key), None);
            index.insert(key, i);
        }
        assert_eq!(index.len(), 100);
        for i in 0..100u32 {
            assert_eq!(index.probe(&[i, i + 1, i + 2]), Some(i));
        }
    }

    #[test]
    fn approx_bytes_scales_with_entries() {
        let interner: Interner<String> = Interner::new();
        assert_eq!(interner.approx_bytes(), 0);
        for i in 0..10 {
            interner.intern(&format!("v{i}"));
        }
        let ten = interner.approx_bytes();
        assert!(ten > 0);
        for i in 10..20 {
            interner.intern(&format!("v{i}"));
        }
        assert_eq!(
            interner.approx_bytes(),
            2 * ten,
            "linear in distinct values"
        );

        let mut index = ShardedIndex::new();
        assert_eq!(index.approx_bytes(), 0);
        index.insert(vec![1, 2, 3].into(), 0);
        let one = index.approx_bytes();
        assert!(one >= 3 * 4, "at least the key payload");
        index.insert(vec![4, 5, 6].into(), 1);
        assert_eq!(index.approx_bytes(), 2 * one);

        let conc = ConcurrentIndex::new();
        assert_eq!(conc.approx_bytes(), 0);
        let key: CompactConfig = vec![7, 8, 9].into();
        conc.get_or_insert(&key);
        let first = conc.approx_bytes();
        assert!(first > 0);
        conc.get_or_insert(&key);
        assert_eq!(conc.approx_bytes(), first, "hits do not grow the estimate");
    }
}
