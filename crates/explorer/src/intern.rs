//! Hash-consing of object states and process statuses, and the dedup
//! indexes over the resulting key rows.
//!
//! Exploration revisits the same object states and per-process statuses over
//! and over: a million-configuration graph of a 4-process protocol typically
//! contains only a few thousand *distinct* object states and local states.
//! An [`Interner`] maps each distinct value to a stable `u32` id, so a whole
//! configuration compresses to a short row of ids — hashing and comparing
//! configurations during deduplication then touches a handful of words
//! instead of walking deep state trees.
//!
//! The interner is safe to call from several expansion workers
//! concurrently; reads (the overwhelmingly common case — states repeat)
//! take a read lock only. Ids are *not* required to be deterministic across
//! runs: deduplication keys live and die inside one exploration, and graph
//! node indices are assigned by the engines' dedup indexes, never by
//! interning order.
//!
//! The dedup indexes — [`ShardedIndex`] for the level-sync engine,
//! [`ConcurrentIndex`] for work stealing — keep the key rows themselves,
//! end to end in flat `Vec<u32>` stores, and find them through
//! open-addressed tables of `u32` ids: no row is its own allocation, and
//! no key is held twice. At the end of a run the rows become the graph's
//! nodes (`crate::graph`).

use lbsa_support::hash::{FxHashMap, FxHasher};
use lbsa_support::obs::Counter;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of interner / concurrent-index shards (must be a power of two).
pub(crate) const SHARDS: usize = 16;

/// Assumed per-entry bookkeeping of one hash-map slot beyond the stored
/// key/value payload (control bytes, load-factor headroom, bucket
/// rounding). The interner's memory gauge is an *estimate*: the process's
/// measured peak resident set (`ttvbench`'s `peak_rss_mb`, read from
/// `VmHWM`) is the ground truth it is checked against.
const MAP_ENTRY_OVERHEAD: usize = 24;

/// Heap bytes behind one `Arc` header (strong + weak counts).
const ARC_HEADER: usize = 16;

/// Bits of an interned id reserved for the shard number.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// A configuration compressed to interned ids, object-state ids followed by
/// process-status ids, as one shared allocation: the form for callers that
/// keep keys one by one. The dedup indexes take any `&[u32]` and copy it
/// into their flat row stores, so the engines never build one.
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
    /// It skips the atomic reference-count round-trip that makes
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

    /// Every value interned so far, in a table indexed by id (`None` in
    /// the gaps the shard bits leave): bulk resolution without a lock per
    /// id.
    pub(crate) fn by_id(&self) -> Vec<Option<Arc<T>>> {
        let mut table = Vec::new();
        for (shard, store) in self.shards.iter().enumerate() {
            let store = store.read().expect("interner lock poisoned");
            for (local, item) in store.items.iter().enumerate() {
                let id = (local << SHARD_BITS) | shard;
                if table.len() <= id {
                    table.resize(id + 1, None);
                }
                table[id] = Some(Arc::clone(item));
            }
        }
        table
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

/// Marks an empty slot of a [`RowTable`].
const EMPTY: u32 = 0;

/// The lowest hash bit a [`RowTable`] reads: a table of `2^b` slots
/// starts probing at the top `b` bits of a row's hash, and tags its slot
/// with the `32 - b` bits below those, which end here.
const TAG_LOW_BIT: u32 = 32;

/// Slots a [`RowTable`] starts with on its first insert.
const MIN_SLOTS: usize = 16;

/// Makes room for `additional` more elements at the end of `v`, a flat
/// array that grows for a whole run, quadrupling its capacity when it is
/// full. A grown array leaves its old buffer behind, and an allocator that
/// serves arrays this size from its heap keeps that buffer resident; with
/// quadrupling the buffers left behind add up to a third of the live array
/// instead of about all of it. The spare capacity is address space nothing
/// has written, so it costs no resident memory.
pub(crate) fn reserve_quadrupling<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(3 * v.len() + additional);
    }
}

/// The hash both dedup indexes place a key row by: Fx over the row's
/// length and ids; its top bits pick a table slot and a tag.
pub(crate) fn row_hash(key: &[u32]) -> u64 {
    lbsa_support::hash::fx_hash(&key)
}

/// The shard of a key row: a cheap mix of its first and last ids (an
/// object state and a process status). Rows that differ in one process's
/// status but share those mostly share a shard, so a worker expanding one
/// region of the state space keeps to a few shards, and two workers in
/// different regions rarely take the same lock. Shard picked by the full
/// row hash instead, which spreads every worker's keys over every shard,
/// measured about 25% slower on k-set n = 9 at two threads on a 2-core
/// host.
pub(crate) fn shard_of(key: &[u32]) -> usize {
    let mix = key.first().copied().unwrap_or(0).wrapping_mul(0x9E37_79B9)
        ^ key.last().copied().unwrap_or(0).wrapping_mul(0x85EB_CA6B);
    (mix >> 24) as usize & (SHARDS - 1)
}

/// Key rows of one width stored end to end in one `Vec<u32>` — row `i` is
/// `rows[i * width..(i + 1) * width]` — and an open-addressed table of
/// their ids: linear probing over `2^b` `u32` slots, at most half full. A
/// slot is [`EMPTY`] or holds `id + 1` in its low `b` bits (ids stay below
/// `2^(b - 1)`) and, in the bits above, a tag of the row's hash. A lookup
/// hashes the key once and compares it in place against the rows whose
/// tags match along its probe sequence; no key is stored twice, and no
/// row is its own allocation.
#[derive(Debug, Default)]
struct RowTable {
    rows: Vec<u32>,
    /// Ids per row, fixed by the first insert.
    width: usize,
    /// Number of rows (`rows.len() / width`, kept apart for width 0).
    len: usize,
    slots: Vec<u32>,
}

impl RowTable {
    fn row(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.rows[at..at + self.width]
    }

    /// log2 of the slot count.
    fn bits(&self) -> u32 {
        self.slots.len().trailing_zeros()
    }

    /// The first slot of `hash`'s probe sequence and the tag its slot
    /// carries (see [`TAG_LOW_BIT`]).
    fn place(&self, hash: u64) -> (usize, u64) {
        let bits = self.bits();
        let home = (hash >> (64 - bits)) as usize;
        let tag = (hash >> TAG_LOW_BIT) & ((1 << (32 - bits)) - 1);
        (home, tag)
    }

    /// The slot value of row `id` with tag `tag`.
    fn slot_value(&self, id: u32, tag: u64) -> u32 {
        ((tag << self.bits()) | u64::from(id + 1)) as u32
    }

    /// `Ok(id)` if `key` (whose hash is `hash`) is stored, else `Err` of
    /// the empty slot an insert would take.
    fn find(&self, key: &[u32], hash: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let (bits, mask) = (self.bits(), self.slots.len() - 1);
        let (mut slot, tag) = self.place(hash);
        loop {
            let value = self.slots[slot];
            if value == EMPTY {
                return Err(slot);
            }
            if u64::from(value) >> bits == tag {
                let id = (value as usize & mask) as u32 - 1;
                if self.row(id) == key {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores `key`, which [`RowTable::find`] just missed at `slot`, as the
    /// next row; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s width differs from the stored rows', or past
    /// `u32::MAX - 1` rows.
    fn insert_at(&mut self, key: &[u32], hash: u64, mut slot: usize) -> u32 {
        if self.len == 0 {
            self.width = key.len();
        }
        assert_eq!(
            key.len(),
            self.width,
            "key rows of one index have one width"
        );
        let id = u32::try_from(self.len)
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("a row index holds fewer than u32::MAX rows");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            slot = self.find(key, hash).expect_err("the key was missing");
        }
        self.slots[slot] = self.slot_value(id, self.place(hash).1);
        reserve_quadrupling(&mut self.rows, key.len());
        self.rows.extend_from_slice(key);
        self.len += 1;
        id
    }

    /// Doubles the slot array and re-places every row, hashing each once.
    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots = vec![EMPTY; capacity];
        let mask = capacity - 1;
        for id in 0..self.len as u32 {
            let (mut slot, tag) = self.place(row_hash(self.row(id)));
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = self.slot_value(id, tag);
        }
    }

    /// Bytes of the row store in use. Its spare capacity is not counted:
    /// nothing has written it (see [`reserve_quadrupling`]).
    fn row_bytes(&self) -> usize {
        self.rows.len() * size_of::<u32>()
    }

    /// Bytes of the slot array, every slot of which is written.
    fn slot_bytes(&self) -> usize {
        self.slots.len() * size_of::<u32>()
    }
}

/// The level-sync engine's deduplication index, which is also its row
/// store: key rows end to end in one flat `Vec<u32>`, and an
/// open-addressed table of node ids over them (see [`RowTable`]). Node
/// `i`'s row is the `i`-th inserted; ids are dense, `0..len`, in insertion
/// order.
///
/// The name is historical: the table is one, not split into shards. Only
/// the single-threaded level-sync engine inserts, so no lock guards it;
/// the borrow checker keeps probes (`&self`) and inserts (`&mut self`)
/// apart.
#[derive(Debug, Default)]
pub struct ShardedIndex {
    table: RowTable,
}

impl ShardedIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ShardedIndex::default()
    }

    /// Looks up the node index of `key`, if already assigned.
    #[must_use]
    pub fn probe(&self, key: &[u32]) -> Option<u32> {
        self.table.find(key, row_hash(key)).ok()
    }

    /// Appends `key` as node `index`, which must be the next dense id.
    ///
    /// # Panics
    ///
    /// Panics unless `index == self.len()`, if `key` is already indexed,
    /// or if its width differs from the rows already stored.
    pub fn insert(&mut self, key: impl AsRef<[u32]>, index: u32) {
        let key = key.as_ref();
        assert_eq!(
            index as usize,
            self.len(),
            "ShardedIndex ids are dense: insert must pass index == len()"
        );
        let hash = row_hash(key);
        match self.table.find(key, hash) {
            Ok(id) => panic!("key already indexed as node {id}"),
            Err(slot) => self.table.insert_at(key, hash, slot),
        };
    }

    /// `key`'s node index, appending it as the next node on a miss; the
    /// boolean is `true` when it was appended. Hashes `key` once.
    pub(crate) fn get_or_insert(&mut self, key: &[u32]) -> (u32, bool) {
        let hash = row_hash(key);
        match self.table.find(key, hash) {
            Ok(id) => (id, false),
            Err(slot) => (self.table.insert_at(key, hash, slot), true),
        }
    }

    /// Node `id`'s key row.
    pub(crate) fn row(&self, id: u32) -> &[u32] {
        self.table.row(id)
    }

    /// Consumes the index into its rows, end to end in node order.
    pub(crate) fn into_rows(self) -> Vec<u32> {
        self.table.rows
    }

    /// Number of configurations indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len
    }

    /// Returns `true` if no configuration is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// Heap bytes held by the index: the rows in use and the slot array
    /// (O(1) to read).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.table.row_bytes() + self.table.slot_bytes()
    }

    /// Heap bytes of the slot array alone: what the index holds beyond
    /// the rows it hands to the graph.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.table.slot_bytes()
    }
}

/// The work-stealing frontier's deduplication index: key rows → node
/// index, safe for concurrent *insertion*.
///
/// Where [`ShardedIndex`] relies on a single inserting thread, the
/// work-stealing frontier has none: workers discover and claim
/// configurations continuously. The index is split into [`SHARDS`]
/// independently locked shards, the shard picked by a key's hash; each
/// holds its rows flat in a [`RowTable`] under local ids, and a column
/// mapping each local id to its node index. Node indices come from one
/// shared atomic counter bumped under the winning shard's write lock — so
/// ids are dense (`0..len`), unique, and each key is inserted by exactly
/// one winner. Ids depend on discovery order and are therefore **not**
/// deterministic across runs; the work-stealing mode's contract is verdict
/// equality, not graph byte-equality (see `crate::explore`).
#[derive(Debug)]
pub struct ConcurrentIndex {
    shards: [RwLock<Shard>; SHARDS],
    next: AtomicU32,
    bytes: AtomicUsize,
}

/// One [`ConcurrentIndex`] shard: its rows and each row's node index.
#[derive(Debug, Default)]
struct Shard {
    table: RowTable,
    /// `ids[local]` is the node index of the shard's row `local`.
    ids: Vec<u32>,
}

impl Shard {
    fn find(&self, key: &[u32], hash: u64) -> Result<u32, usize> {
        self.table
            .find(key, hash)
            .map(|local| self.ids[local as usize])
    }

    fn bytes(&self) -> usize {
        self.table.row_bytes() + self.table.slot_bytes() + self.ids.len() * size_of::<u32>()
    }
}

/// Reusable buffers of one caller of [`ConcurrentIndex::resolve`]: kept
/// from batch to batch, so a warm caller resolves without allocating.
#[derive(Debug, Default)]
pub(crate) struct IndexBatch {
    hashes: Vec<u64>,
    /// Key positions bucketed by shard.
    order: Vec<u32>,
    /// `(node index, inserted)` per key, in key order.
    pub(crate) results: Vec<(u32, bool)>,
}

impl ConcurrentIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ConcurrentIndex {
            shards: std::array::from_fn(|_| RwLock::default()),
            next: AtomicU32::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Looks up the node index of `key`, if some worker already claimed it.
    /// A hit is final (the index is insert-only), but a miss is only a
    /// snapshot — claiming requires [`ConcurrentIndex::get_or_insert`].
    #[must_use]
    pub fn probe(&self, key: &[u32]) -> Option<u32> {
        self.shards[shard_of(key)]
            .read()
            .expect("index lock poisoned")
            .find(key, row_hash(key))
            .ok()
    }

    /// Returns `key`'s node index, assigning the next free one if this call
    /// is the first to claim it. The boolean is `true` for the (unique)
    /// winning insert — the caller that sees `true` owns the node: it must
    /// record the configuration and schedule its expansion.
    pub fn get_or_insert(&self, key: &[u32]) -> (u32, bool) {
        if let Some(id) = self.probe(key) {
            return (id, false);
        }
        let mut shard = self.shards[shard_of(key)]
            .write()
            .expect("index lock poisoned");
        let before = shard.bytes();
        let claim = self.claim_locked(&mut shard, key, row_hash(key));
        self.bytes
            .fetch_add(shard.bytes() - before, Ordering::Relaxed);
        claim
    }

    /// Claims `key` in its write-locked `shard`: a hit if another winner
    /// got there first, else the next node index. The caller accounts the
    /// shard's growth into `bytes`.
    fn claim_locked(&self, shard: &mut Shard, key: &[u32], hash: u64) -> (u32, bool) {
        let slot = match shard.find(key, hash) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        // Bumped under the shard's write lock: every fetch_add result is
        // inserted exactly once, so ids are dense even across shards.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(id < u32::MAX, "concurrent index overflow");
        shard.table.insert_at(key, hash, slot);
        shard.ids.push(id);
        (id, true)
    }

    /// Batched [`ConcurrentIndex::get_or_insert`]: resolves every key of
    /// `keys` through [`ConcurrentIndex::resolve`], with at most one
    /// read-lock and one write-lock acquisition *per shard touched*.
    /// `results[i]` receives `(id, inserted)` for `keys[i]`, with the same
    /// winner semantics as the scalar call (duplicate keys inside one
    /// batch: the first occurrence wins, the rest report hits). Returns
    /// the number of keys resolved without inserting — the batch's hit
    /// count.
    pub fn get_or_insert_batch<K: AsRef<[u32]>>(
        &self,
        keys: &[K],
        results: &mut Vec<(u32, bool)>,
    ) -> u64 {
        let mut batch = IndexBatch {
            results: std::mem::take(results),
            ..IndexBatch::default()
        };
        self.resolve(keys.len(), |i| keys[i].as_ref(), &mut batch);
        *results = batch.results;
        results.iter().filter(|&&(_, inserted)| !inserted).count() as u64
    }

    /// Resolves keys `key(0..len)` into `batch.results`, shard by shard:
    /// each key is hashed once and bucketed by shard (a stable counting
    /// sort, so a shard's keys keep their order), then each shard touched
    /// is probed under one read lock and its misses are claimed under one
    /// write lock, which re-checks each (another worker, or an earlier
    /// duplicate in this very batch, may have won meanwhile). Shards are
    /// visited in ring order from the first key's, so workers whose
    /// batches start in different regions start on different locks.
    ///
    /// Returns the keys that missed the read probe and were found under
    /// the write lock: duplicates within the batch and keys another worker
    /// claimed in between.
    pub(crate) fn resolve<'k>(
        &self,
        len: usize,
        key: impl Fn(usize) -> &'k [u32],
        batch: &mut IndexBatch,
    ) -> u64 {
        let IndexBatch {
            hashes,
            order,
            results,
        } = batch;
        let mut starts = [0u32; SHARDS + 1];
        hashes.clear();
        hashes.extend((0..len).map(|i| {
            starts[shard_of(key(i)) + 1] += 1;
            row_hash(key(i))
        }));
        for s in 0..SHARDS {
            starts[s + 1] += starts[s];
        }
        order.clear();
        order.resize(len, 0);
        let mut fill = starts;
        for i in 0..len {
            let s = shard_of(key(i));
            order[fill[s] as usize] = i as u32;
            fill[s] += 1;
        }
        results.clear();
        results.resize(len, (u32::MAX, false));
        let first = if len == 0 { 0 } else { shard_of(key(0)) };
        let mut late_hits = 0u64;
        for step in 0..SHARDS {
            let s = (first + step) % SHARDS;
            let bucket = &mut order[starts[s] as usize..starts[s + 1] as usize];
            if bucket.is_empty() {
                continue;
            }
            // Probe; the misses are compacted to the bucket's front.
            let mut missed = 0;
            let guard = self.shards[s].read().expect("index lock poisoned");
            for j in 0..bucket.len() {
                let i = bucket[j] as usize;
                match guard.find(key(i), hashes[i]) {
                    Ok(id) => results[i] = (id, false),
                    Err(_) => {
                        bucket[missed] = i as u32;
                        missed += 1;
                    }
                }
            }
            drop(guard);
            if missed == 0 {
                continue;
            }
            let mut guard = self.shards[s].write().expect("index lock poisoned");
            let before = guard.bytes();
            for &i in &bucket[..missed] {
                let i = i as usize;
                results[i] = self.claim_locked(&mut guard, key(i), hashes[i]);
                late_hits += u64::from(!results[i].1);
            }
            self.bytes
                .fetch_add(guard.bytes() - before, Ordering::Relaxed);
        }
        late_hits
    }

    /// Consumes the index into its rows, end to end in node order, the
    /// layout of [`ShardedIndex`]'s store. Each shard is freed once its
    /// rows are copied out.
    pub(crate) fn into_rows(self) -> Vec<u32> {
        let mut shards = self
            .shards
            .map(|s| s.into_inner().expect("index lock poisoned"));
        let width = shards.iter().map(|s| s.table.width).max().unwrap_or(0);
        let count: usize = shards.iter().map(|s| s.ids.len()).sum();
        assert_eq!(
            count,
            self.next.into_inner() as usize,
            "node indices are dense"
        );
        let mut rows = vec![0u32; count * width];
        for shard in &mut shards {
            let shard = std::mem::take(shard);
            for (local, &id) in shard.ids.iter().enumerate() {
                let at = id as usize * width;
                rows[at..at + width].copy_from_slice(shard.table.row(local as u32));
            }
        }
        rows
    }

    /// Number of configurations claimed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire) as usize
    }

    /// Returns `true` if no configuration has been claimed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the index — every shard's rows, slot array and
    /// id column — tracked incrementally by winning inserts (one relaxed add each; O(1) to read — this is the figure a
    /// live watcher polls mid-run).
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
        let interner: Interner<String> = Interner::new();
        let ids: Vec<u32> = (0..64)
            .map(|i| interner.intern(&format!("value-{i}")))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let expected = format!("value-{i}");
            assert_eq!(*interner.resolve(id), expected);
            assert_eq!(interner.resolve_with(id, |v| v.len()), expected.len());
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

        // The indexes count what they hold: the rows in use and the slot
        // array, plus the id column of each concurrent shard.
        let mut index = ShardedIndex::new();
        assert_eq!(index.approx_bytes(), 0);
        for i in 0..100u32 {
            index.insert([i, i + 1, i + 2], i);
        }
        // 2·(len + 1) slots at most half full: 100 rows take 256 slots.
        assert_eq!(index.table.slots.len(), 256);
        assert_eq!(index.slot_bytes(), 256 * 4);
        assert_eq!(index.approx_bytes(), 300 * 4 + 256 * 4);

        let conc = ConcurrentIndex::new();
        assert_eq!(conc.approx_bytes(), 0);
        let key: CompactConfig = vec![7, 8, 9].into();
        conc.get_or_insert(&key);
        let first = conc.approx_bytes();
        assert!(first > 0);
        conc.get_or_insert(&key);
        assert_eq!(conc.approx_bytes(), first, "hits do not grow the estimate");
        for i in 0..500u32 {
            conc.get_or_insert(&[i, i, i]);
        }
        let held: usize = conc.shards.iter().map(|s| s.read().unwrap().bytes()).sum();
        assert_eq!(conc.approx_bytes(), held, "the running total is exact");
    }

    #[test]
    fn sharded_index_hands_out_dense_ids_across_growths() {
        let key = |i: u32| [i.wrapping_mul(2_654_435_761), i % 7, i];
        let mut index = ShardedIndex::new();
        let mut growths = 0;
        for i in 0..1_000u32 {
            let slots = index.table.slots.len();
            assert_eq!(index.probe(&key(i)), None);
            assert_eq!(index.get_or_insert(&key(i)), (i, true), "dense, in order");
            if index.table.slots.len() != slots {
                growths += 1;
                // Every row inserted so far survives the rehash.
                for j in 0..=i {
                    assert_eq!(index.probe(&key(j)), Some(j));
                }
            }
        }
        assert!(growths >= 3, "the table grew {growths} times");
        assert_eq!(index.len(), 1_000);
        assert_eq!(index.get_or_insert(&key(17)), (17, false));
        assert_eq!(index.row(17), key(17));
        let rows = index.into_rows();
        assert_eq!(rows.len(), 3_000);
        for (i, row) in rows.chunks_exact(3).enumerate() {
            assert_eq!(row, key(i as u32), "row {i} is the {i}-th insert");
        }
    }

    /// `insert` takes only the next dense id: anything else panics, so
    /// a caller numbering nodes itself cannot skip or reuse one.
    #[test]
    #[should_panic(expected = "ids are dense: insert must pass index == len()")]
    fn sharded_index_rejects_a_non_dense_id() {
        let mut index = ShardedIndex::new();
        index.insert([1, 2, 3], 0);
        index.insert([4, 5, 6], 5);
    }

    #[test]
    fn concurrent_rows_are_the_keys_that_won_their_ids() {
        let index = ConcurrentIndex::new();
        let key = |i: u32| vec![i, i.wrapping_mul(7), i ^ 3, i % 5];
        let wins: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
            (0..4u32)
                .map(|t| {
                    let index = &index;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut won = Vec::new();
                        for start in (t * 300..t * 300 + 1_200).step_by(24) {
                            let keys: Vec<Vec<u32>> = (start..start + 24).map(key).collect();
                            index.get_or_insert_batch(&keys, &mut out);
                            for (k, &(id, inserted)) in (start..).zip(&out) {
                                if inserted {
                                    won.push((id, k));
                                }
                            }
                        }
                        won
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let distinct = 2_100; // 0..2100 across the overlapping windows
        assert_eq!(index.len(), distinct);
        let mut winner = vec![None; distinct];
        for &(id, k) in wins.iter().flatten() {
            assert!(
                winner[id as usize].replace(k).is_none(),
                "one winner per id"
            );
        }
        let rows = index.into_rows();
        assert_eq!(rows.len(), distinct * 4);
        for (id, row) in rows.chunks_exact(4).enumerate() {
            let k = winner[id].expect("every id was won");
            assert_eq!(row, key(k), "row {id} is the key that won it");
        }
    }
}
