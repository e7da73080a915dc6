//! Content-addressed shard store: the shared tier of the two-tier
//! session cache.
//!
//! A **shard** is the per-component unit of exact checking: the local
//! conflict adjacency of one conflict component (or one union
//! component in ccp mode), its intra-component priority edges, the
//! dispatch metadata needed to run the exhaustive search of
//! [`crate::exact`] *in local coordinates*, and a memo of shard
//! verdicts already computed. Shards are immutable and keyed by the
//! canonical 128-bit fingerprint of their content
//! ([`rpr_fd::ComponentLayout::shard_fingerprint`]): component facts,
//! incident FDs, and intra-component priority edges. Because conflicts
//! and (intra-component) priorities never leave a component, two
//! workspaces whose fact ids differ wildly but whose component
//! *content* agrees map to the same key and share one
//! [`ShardData`] — the renumbering is absorbed by the local
//! coordinate system (local id = rank of the fact in the component's
//! ascending member list).
//!
//! The [`ShardStore`] is the global tier: a ref-counted
//! (`Arc`-backed) map from shard fingerprint to [`ShardData`] with
//! per-shard LRU stamps, byte accounting, and an optional
//! `--cache-bytes-max` ceiling. Sessions hold `Arc` handles to their
//! shards; eviction only ever removes *cold* shards (entries whose
//! only owner is the store itself, i.e. `Arc::strong_count == 1`), so
//! a hot shard pinned by a live session can never be dropped out from
//! under it — "evicts cold, never hot" is structural, not a policy.
//!
//! ## Bit-identity discipline
//!
//! The local search in [`ShardData`] replicates
//! [`crate::exact::exhaustive_improvement`] *exactly*: same branch
//! order (include first, exclude only for facts with conflicts), one
//! budget step per recursion node, same maximality and
//! global-improvement leaf tests. A memo hit bulk-charges the recorded
//! node count via [`Budget::try_charge`], which rolls back and reports
//! `false` when the charge would trip; the caller then falls back to
//! the real search, which re-charges step-by-step and trips exactly
//! where a cold session would. A memo hit therefore charges the same
//! total work and returns the same verdict and witness as a cold run,
//! so store-backed sessions are bit-identical to private-shard builds.

use crate::improvement::Improvement;
use rpr_data::{FactId, FactSet, Fingerprint, FxHashMap};
use rpr_engine::{Budget, Stop};
use rpr_fd::ConflictGraph;
use rpr_priority::PriorityRelation;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A component-local improvement witness, in local coordinates.
#[derive(Clone, PartialEq, Eq, Debug)]
struct LocalImprovement {
    removed: FactSet,
    added: FactSet,
}

/// One memoized shard verdict: the search result for a candidate
/// restricted to this shard, plus the exact number of recursion nodes
/// the search visited (= budget work units it charged).
#[derive(Clone, Debug)]
struct MemoEntry {
    found: Option<LocalImprovement>,
    steps: u64,
}

/// Immutable per-component shard artifact, shared across sessions and
/// across workspace fingerprints.
///
/// Local coordinates: local id `l` ∈ `0..k` is the rank of the fact in
/// the component's ascending global member list. Mapping a global
/// candidate in and a witness back out through the member slice is the
/// only per-session work a shard requires.
pub struct ShardData {
    fingerprint: Fingerprint,
    /// Component size `k`.
    k: usize,
    /// CSR offsets into `neighbors`: the conflict neighbors of local
    /// fact `l` are `neighbors[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<u32>,
    /// Conflict adjacency in local ids, ascending within each row.
    neighbors: Vec<u32>,
    /// Intra-component priority edges `(f, g)` meaning `f ≻ g`, local.
    priority_edges: Vec<(u32, u32)>,
    /// `better[l]` = local facts preferred over `l` (dispatch plan for
    /// the improvement test at search leaves).
    better: Vec<Vec<u32>>,
    /// Verdict memo: candidate ∩ component (local) → search result.
    memo: Mutex<FxHashMap<FactSet, MemoEntry>>,
    /// Estimated resident bytes of the immutable part.
    base_bytes: usize,
    /// Estimated resident bytes of the memo (grows as verdicts cache).
    memo_bytes: AtomicUsize,
}

impl ShardData {
    /// Slices component `c`'s shard out of the global structures.
    ///
    /// `members` must be the component's member list, ascending — the
    /// slice `layout.component(c)` is. Conflict neighbors of a member
    /// never leave its component, so every edge maps to a local pair.
    pub fn build(
        fingerprint: Fingerprint,
        members: &[FactId],
        cg: &ConflictGraph,
        priority: &PriorityRelation,
    ) -> ShardData {
        let k = members.len();
        let local = |g: FactId| -> Option<u32> { members.binary_search(&g).ok().map(|i| i as u32) };
        let mut offsets = Vec::with_capacity(k + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for &f in members {
            for g in cg.conflicts_of(f).iter() {
                let l = local(g).expect("conflict neighbor escapes its component");
                neighbors.push(l);
            }
            offsets.push(neighbors.len() as u32);
        }
        let mut priority_edges = Vec::new();
        let mut better = vec![Vec::new(); k];
        for &(f, g) in priority.edges() {
            if let (Some(lf), Some(lg)) = (local(f), local(g)) {
                priority_edges.push((lf, lg));
                better[lg as usize].push(lf);
            }
        }
        let base_bytes = 4 * offsets.len()
            + 4 * neighbors.len()
            + 8 * priority_edges.len()
            + better.iter().map(|b| 4 * b.len() + 24).sum::<usize>()
            + 160;
        ShardData {
            fingerprint,
            k,
            offsets,
            neighbors,
            priority_edges,
            better,
            memo: Mutex::new(FxHashMap::default()),
            base_bytes,
            memo_bytes: AtomicUsize::new(0),
        }
    }

    /// The shard's content address.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Component size.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Is the shard over an empty component? (Never true in practice —
    /// only nontrivial components are sharded.)
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Number of memoized shard verdicts.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Estimated resident bytes (immutable slice + verdict memo).
    pub fn bytes(&self) -> usize {
        self.base_bytes + self.memo_bytes.load(Ordering::Relaxed)
    }

    /// Intra-component priority edge count (local dispatch metadata).
    pub fn priority_edge_count(&self) -> usize {
        self.priority_edges.len()
    }

    fn row(&self, l: u32) -> &[u32] {
        &self.neighbors[self.offsets[l as usize] as usize..self.offsets[l as usize + 1] as usize]
    }

    fn conflicts_with_set(&self, l: u32, set: &FactSet) -> bool {
        self.row(l).iter().any(|&g| set.contains(FactId(g)))
    }

    /// Restricts a global candidate to this shard's local universe.
    fn localize(&self, members: &[FactId], j: &FactSet) -> FactSet {
        let mut local = FactSet::empty(self.k);
        for (l, &g) in members.iter().enumerate() {
            if j.contains(g) {
                local.insert(FactId(l as u32));
            }
        }
        local
    }

    /// Maps a local witness back to global ids.
    fn globalize(
        &self,
        members: &[FactId],
        universe: usize,
        imp: &LocalImprovement,
    ) -> Improvement {
        let lift = |set: &FactSet| {
            let mut out = FactSet::empty(universe);
            for l in set.iter() {
                out.insert(members[l.index()]);
            }
            out
        };
        Improvement { removed: lift(&imp.removed), added: lift(&imp.added) }
    }

    /// The exhaustive search of [`crate::exact::exhaustive_improvement`]
    /// in local coordinates: identical branch order, one budget step
    /// per recursion node, identical leaf tests. Returns the witness
    /// (if any) and the exact node count for the memo.
    fn search_local(
        &self,
        j: &FactSet,
        budget: &Budget,
    ) -> Result<(Option<LocalImprovement>, u64), Stop> {
        struct Search<'a> {
            shard: &'a ShardData,
            j: &'a FactSet,
            budget: &'a Budget,
            nodes: u64,
            found: Option<LocalImprovement>,
        }
        impl Search<'_> {
            fn recurse(&mut self, idx: usize, current: &mut FactSet) -> Result<(), Stop> {
                if self.found.is_some() {
                    return Ok(());
                }
                self.budget.step()?;
                self.nodes += 1;
                if idx == self.shard.k {
                    let maximal = (0..self.shard.k as u32).all(|l| {
                        current.contains(FactId(l)) || self.shard.conflicts_with_set(l, current)
                    });
                    if maximal && self.is_improvement(current) {
                        self.found = Some(LocalImprovement {
                            removed: self.j.difference(current),
                            added: current.difference(self.j),
                        });
                    }
                    return Ok(());
                }
                let l = idx as u32;
                if self.shard.conflicts_with_set(l, current) {
                    return self.recurse(idx + 1, current);
                }
                current.insert(FactId(l));
                self.recurse(idx + 1, current)?;
                current.remove(FactId(l));
                if !self.shard.row(l).is_empty() {
                    self.recurse(idx + 1, current)?;
                }
                Ok(())
            }

            /// `is_global_improvement` in local coordinates.
            fn is_improvement(&self, j2: &FactSet) -> bool {
                if self.j == j2 {
                    return false;
                }
                let lost = self.j.difference(j2);
                let gained = j2.difference(self.j);
                lost.iter().all(|f_prime| {
                    self.shard.better[f_prime.index()].iter().any(|&g| gained.contains(FactId(g)))
                })
            }
        }
        let mut current = FactSet::empty(self.k);
        let mut search = Search { shard: self, j, budget, nodes: 0, found: None };
        search.recurse(0, &mut current)?;
        Ok((search.found, search.nodes))
    }

    fn memoize(&self, key: FactSet, found: Option<LocalImprovement>, steps: u64) {
        let words = self.k.div_ceil(64);
        let witness_bytes = match &found {
            Some(_) => 2 * (8 * words + 40),
            None => 0,
        };
        let entry_bytes = 8 * words + 96 + witness_bytes;
        let mut memo = self.memo.lock().unwrap();
        if memo.insert(key, MemoEntry { found, steps }).is_none() {
            self.memo_bytes.fetch_add(entry_bytes, Ordering::Relaxed);
        }
    }

    /// Checks a candidate against this shard under a caller-supplied
    /// [`Budget`].
    ///
    /// A memo hit bulk-charges the recorded node count via
    /// [`Budget::try_charge`]; when the charge would trip, the charge
    /// rolls back and the real search runs instead, re-charging
    /// step-by-step and tripping exactly where a cold session would.
    ///
    /// # Errors
    /// Propagates the budget's [`Stop`] (work, deadline, cancel).
    pub fn check(
        &self,
        members: &[FactId],
        j: &FactSet,
        budget: &Budget,
    ) -> Result<Option<Improvement>, Stop> {
        let local_j = self.localize(members, j);
        let memo_hit = {
            let memo = self.memo.lock().unwrap();
            memo.get(&local_j).map(|e| (e.found.clone(), e.steps))
        };
        if let Some((found, steps)) = memo_hit {
            if budget.try_charge(steps)? {
                return Ok(found.as_ref().map(|imp| self.globalize(members, j.universe(), imp)));
            }
        }
        let (found, nodes) = self.search_local(&local_j, budget)?;
        let out = found.as_ref().map(|imp| self.globalize(members, j.universe(), imp));
        self.memoize(local_j, found, nodes);
        Ok(out)
    }
}

/// A thin per-workspace index: the workspace fingerprint plus the
/// ordered list of shard keys its exact path dispatches to. This is
/// the second tier of the cache — everything heavy lives behind the
/// keys in the [`ShardStore`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionIndex {
    workspace: Fingerprint,
    shard_keys: Vec<Fingerprint>,
}

impl SessionIndex {
    pub(crate) fn new(workspace: Fingerprint, shard_keys: Vec<Fingerprint>) -> SessionIndex {
        SessionIndex { workspace, shard_keys }
    }

    /// The workspace content fingerprint this index belongs to.
    pub fn workspace(&self) -> Fingerprint {
        self.workspace
    }

    /// Shard keys in dispatch order (ascending minimal member).
    pub fn shard_keys(&self) -> &[Fingerprint] {
        &self.shard_keys
    }
}

struct StoreEntry {
    data: Arc<ShardData>,
    stamp: u64,
}

struct StoreInner {
    entries: FxHashMap<u128, StoreEntry>,
    tick: u64,
}

/// Aggregate counters for metrics export and reconciliation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStoreStats {
    /// Shards currently resident.
    pub entries: u64,
    /// Estimated resident bytes across all shards (memo included).
    pub bytes: u64,
    /// `get_or_insert` calls answered from the store.
    pub hits: u64,
    /// `get_or_insert` calls that had to build.
    pub misses: u64,
    /// Cold shards dropped by the byte ceiling.
    pub evictions: u64,
}

/// The global content-addressed shard cache (tier one).
///
/// Thread-safe; `get_or_insert` builds under the lock so concurrent
/// requests for the same key observe exactly one miss.
pub struct ShardStore {
    inner: Mutex<StoreInner>,
    bytes_max: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ShardStore {
    fn default() -> Self {
        ShardStore::new()
    }
}

impl ShardStore {
    /// An unbounded store.
    pub fn new() -> ShardStore {
        ShardStore::with_bytes_max(None)
    }

    /// A store that evicts cold shards (LRU) once estimated resident
    /// bytes exceed `bytes_max`.
    pub fn with_bytes_max(bytes_max: Option<u64>) -> ShardStore {
        ShardStore {
            inner: Mutex::new(StoreInner { entries: FxHashMap::default(), tick: 0 }),
            bytes_max,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte ceiling, if any.
    pub fn bytes_max(&self) -> Option<u64> {
        self.bytes_max
    }

    /// Fetches the shard at `key`, building and inserting it on miss.
    pub fn get_or_insert(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> ShardData,
    ) -> Arc<ShardData> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key.0) {
            entry.stamp = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&entry.data);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(build());
        debug_assert_eq!(data.fingerprint(), key, "shard built under the wrong key");
        inner.entries.insert(key.0, StoreEntry { data: Arc::clone(&data), stamp: tick });
        self.evict_cold(&mut inner);
        data
    }

    /// Re-applies the byte ceiling, evicting cold shards LRU-first.
    /// Cheap; serve calls this after requests since memos grow shards
    /// in place.
    pub fn enforce_ceiling(&self) {
        let mut inner = self.inner.lock().unwrap();
        self.evict_cold(&mut inner);
    }

    fn evict_cold(&self, inner: &mut StoreInner) {
        let Some(max) = self.bytes_max else { return };
        loop {
            let resident: u64 = inner.entries.values().map(|e| e.data.bytes() as u64).sum();
            if resident <= max {
                return;
            }
            // Oldest cold shard: unreferenced outside the store.
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.data) == 1)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    inner.entries.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything is pinned by live sessions: nothing we
                // may evict. Hot shards are never dropped.
                None => return,
            }
        }
    }

    /// Number of resident shards.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes across all shards, each counted once.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().entries.values().map(|e| e.data.bytes() as u64).sum()
    }

    /// Counter snapshot for metrics export.
    pub fn stats(&self) -> ShardStoreStats {
        let inner = self.inner.lock().unwrap();
        ShardStoreStats {
            entries: inner.entries.len() as u64,
            bytes: inner.entries.values().map(|e| e.data.bytes() as u64).sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}
