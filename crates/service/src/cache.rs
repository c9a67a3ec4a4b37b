//! The cache of heuristic embeddings.
//!
//! A minor embedding depends only on the *structure* of the QUBO adjacency
//! — which variables interact — never on the weights (Section 5 of the
//! paper). The engine places TRIAD cliques directly, exactly as the offline
//! pipeline does, and uses this cache only for instances no TRIAD block
//! hosts: structurally identical ones reuse one heuristic embedding and only
//! re-derive the Ising weights, which turns the heuristic search into a
//! lookup.
//!
//! Keys pair the canonical structure hash of the logical QUBO
//! (`Qubo::structure_hash`) with the topology fingerprint of the device
//! graph (`ChimeraGraph::fingerprint`): an embedding is only valid for the
//! exact graph it was routed on. The cache is a bounded LRU with hit, miss,
//! and eviction counters; all access is through one mutex (lookups are
//! nanoseconds against solves that are milliseconds).

use mqo_chimera::embedding::Embedding;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: problem structure × device topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// `Qubo::structure_hash` of the logical formula.
    pub structure: u64,
    /// `ChimeraGraph::fingerprint` of the graph the embedding was routed on.
    pub graph: u64,
}

/// Counter snapshot of an [`EmbeddingCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a reusable embedding.
    pub hits: u64,
    /// Lookups that ran the heuristic embedder.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// The configured bound.
    pub capacity: usize,
    /// Entries invalidated by poison recovery (the whole map is dropped
    /// when a panicking holder may have broken the LRU bookkeeping).
    pub poison_invalidations: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Key → (embedding, recency stamp of the last touch).
    map: HashMap<CacheKey, (Arc<Embedding>, u64)>,
    /// Recency stamp → key, oldest first; kept in lockstep with `map`.
    recency: BTreeMap<u64, CacheKey>,
    /// Monotonic touch counter.
    tick: u64,
}

/// A bounded LRU cache of minor embeddings.
///
/// Counters are lock-free atomics (read by `/metrics` without touching the
/// map lock); the map lock itself is poison-recovering: if a panicking
/// holder poisons it, the next acquirer drops every entry (the `map` ↔
/// `recency` lockstep cannot be trusted after an interrupted update) and
/// carries on — an embedding cache may always be cold, it must never take
/// the service down.
#[derive(Debug)]
pub struct EmbeddingCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_invalidations: AtomicU64,
}

impl EmbeddingCache {
    /// Creates a cache bounded to `capacity` entries (`capacity = 0`
    /// disables caching: every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        EmbeddingCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_invalidations: AtomicU64::new(0),
        }
    }

    /// Acquires the map lock; a poisoned guard is recovered by invalidating
    /// the whole cache. The dropped entries are not LRU evictions (nothing
    /// displaced them), so they land in their own counter.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut inner = poisoned.into_inner();
                self.poison_invalidations
                    .fetch_add(inner.map.len() as u64, Ordering::Relaxed);
                inner.map.clear();
                inner.recency.clear();
                self.inner.clear_poison();
                inner
            }
        }
    }

    /// Looks up an embedding, bumping its recency. Counts a hit or a miss.
    pub fn get(&self, key: CacheKey) -> Option<Arc<Embedding>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some((embedding, stamp)) => {
                let old = std::mem::replace(stamp, tick);
                let embedding = Arc::clone(embedding);
                inner.recency.remove(&old);
                inner.recency.insert(tick, key);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(embedding)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) an embedding, evicting the least recently
    /// used entry when the bound is exceeded.
    pub fn insert(&self, key: CacheKey, embedding: Arc<Embedding>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((_, old)) = inner.map.insert(key, (embedding, tick)) {
            inner.recency.remove(&old);
        }
        inner.recency.insert(tick, key);
        let mut evicted = 0u64;
        while inner.map.len() > self.capacity {
            // `recency` tracks every entry; if the lockstep ever broke (it
            // cannot after poison recovery — recovery clears both), stop
            // evicting rather than looping forever.
            let Some((&oldest, &victim)) = inner.recency.iter().next() else {
                break;
            };
            inner.recency.remove(&oldest);
            inner.map.remove(&victim);
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let len = self.lock().map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            capacity: self.capacity,
            poison_invalidations: self.poison_invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_chimera::graph::ChimeraGraph;

    fn embedding(n: usize) -> Arc<Embedding> {
        use mqo_chimera::embedding::triad;
        let g = ChimeraGraph::new(2, 2);
        Arc::new(triad::triad(&g, 0, 0, n).unwrap())
    }

    fn key(structure: u64) -> CacheKey {
        CacheKey {
            structure,
            graph: 1,
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = EmbeddingCache::new(4);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), embedding(2));
        let e = cache.get(key(1)).expect("inserted entry is found");
        assert_eq!(e.num_vars(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = EmbeddingCache::new(2);
        cache.insert(key(1), embedding(2));
        cache.insert(key(2), embedding(3));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), embedding(4));
        assert!(cache.get(key(2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn capacity_bound_is_never_exceeded() {
        let cache = EmbeddingCache::new(3);
        for i in 0..50 {
            cache.insert(key(i), embedding(2));
            assert!(cache.stats().len <= 3);
        }
        let s = cache.stats();
        assert_eq!(s.len, 3);
        assert_eq!(s.evictions, 47);
        // The three most recent keys survive.
        for i in 47..50 {
            assert!(cache.get(key(i)).is_some(), "key {i} should be cached");
        }
    }

    #[test]
    fn reinserting_a_key_does_not_leak_recency_entries() {
        let cache = EmbeddingCache::new(2);
        for _ in 0..10 {
            cache.insert(key(1), embedding(2));
        }
        cache.insert(key(2), embedding(2));
        cache.insert(key(3), embedding(2));
        let s = cache.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 1, "only key 1 was ever displaced");
    }

    #[test]
    fn different_graphs_do_not_share_entries() {
        let cache = EmbeddingCache::new(4);
        cache.insert(
            CacheKey {
                structure: 7,
                graph: 1,
            },
            embedding(2),
        );
        assert!(cache
            .get(CacheKey {
                structure: 7,
                graph: 2,
            })
            .is_none());
    }

    #[test]
    fn poisoned_cache_recovers_by_invalidating_not_panicking() {
        let cache = Arc::new(EmbeddingCache::new(4));
        cache.insert(key(1), embedding(2));
        cache.insert(key(2), embedding(2));
        // Poison the map lock by panicking while holding it.
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.inner.lock().unwrap();
            panic!("die holding the cache lock");
        })
        .join();
        assert!(cache.inner.is_poisoned());
        // Recovery: the lookup succeeds (a miss — entries were dropped) and
        // the cache is fully usable again.
        assert!(cache.get(key(1)).is_none());
        let s = cache.stats();
        assert_eq!(s.len, 0, "poisoned cache was invalidated");
        assert_eq!(s.poison_invalidations, 2, "both entries dropped");
        assert!(!cache.inner.is_poisoned(), "poison flag cleared");
        cache.insert(key(3), embedding(2));
        assert!(cache.get(key(3)).is_some(), "cache works after recovery");
    }

    #[test]
    fn zero_capacity_disables_caching_without_panicking() {
        let cache = EmbeddingCache::new(0);
        cache.insert(key(1), embedding(2));
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.stats().len, 0);
    }
}
