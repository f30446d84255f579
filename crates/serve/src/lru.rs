//! A small, deterministic, capacity-bounded LRU map.
//!
//! The serving layer's profile and plan tiers need an eviction policy
//! whose behaviour is reproducible run-to-run (the cache-correctness
//! property tests drive arbitrary hit/eviction interleavings and compare
//! against cold runs), so this is a plain `HashMap` plus a monotone use
//! clock with an O(capacity) eviction scan — capacities are tens to
//! hundreds of entries, and values are an `Arc` or a pair of plan structs,
//! so the scan is noise next to the profile/plan construction a hit
//! saves. Ties cannot occur: every access gets a fresh clock stamp.

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used map holding at most `capacity` entries.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, Entry<V>>,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_use: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-capacity tier would silently
    /// turn every request into a miss; disable caching by not consulting
    /// the tier instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Lru {
            capacity,
            clock: 0,
            map: HashMap::with_capacity(capacity),
        }
    }

    /// The bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.last_use = clock;
            &e.value
        })
    }

    /// Looks up `key` mutably, marking it most recently used on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.last_use = clock;
            &mut e.value
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns the evicted `(key, value)`
    /// pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.value = value;
            e.last_use = self.clock;
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("full cache has a least-recent entry");
            self.map.remove_entry(&victim).map(|(k, e)| (k, e.value))
        } else {
            None
        };
        self.map.insert(
            key,
            Entry {
                value,
                last_use: self.clock,
            },
        );
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_recency() {
        let mut c = Lru::new(2);
        assert!(c.is_empty());
        assert!(c.insert("a", 1).is_none());
        assert!(c.insert("b", 2).is_none());
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(c.get(&"a"), Some(&1));
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = Lru::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn eviction_order_is_strict_lru() {
        let mut c = Lru::new(3);
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.insert(k, i);
        }
        // Recency now a < b < c; each insert evicts the oldest untouched.
        assert_eq!(c.insert("d", 9), Some(("a", 0)));
        assert_eq!(c.insert("e", 9), Some(("b", 1)));
        assert_eq!(c.insert("f", 9), Some(("c", 2)));
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn get_mut_refreshes_and_iter_does_not() {
        let mut c = Lru::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Mutating "a" through get_mut refreshes it, so "b" evicts next.
        *c.get_mut(&"a").expect("present") = 10;
        assert_eq!(c.insert("c", 3), Some(("b", 2)));
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Lru::<u8, u8>::new(0);
    }
}
