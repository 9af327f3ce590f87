//! Message cache with cross-node sharing (Section 5.5.1).
//!
//! Every message is identified by `(from, to, signature)` where the
//! signature encodes the conjunction of split predicates already applied
//! to the sender's subtree. A child tree node reuses every cached message
//! whose subtree does not contain the newly split relation — the paper's
//! key optimization over LMFAO-style per-node batching (3× on Favorita).

use std::collections::HashMap;

use crate::graph::RelId;

/// Key of a cached message: sender, receiver and a canonical signature of
/// the predicates applied to the sender's side.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MessageKey {
    pub from: RelId,
    pub to: RelId,
    pub signature: String,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A message cache mapping keys to an arbitrary payload (JoinBoost stores
/// the name of the materialized message table).
#[derive(Debug, Default)]
pub struct MessageCache<V> {
    entries: HashMap<MessageKey, V>,
    stats: CacheStats,
}

impl<V> MessageCache<V> {
    pub fn new() -> Self {
        MessageCache {
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a message; counts a hit or miss.
    pub fn get(&mut self, key: &MessageKey) -> Option<&V> {
        match self.entries.get(key) {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up a message without counting a hit or miss (probing for the
    /// inputs of a derived message is not a use of the entry).
    pub fn peek(&self, key: &MessageKey) -> Option<&V> {
        self.entries.get(key)
    }

    /// Insert a computed message.
    pub fn insert(&mut self, key: MessageKey, value: V) -> Option<V> {
        self.entries.insert(key, value)
    }

    /// Drop every entry failing the predicate; returns the evicted values
    /// (so the caller can DROP the backing tables).
    pub fn retain_or_evict(&mut self, mut keep: impl FnMut(&MessageKey) -> bool) -> Vec<V> {
        let mut evicted = Vec::new();
        let keys: Vec<MessageKey> = self.entries.keys().filter(|k| !keep(k)).cloned().collect();
        for k in keys {
            if let Some(v) = self.entries.remove(&k) {
                evicted.push(v);
                self.stats.evictions += 1;
            }
        }
        evicted
    }

    /// Drain everything (end of training).
    pub fn drain(&mut self) -> Vec<V> {
        self.stats.evictions += self.entries.len() as u64;
        self.entries.drain().map(|(_, v)| v).collect()
    }
}

/// Build a canonical signature from a set of predicate strings: order
/// insensitive, so `σ1 ∧ σ2` and `σ2 ∧ σ1` hit the same entry.
pub fn signature(predicates: &[String]) -> String {
    let mut sorted: Vec<&str> = predicates.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.join(" AND ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(from: RelId, to: RelId, sig: &str) -> MessageKey {
        MessageKey {
            from,
            to,
            signature: sig.to_string(),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c: MessageCache<String> = MessageCache::new();
        assert!(c.get(&key(0, 1, "")).is_none());
        c.insert(key(0, 1, ""), "m0".into());
        assert_eq!(c.get(&key(0, 1, "")), Some(&"m0".to_string()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn signature_is_order_insensitive() {
        let a = signature(&["d > 1".into(), "c = 2".into()]);
        let b = signature(&["c = 2".into(), "d > 1".into()]);
        assert_eq!(a, b);
        assert_ne!(a, signature(&["c = 2".into()]));
    }

    #[test]
    fn eviction_returns_payloads() {
        let mut c: MessageCache<i32> = MessageCache::new();
        c.insert(key(0, 1, ""), 10);
        c.insert(key(1, 2, ""), 20);
        c.insert(key(1, 2, "d > 1"), 30);
        let evicted = c.retain_or_evict(|k| k.signature.is_empty());
        assert_eq!(evicted, vec![30]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
    }
}
