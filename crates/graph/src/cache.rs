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

/// A message cache mapping keys to an arbitrary payload (JoinBoost stores
/// the name of the materialized message table).
#[derive(Debug, Default)]
pub struct MessageCache<V> {
    entries: HashMap<MessageKey, V>,
}

impl<V> MessageCache<V> {
    pub fn new() -> Self {
        MessageCache {
            entries: HashMap::new(),
        }
    }

    /// Look up a message.
    pub fn get(&self, key: &MessageKey) -> Option<&V> {
        self.entries.get(key)
    }

    /// Insert a computed message.
    pub fn insert(&mut self, key: MessageKey, value: V) -> Option<V> {
        self.entries.insert(key, value)
    }

    /// Forget every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
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
    }

    #[test]
    fn signature_is_order_insensitive() {
        let a = signature(&["d > 1".into(), "c = 2".into()]);
        let b = signature(&["c = 2".into(), "d > 1".into()]);
        assert_eq!(a, b);
        assert_ne!(a, signature(&["c = 2".into()]));
    }
}
