//! The session registry: which sessions exist between batches, and the
//! LRU that bounds how many of them keep a live simulator object.
//!
//! Warm sessions are expensive (a full VANS instance each); parked
//! sessions are just an `NVSS` blob. After every batch the registry
//! [`settle`]s: the least-recently-used warm sessions beyond the
//! configured capacity are parked. Because parking is an exact snapshot
//! round-trip, the LRU changes memory footprint and rehydrate latency —
//! never responses.
//!
//! Sessions are keyed by a *scoped* id: `(scope, sid)`. Scope 0 is
//! [`run_script`](crate::Server::run_script)'s; the transport layer
//! gives every connection its own scope, so two connections opening
//! "session 1" get two independent simulations and each sees only its
//! own sid in responses. The scope never appears on the wire.
//!
//! [`settle`]: SessionRegistry::settle

use crate::protocol::SessionId;
use crate::session::SessionSlot;
use std::collections::BTreeMap;

/// A session id qualified by its namespace (connection scope).
pub type ScopedSid = (u64, SessionId);

/// Sessions that persist across ingestion batches.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    slots: BTreeMap<ScopedSid, SessionSlot>,
    /// Last-touched tick per session, driving LRU eviction.
    recency: BTreeMap<ScopedSid, u64>,
    tick: u64,
    warm_capacity: usize,
}

impl SessionRegistry {
    /// A registry keeping at most `warm_capacity` sessions warm between
    /// batches (minimum 1).
    pub fn new(warm_capacity: usize) -> Self {
        SessionRegistry {
            warm_capacity: warm_capacity.max(1),
            ..SessionRegistry::default()
        }
    }

    /// Removes a session for the duration of a batch (it travels with
    /// the [`crate::session::SessionUnit`] to whichever worker runs it).
    pub fn checkout(&mut self, key: ScopedSid) -> Option<SessionSlot> {
        self.slots.remove(&key)
    }

    /// Returns a session after its unit ran (`None` if it was closed or
    /// never opened), bumping its recency.
    pub fn check_in(&mut self, key: ScopedSid, slot: Option<SessionSlot>) {
        self.tick += 1;
        match slot {
            Some(s) => {
                self.slots.insert(key, s);
                self.recency.insert(key, self.tick);
            }
            None => {
                self.recency.remove(&key);
            }
        }
    }

    /// Parks the least-recently-used warm sessions beyond the warm
    /// capacity. Sessions whose backend cannot checkpoint stay warm.
    /// Eviction order is deterministic (tick, then scoped session id).
    pub fn settle(&mut self) {
        let mut warm: Vec<(u64, ScopedSid)> = self
            .slots
            .iter()
            .filter(|(_, s)| s.is_warm())
            .map(|(&key, _)| (self.recency.get(&key).copied().unwrap_or(0), key))
            .collect();
        warm.sort();
        let excess = warm.len().saturating_sub(self.warm_capacity);
        for &(_, key) in warm.iter().take(excess) {
            if let Some(slot) = self.slots.remove(&key) {
                self.slots.insert(key, slot.park());
            }
        }
    }

    /// Parks *every* warm session, regardless of capacity — the graceful
    /// drain path: after this, no live simulator object remains (except
    /// backends that cannot checkpoint, which stay warm). Returns how
    /// many sessions ended up parked.
    pub fn park_all(&mut self) -> usize {
        let keys: Vec<ScopedSid> = self.slots.keys().copied().collect();
        for key in keys {
            if let Some(slot) = self.slots.remove(&key) {
                self.slots.insert(key, slot.park());
            }
        }
        self.parked_count()
    }

    /// The open session ids within one scope (one connection's
    /// sessions, or `run_script`'s in scope 0).
    pub fn sids_in_scope(&self, scope: u64) -> Vec<SessionId> {
        self.slots
            .range((scope, SessionId::MIN)..=(scope, SessionId::MAX))
            .map(|(&(_, sid), _)| sid)
            .collect()
    }

    /// Number of open sessions (warm + parked).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of sessions holding a live backend.
    pub fn warm_count(&self) -> usize {
        self.slots.values().filter(|s| s.is_warm()).count()
    }

    /// Number of sessions parked as snapshot blobs.
    pub fn parked_count(&self) -> usize {
        self.len() - self.warm_count()
    }
}
