//! The server's two caches: a single-flight memo of verified plans and an
//! LRU of warm context parts.
//!
//! # Memo cache (single-flight)
//!
//! Keyed by the versioned [`pathdriver_wash::memo_key`] over
//! `(instance_hash, config_fingerprint)`. The classic hazard is the
//! *stampede*:
//! N requests for the same uncached instance arrive together and N workers
//! all pay for the same expensive solve. [`MemoCache::claim`] prevents it
//! with an in-flight marker: the first claimant becomes the **leader**
//! (receiving a [`LeadGuard`]), everyone else blocks on a condvar until the
//! leader [`fulfill`](LeadGuard::fulfill)s the entry — one oracle-checked
//! solve served to all waiters. The guard removes the marker on drop, so a
//! leader that panics or abandons (e.g. it only produced a
//! deadline-degraded plan, which must not be memoized) wakes the waiters
//! and lets one of them take over as the new leader. Waiters poll a
//! caller-supplied `give_up` predicate (their own deadline, on the
//! server's injectable clock) so an expired request exits typed instead of
//! waiting forever.
//!
//! # Context LRU
//!
//! Keyed by **chip** hash, because warm [`ContextParts`] mostly repay chip
//! work (routing scratch, reachability-adjacent buffers). But cached
//! *analyses and front ends* are functions of the whole instance — serving
//! them for a different schedule on the same chip would be wrong. So every
//! entry also records the **instance** hash it was built for: a checkout
//! matching chip + instance returns the full warm parts; a checkout
//! matching only the chip strips the entry down to its scratch pool
//! (always instance-independent) before handing it out.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use pathdriver_wash::codec::canonical_bytes;
use pathdriver_wash::{ContextParts, OracleReplay, PlanArtifact, RungKind, WashResult};

/// A memoized, oracle-verified plan as served to requesters.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// The verified plan.
    pub result: WashResult,
    /// The degradation-ladder rung that produced it.
    pub rung: RungKind,
    /// The gate's oracle replay of the plan on its instance's chip, which
    /// its certificate is sealed from.
    replay: OracleReplay,
    /// The plan's certified artifact, filled the first time the plan
    /// leaves the process (a socket response or the persistent store) and
    /// shared by every later one — in-process callers never pay for it.
    certified: OnceLock<CertifiedPlan>,
}

impl ServedPlan {
    /// A gated plan with no certified artifact yet: `replay` is the gate's
    /// replay of `result`'s schedule on the instance it serves.
    pub fn new(result: WashResult, rung: RungKind, replay: OracleReplay) -> Self {
        ServedPlan {
            result,
            rung,
            replay,
            certified: OnceLock::new(),
        }
    }

    /// The gate's oracle replay of the plan.
    pub(crate) fn replay(&self) -> &OracleReplay {
        &self.replay
    }

    /// The certified artifact, if the plan has been certified.
    pub fn certified(&self) -> Option<&CertifiedPlan> {
        self.certified.get()
    }

    /// The certified artifact, running `certify` only if the plan has none
    /// yet: concurrent callers share one certification.
    pub fn certify_with(&self, certify: impl FnOnce() -> Arc<PlanArtifact>) -> &CertifiedPlan {
        self.certified.get_or_init(|| CertifiedPlan::new(certify()))
    }
}

/// A certified [`PlanArtifact`] together with its canonical bytes, so a
/// response can splice the bytes instead of re-encoding the artifact.
#[derive(Debug, Clone)]
pub struct CertifiedPlan {
    artifact: Arc<PlanArtifact>,
    bytes: Vec<u8>,
}

impl CertifiedPlan {
    /// Wraps an artifact, encoding its canonical bytes once.
    pub fn new(artifact: Arc<PlanArtifact>) -> Self {
        let bytes = canonical_bytes(&*artifact);
        CertifiedPlan { artifact, bytes }
    }

    /// The artifact (shared with the persistent store).
    pub fn artifact(&self) -> &Arc<PlanArtifact> {
        &self.artifact
    }

    /// The artifact's canonical encoding
    /// ([`canonical_bytes`]).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

enum MemoEntry {
    /// A leader is solving; waiters block on the cache condvar.
    InFlight,
    /// A verified plan, served to every later claimant.
    Ready(Arc<ServedPlan>),
}

/// What [`MemoCache::claim`] resolved to.
pub enum MemoClaim<'a> {
    /// A memoized plan was available (possibly after waiting out a leader).
    Hit(Arc<ServedPlan>),
    /// The caller is the leader for this key and must solve, then
    /// [`fulfill`](LeadGuard::fulfill) or [`abandon`](LeadGuard::abandon)
    /// the guard.
    Lead(LeadGuard<'a>),
    /// The caller's `give_up` predicate fired while waiting on a leader.
    Expired,
}

/// The single-flight memo cache (see the [module docs](self)).
#[derive(Default)]
pub struct MemoCache {
    entries: Mutex<HashMap<u64, MemoEntry>>,
    wakeup: Condvar,
}

impl MemoCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims `key`: a hit returns the memoized plan; an absent key makes
    /// the caller the leader; an in-flight key blocks until the leader
    /// resolves it or `give_up` returns `true`. Waiters re-check
    /// `give_up` at least every millisecond of wall time, so a manual
    /// test clock advanced from another thread is honored promptly.
    pub fn claim(&self, key: u64, mut give_up: impl FnMut() -> bool) -> MemoClaim<'_> {
        let mut entries = self.entries.lock().unwrap();
        loop {
            match entries.get(&key) {
                Some(MemoEntry::Ready(plan)) => return MemoClaim::Hit(Arc::clone(plan)),
                Some(MemoEntry::InFlight) => {
                    if give_up() {
                        return MemoClaim::Expired;
                    }
                    let (guard, _) = self
                        .wakeup
                        .wait_timeout(entries, Duration::from_millis(1))
                        .unwrap();
                    entries = guard;
                }
                None => {
                    entries.insert(key, MemoEntry::InFlight);
                    return MemoClaim::Lead(LeadGuard {
                        cache: self,
                        key,
                        resolved: false,
                    });
                }
            }
        }
    }

    /// The memoized plan for `key`, if ready (never waits).
    pub fn peek(&self, key: u64) -> Option<Arc<ServedPlan>> {
        match self.entries.lock().unwrap().get(&key) {
            Some(MemoEntry::Ready(plan)) => Some(Arc::clone(plan)),
            _ => None,
        }
    }

    /// Number of `Ready` entries.
    pub fn ready_len(&self) -> usize {
        self.entries
            .lock()
            .unwrap()
            .values()
            .filter(|e| matches!(e, MemoEntry::Ready(_)))
            .count()
    }
}

/// The leader's obligation for an in-flight memo key. Dropping the guard
/// without [`fulfill`](Self::fulfill) — including by panic unwinding
/// through the solve — removes the in-flight marker and wakes the waiters
/// so one of them can lead instead.
pub struct LeadGuard<'a> {
    cache: &'a MemoCache,
    key: u64,
    resolved: bool,
}

impl LeadGuard<'_> {
    /// Publishes the leader's verified plan and wakes every waiter.
    pub fn fulfill(mut self, plan: Arc<ServedPlan>) {
        let mut entries = self.cache.entries.lock().unwrap();
        entries.insert(self.key, MemoEntry::Ready(plan));
        self.resolved = true;
        drop(entries);
        self.cache.wakeup.notify_all();
    }

    /// Releases the key without memoizing (e.g. the solve was
    /// deadline-degraded and must not pollute the canonical cache). Waiters
    /// wake and re-claim; the next one becomes the new leader.
    pub fn abandon(self) {
        // Drop does the work.
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.entries.lock().unwrap().remove(&self.key);
            self.cache.wakeup.notify_all();
        }
    }
}

/// How a [`ContextLru::checkout`] resolved.
pub enum ContextCheckout {
    /// Chip and instance both matched: the full warm parts.
    Warm(ContextParts),
    /// Only the chip matched: the entry's scratch pool, with the
    /// instance-specific caches stripped.
    PoolOnly(ContextParts),
    /// No entry for this chip.
    Cold,
}

/// Running counters of LRU behavior, surfaced through the server's stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruCounters {
    /// Checkouts serving full warm parts (chip + instance matched).
    pub warm_hits: u64,
    /// Checkouts serving a scratch pool only (chip matched, instance not).
    pub pool_hits: u64,
    /// Checkouts finding nothing for the chip.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

struct LruEntry {
    chip: u64,
    instance: u64,
    parts: ContextParts,
    last_used: u64,
}

/// A capacity-bounded LRU of warm [`ContextParts`] (see the
/// [module docs](self) for the chip-vs-instance keying rule).
pub struct ContextLru {
    capacity: usize,
    tick: u64,
    entries: Vec<LruEntry>,
    counters: LruCounters,
}

impl ContextLru {
    /// An empty LRU holding at most `capacity` entries (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        ContextLru {
            capacity,
            tick: 0,
            entries: Vec::new(),
            counters: LruCounters::default(),
        }
    }

    /// Checks out the warm parts for `chip`, removing them from the cache
    /// (the caller re-[`store`](Self::store)s them after the solve). Full
    /// parts are only served when `instance` also matches what the entry
    /// was built for; otherwise the instance-specific caches are stripped
    /// and only the scratch pool is handed out.
    pub fn checkout(&mut self, chip: u64, instance: u64) -> ContextCheckout {
        match self.entries.iter().position(|e| e.chip == chip) {
            None => {
                self.counters.misses += 1;
                ContextCheckout::Cold
            }
            Some(i) => {
                let entry = self.entries.swap_remove(i);
                if entry.instance == instance {
                    self.counters.warm_hits += 1;
                    ContextCheckout::Warm(entry.parts)
                } else {
                    self.counters.pool_hits += 1;
                    ContextCheckout::PoolOnly(ContextParts {
                        pool: entry.parts.pool,
                        ..ContextParts::default()
                    })
                }
            }
        }
    }

    /// Stores the parts built for `(chip, instance)`, evicting the
    /// least-recently-used entries beyond capacity. A later entry for the
    /// same chip replaces the earlier one.
    pub fn store(&mut self, chip: u64, instance: u64, parts: ContextParts) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(i) = self.entries.iter().position(|e| e.chip == chip) {
            self.entries.swap_remove(i);
        }
        self.entries.push(LruEntry {
            chip,
            instance,
            parts,
            last_used: self.tick,
        });
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty while over capacity");
            self.entries.swap_remove(oldest);
            self.counters.evictions += 1;
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn counters(&self) -> LruCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_keys_by_chip_but_guards_by_instance() {
        let mut lru = ContextLru::new(2);
        lru.store(1, 10, ContextParts::default());
        // Same chip, same instance: full warm parts.
        assert!(matches!(lru.checkout(1, 10), ContextCheckout::Warm(_)));
        lru.store(1, 10, ContextParts::default());
        // Same chip, different instance: pool only.
        assert!(matches!(lru.checkout(1, 11), ContextCheckout::PoolOnly(_)));
        lru.store(1, 11, ContextParts::default());
        // Unknown chip: cold.
        assert!(matches!(lru.checkout(2, 20), ContextCheckout::Cold));
        let c = lru.counters();
        assert_eq!((c.warm_hits, c.pool_hits, c.misses), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = ContextLru::new(2);
        lru.store(1, 1, ContextParts::default());
        lru.store(2, 2, ContextParts::default());
        // Touch chip 1 so chip 2 is the LRU entry.
        assert!(matches!(lru.checkout(1, 1), ContextCheckout::Warm(_)));
        lru.store(1, 1, ContextParts::default());
        lru.store(3, 3, ContextParts::default());
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.counters().evictions, 1);
        assert!(matches!(lru.checkout(2, 2), ContextCheckout::Cold));
        assert!(matches!(lru.checkout(3, 3), ContextCheckout::Warm(_)));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut lru = ContextLru::new(0);
        lru.store(1, 1, ContextParts::default());
        assert!(lru.is_empty());
        assert!(matches!(lru.checkout(1, 1), ContextCheckout::Cold));
    }

    #[test]
    fn memo_leader_fulfills_and_waiters_hit() {
        let memo = MemoCache::new();
        let lead = match memo.claim(7, || false) {
            MemoClaim::Lead(g) => g,
            _ => panic!("first claim must lead"),
        };
        // A second claimant with an expired budget gives up instead of
        // deadlocking on the in-flight marker.
        assert!(matches!(memo.claim(7, || true), MemoClaim::Expired));
        let (result, replay) = dummy_result();
        let plan = Arc::new(ServedPlan::new(result, RungKind::Dawo, replay));
        lead.fulfill(Arc::clone(&plan));
        match memo.claim(7, || false) {
            MemoClaim::Hit(got) => assert!(Arc::ptr_eq(&got, &plan)),
            _ => panic!("fulfilled key must hit"),
        }
        assert_eq!(memo.ready_len(), 1);
    }

    #[test]
    fn abandoned_lead_lets_the_next_claimant_lead() {
        let memo = MemoCache::new();
        match memo.claim(9, || false) {
            MemoClaim::Lead(g) => g.abandon(),
            _ => panic!("first claim must lead"),
        }
        assert!(memo.peek(9).is_none());
        assert!(matches!(memo.claim(9, || false), MemoClaim::Lead(_)));
    }

    fn dummy_result() -> (WashResult, OracleReplay) {
        let bench = pdw_assay::benchmarks::demo();
        let s = pdw_synth::synthesize(&bench).unwrap();
        let result = pathdriver_wash::dawo(&bench, &s).unwrap();
        let replay = pathdriver_wash::codec::gate(&s.chip, &bench.graph, &result.schedule).unwrap();
        (result, replay)
    }
}
