//! Multi-tenant serving: a shared translation-cache namespace.
//!
//! One process serving hundreds to thousands of guest sessions wants
//! to pay each cold translation *once*, not once per session.
//! Translated bundles themselves cannot be shared — every session's
//! `Machine` owns its arena and the translator's data regions live at
//! fixed addresses inside that session's own `GuestMem` — so, exactly
//! like the warm-start image format ([`crate::persist`]), sharing
//! happens at the *generation metadata* level: a [`SharedCache`] stores
//! validated [`ImageBlock`] records, and an importing tenant replays the
//! deterministic cold generator at its own arena position, paying the
//! flat [`crate::cost::IMAGE_LOAD_CYCLES`] instead of the
//! per-instruction translation cost.
//!
//! ## Namespaces
//!
//! Records are only meaningful under the config/layout fingerprint
//! they were generated under, and only for the binary whose source
//! bytes they checksum. A [`SharedCache`] therefore maps a
//! [`namespace_key`] — `persist::fingerprint(cfg)` mixed with a binary
//! identity — to an isolated [`Namespace`]. Different binaries (or
//! differently configured engines) can never observe each other's
//! translations.
//!
//! A namespace is one map of published records by EIP plus the set of
//! pages the SMC-thrash governor denied. Invalidation is pulling
//! records out of it, on the events a tenant sees locally: one record
//! on an eviction or a ladder strike, a page's on SMC, a page's (and
//! the page itself, for good) on a governor blacklist, every record on
//! a cache flush.
//!
//! ## The correctness gate
//!
//! What a peer published is not trusted: an importing tenant
//! re-checksums the record's source span against **its own** guest
//! memory before regenerating (see `Engine::shared_consult`), so a
//! stale or foreign record can only be rejected, never executed
//! against the wrong bytes. Pulling records keeps the namespace from
//! offering imports that would be rejected anyway.
//!
//! The per-tenant dispatch fast path (18 cycles) never consults the
//! namespace: it is asked only on a local translation *miss*, on the
//! slow path that was already paying for translation work.
//!
//! ## One owner
//!
//! Every session runs on one thread (`btlib::serve::Scheduler`), so no
//! consult can race an invalidation. The one `Mutex` per namespace is
//! there because a [`SharedCache`] is handed out as an `Arc`, not
//! because anything contends for it. [`DEFAULT_SHARDS`], the argument
//! of [`SharedCache::new`], the `contention` counter of
//! [`Namespace::consult`] and `Stats::shared_lock_contention` are
//! unread vestiges of a sharded, locked namespace, kept until the
//! benchmark that names them drops them.

use crate::btos::BtOs;
use crate::engine::{source_pages, src_checksum, BlockKind, Config, Engine, RecordSource};
use crate::persist::{self, ImageBlock};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// The shard count callers still pass to [`SharedCache::new`]; unread,
/// since a namespace is one map.
pub const DEFAULT_SHARDS: usize = 64;

/// Derives the namespace key for a tenant: the persist fingerprint of
/// its config (codegen knobs + address-space layout) mixed with a
/// caller-supplied binary identity (e.g. an FNV of the guest image).
/// Tenants share translations iff both match.
pub fn namespace_key(cfg: &Config, binary_id: u64) -> u64 {
    persist::fingerprint(cfg) ^ binary_id.rotate_left(17)
}

/// Outcome of a namespace consult (see [`Namespace::consult`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Consult {
    /// A published record: the tenant may validate and import it.
    Hit(ImageBlock),
    /// The EIP's page is denied (SMC-thrash governor blacklist).
    Denied,
    /// Nothing published for this EIP.
    Miss,
}

#[derive(Debug, Default)]
struct Records {
    by_eip: HashMap<u32, ImageBlock>,
    /// Pages the SMC-thrash governor has denied for sharing: a tenant
    /// that blacklisted a page tells every other tenant not to import
    /// translations the guest is busy rewriting.
    denied_pages: HashSet<u32>,
}

impl Records {
    /// Whether any page of the source span `[start, end)` is denied.
    fn denies(&self, span: (u32, u32)) -> bool {
        source_pages(span).any(|p| self.denied_pages.contains(&p))
    }

    /// Removes every record with source on `page`, a block straddling
    /// onto it from the page before included. Returns how many.
    fn pull_page(&mut self, page: u32) -> u64 {
        let before = self.by_eip.len();
        self.by_eip
            .retain(|_, b| !source_pages(b.src_range).contains(&page));
        (before - self.by_eip.len()) as u64
    }
}

/// One binary's (and config shape's) shared translation namespace.
/// No stored record has source on a denied page.
#[derive(Debug, Default)]
pub struct Namespace {
    records: Mutex<Records>,
}

impl Namespace {
    fn records(&self) -> MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `eip`. `_contention` is unread (see the module doc).
    pub fn consult(&self, eip: u32, _contention: &mut u64) -> Consult {
        let records = self.records();
        if records.denies((eip, eip)) {
            return Consult::Denied;
        }
        match records.by_eip.get(&eip) {
            Some(b) => {
                debug_assert!(
                    !records.denies(b.src_range),
                    "stored record on a denied page"
                );
                Consult::Hit(b.clone())
            }
            None => Consult::Miss,
        }
    }

    /// Publishes (or re-publishes) a record. Returns false when a page
    /// of its source is denied.
    pub fn publish(&self, block: ImageBlock) -> bool {
        let mut records = self.records();
        if records.denies(block.src_range) {
            return false;
        }
        records.by_eip.insert(block.eip, block);
        true
    }

    /// Updates a published record's profile hints (heat, edge
    /// counters, indirect-target hint) without re-publishing the whole
    /// record — the end-of-session sync that lets later tenants start
    /// hot. Hints only ever grow (max-merge), so sync order between
    /// tenants cannot flap the stored profile.
    pub fn refresh_profile(&self, eip: u32, heat: u64, edges: (u32, u32), ic: (u32, u32)) -> bool {
        let mut records = self.records();
        let Some(b) = records.by_eip.get_mut(&eip) else {
            return false;
        };
        b.heat = b.heat.max(heat);
        b.edges = (b.edges.0.max(edges.0), b.edges.1.max(edges.1));
        if ic.0 != 0 && ic.1 >= b.ic_hits {
            b.ic_pred = ic.0;
            b.ic_hits = ic.1;
        }
        true
    }

    /// Pulls one EIP's record (eviction, ladder strike). Returns true
    /// when one was published.
    pub fn pull(&self, eip: u32) -> bool {
        self.records().by_eip.remove(&eip).is_some()
    }

    /// Pulls every record with source on a guest page (SMC
    /// invalidation), a block straddling onto it from the page before
    /// included. Returns how many.
    pub fn pull_page(&self, page: u32) -> u64 {
        self.records().pull_page(page)
    }

    /// Denies a page for sharing (SMC-thrash governor blacklist) and
    /// pulls whatever was published for it. Returns how many records.
    pub fn deny_page(&self, page: u32) -> u64 {
        let mut records = self.records();
        records.denied_pages.insert(page);
        records.pull_page(page)
    }

    /// Pulls every record (a tenant's full cache flush). Returns how
    /// many.
    pub fn pull_all(&self) -> u64 {
        let mut records = self.records();
        let n = records.by_eip.len() as u64;
        records.by_eip.clear();
        n
    }

    /// Number of published records — the unique translated EIPs the
    /// namespace can serve, the denominator of the serving bench's
    /// dedup ratio.
    pub fn unique_eips(&self) -> u64 {
        self.records().by_eip.len() as u64
    }
}

/// The process-wide shared translation cache: namespaces keyed by
/// [`namespace_key`].
#[derive(Debug)]
pub struct SharedCache {
    namespaces: Mutex<HashMap<u64, Arc<Namespace>>>,
    next_tenant: Mutex<u32>,
}

impl SharedCache {
    /// An empty shared cache. `_shards` is unread (see the module doc).
    pub fn new(_shards: usize) -> Arc<SharedCache> {
        Arc::new(SharedCache {
            namespaces: Mutex::new(HashMap::new()),
            next_tenant: Mutex::new(0),
        })
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, Arc<Namespace>>> {
        self.namespaces.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The namespace for `key`, created on first use.
    pub fn namespace(&self, key: u64) -> Arc<Namespace> {
        self.map().entry(key).or_default().clone()
    }

    /// Mints a tenant handle into the namespace for `key` (tenant ids
    /// are unique across the cache, in admission order).
    pub fn tenant(&self, key: u64) -> SharedTenant {
        let ns = self.namespace(key);
        let mut next = self.next_tenant.lock().unwrap_or_else(|e| e.into_inner());
        let id = *next;
        *next += 1;
        SharedTenant { ns, tenant: id }
    }

    /// Number of namespaces created so far.
    pub fn namespaces(&self) -> usize {
        self.map().len()
    }

    /// Sum of published records across all namespaces.
    pub fn unique_eips(&self) -> u64 {
        self.map().values().map(|ns| ns.unique_eips()).sum()
    }
}

/// One session's handle into a shared namespace: attach with
/// `Engine::attach_shared`.
#[derive(Clone, Debug)]
pub struct SharedTenant {
    /// The namespace this tenant publishes into / consults.
    pub ns: Arc<Namespace>,
    /// Unique tenant id (admission order).
    pub tenant: u32,
}

/// A session's attachment to a shared namespace — the tenant hooks'
/// state. Detached (the default), every hook does nothing.
#[derive(Debug, Default)]
pub(crate) struct Tenant {
    /// The namespace handle, once attached.
    shared: Option<SharedTenant>,
}

impl Tenant {
    /// The attached namespace; `None` when detached.
    fn ns(&self) -> Option<&Namespace> {
        self.shared.as_ref().map(|t| &*t.ns)
    }
}

impl Engine {
    /// Attaches this session to a shared multi-tenant translation
    /// namespace (see [`crate::serving`]). From now on, translation
    /// misses consult the namespace before paying the cold-translation
    /// cost, fresh translations are published to it, and every local
    /// invalidation path (SMC, eviction, governor blacklist, flush)
    /// pulls from it. Attach before the first dispatch; tenants of the
    /// same namespace must run the same binary under the same config
    /// (the namespace key — [`namespace_key`] — encodes both, and the
    /// per-record source checksums enforce it).
    pub fn attach_shared(&mut self, tenant: SharedTenant) {
        self.tenant.shared = Some(tenant);
    }

    /// Consults the shared namespace for `eip` on a local translation
    /// miss and materializes a published record at this tenant's arena
    /// position, profile hints included. Returns the installed entry,
    /// or `None` to fall through to ordinary cold translation.
    pub(crate) fn shared_consult(&mut self, os: &mut dyn BtOs, eip: u32) -> Option<u64> {
        match self.tenant.ns()?.consult(eip, &mut 0) {
            Consult::Hit(block) => {
                let record = std::slice::from_ref(&block);
                self.materialize(os, record, RecordSource::Namespace).entry
            }
            Consult::Denied => {
                self.stats.shared_gen_rejects += 1;
                None
            }
            Consult::Miss => None,
        }
    }

    /// Publishes the current translation of `eip` (its generation
    /// metadata + profile hints) to the shared namespace, if attached.
    /// Hot traces are not published — like warm-start images, the
    /// shared record is always the cold base a peer re-heats from.
    pub(crate) fn shared_publish(&mut self, eip: u32) {
        let Some(ns) = self.tenant.ns() else {
            return;
        };
        // A block already stale against our own memory is not exported:
        // it would only hand peers a guaranteed reject.
        let Some(b) = self.live_block(eip).filter(|b| {
            b.kind != BlockKind::Hot && src_checksum(&self.mem, b.src_range) == b.src_fnv
        }) else {
            return;
        };
        if ns.publish(persist::record_of(self, b)) {
            self.stats.shared_publishes += 1;
        }
    }

    /// End-of-slice profile sync: pushes this tenant's current heat /
    /// edge / inline-cache observations into the shared namespace
    /// (max-merge, so sync order between tenants cannot flap the stored
    /// profile). The scheduler calls this when a session is harvested,
    /// so later tenants start with the hottest profile any peer earned.
    pub fn shared_sync(&mut self) {
        let Some(ns) = self.tenant.ns() else {
            return;
        };
        for (eip, id) in self.registry.registered() {
            let h = self.blocks[id as usize].profile.hints(&self.mem);
            ns.refresh_profile(eip, h.heat, h.edges, (h.ic_pred, h.ic_hits));
        }
    }

    /// Tells the shared namespace, if attached, about a local
    /// invalidation: `pull` removes what peers must no longer import
    /// (one record on eviction or a ladder strike, a page's on SMC or a
    /// governor blacklist, every record on a flush) and returns how
    /// many records it pulled.
    pub(crate) fn shared_notify(&mut self, pull: impl FnOnce(&Namespace) -> u64) {
        if let Some(ns) = self.tenant.ns() {
            self.stats.shared_pulls += pull(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(eip: u32) -> ImageBlock {
        ImageBlock {
            eip,
            src_range: (eip, eip + 4),
            ..ImageBlock::default()
        }
    }

    #[test]
    fn publish_consult_roundtrip() {
        let ns = Namespace::default();
        let mut c = 0;
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert!(ns.publish(rec(0x40_0000)));
        match ns.consult(0x40_0000, &mut c) {
            Consult::Hit(b) => assert_eq!(b.eip, 0x40_0000),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(ns.unique_eips(), 1);
    }

    #[test]
    fn pulling_one_record_leaves_its_neighbour_importable() {
        let ns = Namespace::default();
        let mut c = 0;
        ns.publish(rec(0x40_0000));
        ns.publish(rec(0x40_0100));
        assert!(ns.pull(0x40_0000));
        assert!(!ns.pull(0x40_0000), "nothing left to pull");
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert!(matches!(ns.consult(0x40_0100, &mut c), Consult::Hit(_)));
        assert_eq!(ns.pull_all(), 1);
        assert_eq!(ns.unique_eips(), 0);
    }

    #[test]
    fn page_invalidation_and_denial() {
        let ns = Namespace::default();
        let mut c = 0;
        ns.publish(rec(0x40_0000));
        ns.publish(rec(0x40_0800));
        ns.publish(rec(0x41_0000)); // different page
        assert_eq!(ns.pull_page(0x400), 2);
        assert_eq!(ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert!(ns.consult(0x41_0000, &mut c) != Consult::Miss);
        assert_eq!(ns.deny_page(0x410), 1);
        assert_eq!(ns.consult(0x41_0000, &mut c), Consult::Denied);
        assert!(!ns.publish(rec(0x41_0000)), "denied page refuses publish");
    }

    #[test]
    fn a_straddling_record_belongs_to_both_pages() {
        let ns = Namespace::default();
        let mut c = 0;
        let straddler = ImageBlock {
            eip: 0x40_0FF0,
            src_range: (0x40_0FF0, 0x40_1004),
            ..ImageBlock::default()
        };
        ns.publish(straddler.clone());
        ns.publish(rec(0x40_0100));
        // A store to the second page takes the straddler, not its
        // neighbour on the first.
        assert_eq!(ns.pull_page(0x401), 1);
        assert_eq!(ns.consult(0x40_0FF0, &mut c), Consult::Miss);
        assert_ne!(ns.consult(0x40_0100, &mut c), Consult::Miss);
        assert!(ns.publish(straddler.clone()));
        assert_eq!(ns.deny_page(0x401), 1);
        assert!(!ns.publish(straddler), "its second page is denied");
        assert_ne!(ns.consult(0x40_0100, &mut c), Consult::Denied);
    }

    #[test]
    fn profile_refresh_is_max_merge() {
        let ns = Namespace::default();
        let mut c = 0;
        ns.publish(rec(0x40_0000));
        assert!(ns.refresh_profile(0x40_0000, 100, (5, 7), (0x50_0000, 9)));
        assert!(ns.refresh_profile(0x40_0000, 40, (2, 11), (0x60_0000, 3)));
        assert!(
            !ns.refresh_profile(0x40_0100, 1, (0, 0), (0, 0)),
            "unpublished"
        );
        match ns.consult(0x40_0000, &mut c) {
            Consult::Hit(b) => {
                assert_eq!(b.heat, 100);
                assert_eq!(b.edges, (5, 11));
                // The lower-hit IC hint must not displace the higher one.
                assert_eq!(b.ic_pred, 0x50_0000);
                assert_eq!(b.ic_hits, 9);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn namespaces_are_isolated() {
        let cache = SharedCache::new(DEFAULT_SHARDS);
        let a = cache.tenant(1);
        let b = cache.tenant(2);
        assert_eq!(a.tenant, 0);
        assert_eq!(b.tenant, 1);
        let mut c = 0;
        a.ns.publish(rec(0x40_0000));
        assert_eq!(b.ns.consult(0x40_0000, &mut c), Consult::Miss);
        assert_eq!(cache.namespaces(), 2);
        let a2 = cache.tenant(1);
        assert!(matches!(a2.ns.consult(0x40_0000, &mut c), Consult::Hit(_)));
    }
}
