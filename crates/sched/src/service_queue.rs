//! Indexed service structures for the scheduler's serve loop.
//!
//! PR 8's serving loop kept admitted-but-unserved requests in a `Vec` and
//! selected work with a linear scan plus a shifting `Vec::remove` — O(n)
//! per service decision, O(n) per shed, and an O(n) per-tenant filter count
//! per arrival: O(n²) over a drain at the million-arrival tenant counts
//! ROADMAP item 1 targets. This module replaces that with:
//!
//! - [`PendingArena`]: the pending set in struct-of-arrays layout (one
//!   contiguous column per request field, a free list, and generational
//!   slots mirroring `dhl-sim`'s cart arena), so admission never clones a
//!   whole `TransferRequest` and service decisions touch only the columns
//!   they need;
//! - [`ServiceQueue`]: per-priority-class FIFO rings under
//!   [`Policy::PriorityFifo`] and a per-class `(cart count, id)` B-tree
//!   index under [`Policy::ShortestJobFirst`], giving O(1)/O(log n) pop
//!   and shed with **no element shifting**;
//! - [`DockBank`]: every endpoint's dock free-times in one flat array
//!   (replacing a per-run `HashMap<usize, Vec<f64>>`), with the
//!   earliest-free scan and the backpressure busy count in one place.
//!
//! # Why the indexed order is exactly the retired scan order
//!
//! The serving loop admits arrivals strictly in `(arrival, submission
//! index)` order, and request ids are assigned in submission order, so
//! pushes into the pending set are **monotone**: each entry's
//! `(arrival, id)` key is ≥ every key pushed before it. Consequently each
//! per-class FIFO ring is already sorted by `(arrival, id)` — the retired
//! `pick_next` scan's within-class FIFO key — so its front *is* the scan's
//! winner, and its back *is* the shed scan's latest-arrived victim. The
//! ShortestJobFirst scan ordered by `(cart count, id)` within a class
//! (arrival never broke ties), which the per-class B-tree keys replicate
//! directly. `tests/service_equivalence.rs` asserts all of this against
//! the verbatim reference pin
//! ([`reference_service`](crate::reference_service)).
//!
//! The deadline-feasibility backlog is the one place admission still walks
//! the whole pending set: floating-point addition is not associative, so
//! summing per-entry service times in any order other than admission order
//! would change admit/reject decisions by a few ULPs. [`ServiceQueue`]
//! keeps a seq-ordered index ([`ServiceQueue::backlog_service_s`]) that
//! re-sums in exactly the retired iteration order, keeping the overload
//! audit byte-identical.

use std::collections::{BTreeMap, HashMap, VecDeque};

use dhl_sim::{MovementCost, SimConfig};

use crate::admission::TenantId;
use crate::scheduler::{Policy, Priority, RequestId, TransferRequest};

/// Number of [`Priority`] classes.
const CLASSES: usize = 3;

/// Dense class index for a priority (Background lowest).
fn class_of(priority: Priority) -> usize {
    match priority {
        Priority::Background => 0,
        Priority::Normal => 1,
        Priority::Urgent => 2,
    }
}

/// One admitted-but-unserved request, as stored in (and reconstructed
/// from) the arena's columns.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ServiceEntry {
    /// The request's handle.
    pub id: RequestId,
    /// The request itself (possibly degraded at admission).
    pub req: TransferRequest,
    /// Cart count of the requested dataset (precomputed at submit).
    pub carts: usize,
    /// Estimated busy time to serve the whole request.
    pub service_s: f64,
}

/// A generational reference to a pending slot: the dense index plus the
/// generation it was issued against. Resolving a handle after its slot was
/// freed (the entry was served or shed) yields `None` instead of silently
/// reading a different request's state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PendingSlot {
    index: u32,
    generation: u32,
}

impl PendingSlot {
    /// The dense arena index this handle refers to (unvalidated; use
    /// [`PendingArena::resolve`] for the checked path).
    #[must_use]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// The pending set in struct-of-arrays layout: one contiguous column per
/// request field, slots recycled through a free list, with per-slot
/// generations so stale handles never resolve.
#[derive(Clone, Debug, Default)]
pub struct PendingArena {
    generations: Vec<u32>,
    seqs: Vec<u64>,
    ids: Vec<RequestId>,
    datasets: Vec<crate::placement::DatasetId>,
    destinations: Vec<usize>,
    priorities: Vec<Priority>,
    arrivals: Vec<dhl_units::Seconds>,
    dwells: Vec<dhl_units::Seconds>,
    tenants: Vec<TenantId>,
    deadlines: Vec<Option<dhl_units::Seconds>>,
    carts: Vec<usize>,
    service_s: Vec<f64>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl PendingArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Live (inserted and not yet removed) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts an entry, recycling a freed slot when one exists, and
    /// returns its generational handle. The admission sequence number is
    /// assigned monotonically.
    pub fn insert(&mut self, entry: ServiceEntry) -> PendingSlot {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let i = index as usize;
            self.seqs[i] = seq;
            self.ids[i] = entry.id;
            self.datasets[i] = entry.req.dataset;
            self.destinations[i] = entry.req.destination;
            self.priorities[i] = entry.req.priority;
            self.arrivals[i] = entry.req.arrival;
            self.dwells[i] = entry.req.dwell;
            self.tenants[i] = entry.req.tenant;
            self.deadlines[i] = entry.req.deadline;
            self.carts[i] = entry.carts;
            self.service_s[i] = entry.service_s;
            PendingSlot {
                index,
                generation: self.generations[i],
            }
        } else {
            let index = u32::try_from(self.generations.len()).expect("pending set fits in u32");
            self.generations.push(0);
            self.seqs.push(seq);
            self.ids.push(entry.id);
            self.datasets.push(entry.req.dataset);
            self.destinations.push(entry.req.destination);
            self.priorities.push(entry.req.priority);
            self.arrivals.push(entry.req.arrival);
            self.dwells.push(entry.req.dwell);
            self.tenants.push(entry.req.tenant);
            self.deadlines.push(entry.req.deadline);
            self.carts.push(entry.carts);
            self.service_s.push(entry.service_s);
            PendingSlot {
                index,
                generation: 0,
            }
        }
    }

    /// Frees a slot by dense index, bumping its generation so outstanding
    /// handles stop resolving, and returns the reconstructed entry.
    fn remove(&mut self, index: u32) -> ServiceEntry {
        let entry = self.entry_at(index as usize);
        self.generations[index as usize] = self.generations[index as usize].wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        entry
    }

    /// Reconstructs the entry stored at a dense index.
    fn entry_at(&self, i: usize) -> ServiceEntry {
        ServiceEntry {
            id: self.ids[i],
            req: TransferRequest {
                dataset: self.datasets[i],
                destination: self.destinations[i],
                priority: self.priorities[i],
                arrival: self.arrivals[i],
                dwell: self.dwells[i],
                tenant: self.tenants[i],
                deadline: self.deadlines[i],
            },
            carts: self.carts[i],
            service_s: self.service_s[i],
        }
    }

    /// Resolves a handle, or `None` if its slot was freed (stale
    /// generation) since it was issued.
    #[must_use]
    pub fn resolve(&self, slot: PendingSlot) -> Option<ServiceEntry> {
        let i = slot.index();
        (self.generations.get(i) == Some(&slot.generation)).then(|| self.entry_at(i))
    }
}

/// Per-policy service index over arena slots.
#[derive(Clone, Debug)]
enum ServiceIndex {
    /// One FIFO ring per priority class. Valid because pushes are monotone
    /// in `(arrival, id)` (see the module docs): each ring is sorted, so
    /// front = next-to-serve and back = shed victim within its class.
    Fifo { rings: [VecDeque<u32>; CLASSES] },
    /// Shortest-job-first: per-class `(cart count, id)` order for service,
    /// plus per-class admission order for the shed victim (latest pushed).
    Sjf {
        by_size: [BTreeMap<(usize, u64), u32>; CLASSES],
        by_seq: [BTreeMap<u64, u32>; CLASSES],
    },
}

/// The indexed pending queue: an arena of admitted requests plus the
/// per-class structures that make pop, shed, and the per-arrival admission
/// counts O(1)/O(log n) instead of O(n).
///
/// **Invariant (monotone admission):** entries must be pushed in
/// non-decreasing `(arrival, id)` order, which is exactly the order the
/// serving loop admits them in. Debug builds assert it.
#[derive(Clone, Debug)]
pub struct ServiceQueue {
    policy: Policy,
    arena: PendingArena,
    index: ServiceIndex,
    /// Admission-order (seq → slot) index over all classes: drives the
    /// bit-identical backlog re-sum and admission-order snapshots.
    by_seq: BTreeMap<u64, u32>,
    /// Per-tenant live counts, replacing the retired O(n) filter count.
    tenant_pending: HashMap<u32, usize>,
    /// Last pushed (arrival bits as ordered key, id) for the debug-mode
    /// monotonicity assertion.
    #[cfg(debug_assertions)]
    last_key: Option<(f64, u64)>,
}

impl ServiceQueue {
    /// An empty queue serving under `policy`.
    #[must_use]
    pub fn new(policy: Policy) -> Self {
        let index = match policy {
            Policy::PriorityFifo => ServiceIndex::Fifo {
                rings: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            },
            Policy::ShortestJobFirst => ServiceIndex::Sjf {
                by_size: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
                by_seq: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
            },
        };
        Self {
            policy,
            arena: PendingArena::new(),
            index,
            by_seq: BTreeMap::new(),
            tenant_pending: HashMap::new(),
            #[cfg(debug_assertions)]
            last_key: None,
        }
    }

    /// Rebuilds a queue from entries in admission order (the
    /// checkpoint-style path: [`ServiceQueue::entries`] round-trips).
    #[must_use]
    pub fn from_entries(policy: Policy, entries: &[ServiceEntry]) -> Self {
        let mut q = Self::new(policy);
        for &e in entries {
            q.push(e);
        }
        q
    }

    /// The ordering discipline in effect.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Live pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Live entries owned by `tenant` — O(1), maintained incrementally.
    #[must_use]
    pub fn tenant_pending(&self, tenant: TenantId) -> usize {
        self.tenant_pending.get(&tenant.0).copied().unwrap_or(0)
    }

    /// Pending service-time backlog, summed in admission order — the same
    /// floating-point reduction order as the retired `Vec` iteration
    /// (`Vec::remove` preserves relative order), so deadline-feasibility
    /// estimates are bit-identical.
    ///
    /// Never inlined: this walk dominates deadline-aware admission, and
    /// inlined into the serve loop its codegen follows the loop's register
    /// pressure (measured ~20 % slower on the benchmark's `faulty` serving
    /// run, release build, 2-vCPU VM).
    #[must_use]
    #[inline(never)]
    pub fn backlog_service_s(&self) -> f64 {
        self.by_seq
            .values()
            .map(|&slot| self.arena.service_s[slot as usize])
            .sum()
    }

    /// Live entries in admission order (for snapshots and rebuilds).
    #[must_use]
    pub fn entries(&self) -> Vec<ServiceEntry> {
        self.by_seq
            .values()
            .map(|&slot| self.arena.entry_at(slot as usize))
            .collect()
    }

    /// Admits one entry and returns its generational handle.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `(arrival, id)` regresses below the previous
    /// push (the serving loop's admission order makes that impossible).
    pub fn push(&mut self, entry: ServiceEntry) -> PendingSlot {
        #[cfg(debug_assertions)]
        {
            let key = (entry.req.arrival.seconds(), entry.id.0);
            if let Some((a, id)) = self.last_key {
                debug_assert!(
                    entry.req.arrival.seconds() > a
                        || (entry.req.arrival.seconds() == a && entry.id.0 > id),
                    "service queue pushes must be monotone in (arrival, id)"
                );
            }
            self.last_key = Some(key);
        }
        let class = class_of(entry.req.priority);
        let tenant = entry.req.tenant.0;
        let handle = self.arena.insert(entry);
        let slot = handle.index;
        let seq = self.arena.seqs[slot as usize];
        match &mut self.index {
            ServiceIndex::Fifo { rings } => rings[class].push_back(slot),
            ServiceIndex::Sjf { by_size, by_seq } => {
                by_size[class].insert((entry.carts, entry.id.0), slot);
                by_seq[class].insert(seq, slot);
            }
        }
        self.by_seq.insert(seq, slot);
        *self.tenant_pending.entry(tenant).or_insert(0) += 1;
        handle
    }

    /// Detaches a slot from every index and frees its arena storage.
    fn detach(&mut self, slot: u32) -> ServiceEntry {
        let i = slot as usize;
        let seq = self.arena.seqs[i];
        let class = class_of(self.arena.priorities[i]);
        match &mut self.index {
            ServiceIndex::Fifo { rings } => {
                // Pops always take the front and sheds the back, so this
                // linear fallback only runs for arbitrary removals (none on
                // the serving path).
                if rings[class].front() == Some(&slot) {
                    rings[class].pop_front();
                } else if rings[class].back() == Some(&slot) {
                    rings[class].pop_back();
                } else if let Some(pos) = rings[class].iter().position(|&s| s == slot) {
                    rings[class].remove(pos);
                }
            }
            ServiceIndex::Sjf { by_size, by_seq } => {
                by_size[class].remove(&(self.arena.carts[i], self.arena.ids[i].0));
                by_seq[class].remove(&seq);
            }
        }
        self.by_seq.remove(&seq);
        let tenant = self.arena.tenants[i].0;
        if let Some(count) = self.tenant_pending.get_mut(&tenant) {
            *count = count.saturating_sub(1);
        }
        self.arena.remove(slot)
    }

    /// Serves the best pending entry: highest priority class; within it the
    /// policy's order (FIFO by `(arrival, id)`, or `(cart count, id)`);
    /// exactly the retired scan's winner.
    pub fn pop_next(&mut self) -> Option<ServiceEntry> {
        let slot = match &self.index {
            ServiceIndex::Fifo { rings } => {
                rings.iter().rev().find_map(|ring| ring.front().copied())?
            }
            ServiceIndex::Sjf { by_size, .. } => by_size
                .iter()
                .rev()
                .find_map(|m| m.values().next().copied())?,
        };
        Some(self.detach(slot))
    }

    /// Sheds the retired scan's victim: the latest-admitted entry of the
    /// lowest non-empty class — removed only if strictly lower-priority
    /// than `incoming`.
    pub fn shed_victim(&mut self, incoming: Priority) -> Option<ServiceEntry> {
        let slot = match &self.index {
            ServiceIndex::Fifo { rings } => rings.iter().find_map(|ring| ring.back().copied())?,
            ServiceIndex::Sjf { by_seq, .. } => by_seq
                .iter()
                .find_map(|m| m.values().next_back().copied())?,
        };
        if self.arena.priorities[slot as usize] < incoming {
            Some(self.detach(slot))
        } else {
            None
        }
    }

    /// Resolves a handle issued by [`ServiceQueue::push`], or `None` once
    /// the entry has been served or shed.
    #[must_use]
    pub fn resolve(&self, slot: PendingSlot) -> Option<ServiceEntry> {
        self.arena.resolve(slot)
    }
}

/// Every endpoint's dock free-times in one flat array, replacing a
/// `HashMap<usize, Vec<f64>>` and its per-service allocation.
///
/// An endpoint counts as *touched* once a request has been served to it —
/// matching the lazy `HashMap::entry` creation of the retired code, whose
/// dock-saturation backpressure treated a never-served endpoint as
/// unsaturated regardless of its dock count.
#[derive(Clone, Debug)]
pub struct DockBank {
    /// Slot range of endpoint `ep` is `offsets[ep]..offsets[ep + 1]`.
    offsets: Vec<u32>,
    free: Vec<f64>,
    touched: Vec<bool>,
}

impl DockBank {
    /// One zeroed slot per configured dock, per endpoint.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let mut offsets = Vec::with_capacity(cfg.endpoints.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for ep in &cfg.endpoints {
            total += ep.docks;
            offsets.push(total);
        }
        Self {
            offsets,
            free: vec![0.0; total as usize],
            touched: vec![false; cfg.endpoints.len()],
        }
    }

    /// The earliest-free dock slot at `endpoint`, marking the endpoint
    /// touched. Ties resolve to the *last* minimum, exactly as the retired
    /// `Iterator::min_by` scan did.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint has no docks (racks always do).
    pub fn earliest_mut(&mut self, endpoint: usize) -> &mut f64 {
        self.touched[endpoint] = true;
        let lo = self.offsets[endpoint] as usize;
        let hi = self.offsets[endpoint + 1] as usize;
        assert!(hi > lo, "rack has docks");
        let mut best = lo;
        for i in lo + 1..hi {
            if self.free[i].total_cmp(&self.free[best]).is_le() {
                best = i;
            }
        }
        &mut self.free[best]
    }

    /// `(busy, total)` docks at `endpoint` still busy at `at` — `None` for
    /// an endpoint no request has been served to yet (or with zero docks),
    /// which the backpressure check treats as unsaturated.
    #[must_use]
    pub fn busy_at(&self, endpoint: usize, at: f64) -> Option<(usize, usize)> {
        if !self.touched.get(endpoint).copied().unwrap_or(false) {
            return None;
        }
        let lo = self.offsets[endpoint] as usize;
        let hi = self.offsets[endpoint + 1] as usize;
        if hi == lo {
            return None;
        }
        let busy = self.free[lo..hi].iter().filter(|&&f| f > at).count();
        Some((busy, hi - lo))
    }
}

/// Per-endpoint [`MovementCost`] cache: the library→endpoint trip cost is a
/// pure function of the topology, so computing it once per endpoint (rather
/// than once per arrival *and* once per service) removes a few hundred
/// flops from every admission decision.
#[derive(Clone, Debug)]
pub(crate) struct TripCache {
    costs: Vec<Option<MovementCost>>,
}

impl TripCache {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            costs: vec![None; cfg.endpoints.len()],
        }
    }

    pub(crate) fn cost(&mut self, cfg: &SimConfig, destination: usize) -> MovementCost {
        *self.costs[destination].get_or_insert_with(|| {
            let distance = cfg.endpoints[destination].position - cfg.endpoints[0].position;
            MovementCost::for_distance(cfg, distance)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DatasetId;
    use dhl_units::Seconds;

    fn entry(id: u64, priority: Priority, arrival: f64, carts: usize) -> ServiceEntry {
        ServiceEntry {
            id: RequestId(id),
            req: TransferRequest {
                dataset: DatasetId(0),
                destination: 1,
                priority,
                arrival: Seconds::new(arrival),
                dwell: Seconds::ZERO,
                tenant: TenantId(id as u32 % 3),
                deadline: None,
            },
            carts,
            service_s: carts as f64 * 10.0,
        }
    }

    #[test]
    fn fifo_pops_highest_class_in_arrival_order() {
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        q.push(entry(0, Priority::Background, 0.0, 1));
        q.push(entry(1, Priority::Urgent, 1.0, 2));
        q.push(entry(2, Priority::Normal, 2.0, 1));
        q.push(entry(3, Priority::Urgent, 3.0, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next().map(|e| e.id.0)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn sjf_pops_fewest_carts_within_class() {
        let mut q = ServiceQueue::new(Policy::ShortestJobFirst);
        q.push(entry(0, Priority::Normal, 0.0, 9));
        q.push(entry(1, Priority::Normal, 1.0, 2));
        q.push(entry(2, Priority::Urgent, 2.0, 36));
        q.push(entry(3, Priority::Normal, 3.0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next().map(|e| e.id.0)).collect();
        // Urgent first despite its size, then 2-cart jobs by id, then 9.
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn shed_takes_latest_of_lowest_class_only_when_strictly_lower() {
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        q.push(entry(0, Priority::Background, 0.0, 1));
        q.push(entry(1, Priority::Background, 1.0, 1));
        q.push(entry(2, Priority::Normal, 2.0, 1));
        // Equal priority: no victim.
        assert!(q.shed_victim(Priority::Background).is_none());
        // The *latest* background entry goes first.
        assert_eq!(q.shed_victim(Priority::Normal).unwrap().id.0, 1);
        assert_eq!(q.shed_victim(Priority::Urgent).unwrap().id.0, 0);
        // Only Normal remains; an Urgent arrival may shed it.
        assert_eq!(q.shed_victim(Priority::Urgent).unwrap().id.0, 2);
        assert!(q.shed_victim(Priority::Urgent).is_none());
    }

    #[test]
    fn tenant_counts_and_backlog_track_pushes_and_pops() {
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        for i in 0..6 {
            q.push(entry(i, Priority::Normal, i as f64, 1));
        }
        assert_eq!(q.tenant_pending(TenantId(0)), 2); // ids 0, 3
        assert_eq!(q.backlog_service_s(), 60.0);
        let popped = q.pop_next().unwrap();
        assert_eq!(popped.id.0, 0);
        assert_eq!(q.tenant_pending(TenantId(0)), 1);
        assert_eq!(q.backlog_service_s(), 50.0);
    }

    #[test]
    fn handles_go_stale_once_served() {
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        let h = q.push(entry(0, Priority::Normal, 0.0, 1));
        assert_eq!(q.resolve(h).unwrap().id.0, 0);
        let _ = q.pop_next();
        assert!(q.resolve(h).is_none(), "freed slot must not resolve");
        // The slot is recycled; the old handle still must not resolve.
        let h2 = q.push(entry(1, Priority::Normal, 1.0, 1));
        assert!(q.resolve(h).is_none());
        assert_eq!(q.resolve(h2).unwrap().id.0, 1);
    }

    #[test]
    fn entries_round_trip_through_rebuild() {
        let mut q = ServiceQueue::new(Policy::ShortestJobFirst);
        for i in 0..5 {
            q.push(entry(i, Priority::Normal, i as f64, 5 - i as usize));
        }
        let _ = q.pop_next();
        let snapshot = q.entries();
        let mut rebuilt = ServiceQueue::from_entries(Policy::ShortestJobFirst, &snapshot);
        assert_eq!(rebuilt.len(), q.len());
        assert_eq!(rebuilt.backlog_service_s(), q.backlog_service_s());
        while let (Some(a), Some(b)) = (q.pop_next(), rebuilt.pop_next()) {
            assert_eq!(a, b);
        }
        assert!(q.is_empty() && rebuilt.is_empty());
    }

    #[test]
    fn dock_bank_matches_lazy_hashmap_semantics() {
        let cfg = SimConfig::paper_default();
        let mut bank = DockBank::new(&cfg);
        // Untouched endpoint: backpressure sees nothing.
        assert_eq!(bank.busy_at(1, 0.0), None);
        let docks = cfg.endpoints[1].docks as usize;
        *bank.earliest_mut(1) = 10.0;
        assert_eq!(bank.busy_at(1, 5.0), Some((1, docks)));
        assert_eq!(bank.busy_at(1, 10.0), Some((0, docks)));
        // Last-minimum tie-breaking: with every slot equal, the retired
        // min_by returned the final slot; mutate through the reference and
        // observe a different slot than the first write.
        let mut fresh = DockBank::new(&cfg);
        *fresh.earliest_mut(1) = 1.0;
        assert_eq!(
            fresh.busy_at(1, 0.5),
            Some((1, docks)),
            "exactly one slot claimed"
        );
    }
}
