//! Indexed service structures for the scheduler's serve loop.
//!
//! PR 8's serving loop kept admitted-but-unserved requests in a `Vec` and
//! selected work with a linear scan plus a shifting `Vec::remove` — O(n)
//! per service decision, O(n) per shed, and an O(n) per-tenant filter count
//! per arrival: O(n²) over a drain at the million-arrival tenant counts
//! ROADMAP item 1 targets. This module replaces that with:
//!
//! - `PendingArena`: the pending set as whole entries in one `Vec` of
//!   slots, with the FIFO lists and the free list linked through them;
//! - [`ServiceQueue`]: per-priority-class FIFO lists under
//!   [`Policy::PriorityFifo`] and a per-class `(cart count, id)` B-tree
//!   index under [`Policy::ShortestJobFirst`], giving O(1)/O(log n) pop
//!   and shed with **no element shifting**;
//! - [`DockBank`]: every endpoint's dock free-times in one flat array,
//!   with the earliest-free scan and the backpressure busy count in one
//!   place;
//! - `IdTable`: rows in `Vec` slots keyed by a dense id, with a `BTreeMap`
//!   past the dense limit. It backs the tenant counts and rows and the
//!   availability tracker's windows, so no serve-path lookup hashes.
//!
//! # Why the indexed order is exactly the retired scan order
//!
//! The serving loop admits arrivals strictly in `(arrival, submission
//! index)` order, and request ids are assigned in submission order, so
//! pushes into the pending set are **monotone**: each entry's
//! `(arrival, id)` key is ≥ every key pushed before it. Consequently each
//! per-class FIFO list is already sorted by `(arrival, id)` — the retired
//! `pick_next` scan's within-class FIFO key — so its front *is* the scan's
//! winner, and its back *is* the shed scan's latest-arrived victim. The
//! ShortestJobFirst scan ordered by `(cart count, id)` within a class
//! (arrival never broke ties), which the per-class B-tree keys replicate
//! directly. `tests/service_equivalence.rs` asserts all of this against
//! the verbatim reference pin
//! ([`reference_service`](crate::reference_service)).
//!
//! The deadline check's backlog is the admission-order sum of pending
//! service times (float addition is not associative, so any other order
//! moves decisions by ULPs). Rather than re-sum per arrival, the queue
//! keeps a running sum with a rigorous error bound
//! ([`ServiceQueue::backlog_bounds`]); only a deadline inside that bracket
//! pays for the exact walk ([`ServiceQueue::backlog_service_s`]).

use std::collections::BTreeMap;

use dhl_sim::{MovementCost, SimConfig};

use crate::admission::TenantId;
use crate::recycle;
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

/// One admitted-but-unserved request, as stored in the arena.
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

/// Rows keyed by a dense id: tenant ids minted by `ArrivalSpec`, dataset
/// ids minted by `Placement`, endpoint indices. Ids below `limit` index a
/// `Vec` of slots; an id at or beyond it (a hand-assigned sparse id such as
/// `TenantId(u32::MAX)`) keys a `BTreeMap` instead, so no id allocates more
/// than `limit` slots. Rows walk in ascending id (every dense id is below
/// every sparse one), and equality compares those walks.
#[derive(Clone, Debug)]
pub(crate) struct IdTable<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u64, T>,
    limit: usize,
}

impl<T> IdTable<T> {
    /// Ids at most this far beyond twice the request count still count as
    /// dense: the `Option` slots are cheap relative to per-request map walks.
    const DENSE_SLACK: usize = 1024;

    /// An empty table for a run of `requests` requests.
    pub(crate) fn new(requests: usize) -> Self {
        Self {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
            limit: requests.saturating_mul(2).saturating_add(Self::DENSE_SLACK),
        }
    }

    /// The dense slot of `id`, or `None` when it is keyed sparsely.
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id).ok().filter(|&i| i < self.limit)
    }

    /// The row for `id`, created by `init` on first use.
    pub(crate) fn get_or_insert(&mut self, id: u64, init: impl FnOnce() -> T) -> &mut T {
        let Some(i) = self.slot(id) else {
            return self.sparse.entry(id).or_insert_with(init);
        };
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        self.dense[i].get_or_insert_with(init)
    }

    /// The row for `id`, if one was created.
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        match self.slot(id) {
            Some(i) => self.dense.get(i)?.as_ref(),
            None => self.sparse.get(&id),
        }
    }

    /// The row for `id`, if one was created.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot(id) {
            Some(i) => self.dense.get_mut(i)?.as_mut(),
            None => self.sparse.get_mut(&id),
        }
    }

    /// `(id, row)` pairs in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (0u64..)
            .zip(&self.dense)
            .filter_map(|(id, row)| Some((id, row.as_ref()?)))
            .chain(self.sparse.iter().map(|(&id, row)| (id, row)))
    }

    /// The rows in ascending id.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let sparse = self.sparse.values_mut();
        self.dense.iter_mut().flatten().chain(sparse)
    }

    /// Consumes the table, yielding its rows in ascending id.
    pub(crate) fn into_values(self) -> impl Iterator<Item = T> {
        let sparse = self.sparse.into_values();
        self.dense.into_iter().flatten().chain(sparse)
    }
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: PartialEq> PartialEq for IdTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Ends every slot list.
const NIL: u32 = u32::MAX;

/// An arena slot: a pending entry, its admission sequence number, and its
/// links in its class's FIFO list. A freed slot's `next` links the free list.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Slot {
    entry: ServiceEntry,
    seq: u64,
    prev: u32,
    next: u32,
}

/// The pending set: whole entries in one `Vec` of slots, recycled across
/// runs on a thread (see [`recycle`]), so a push or pop touches one or two
/// cache lines and a repeated run allocates nothing here.
#[derive(Clone, Debug)]
struct PendingArena {
    slots: Vec<Slot>,
    free: u32,
    live: usize,
    next_seq: u64,
}

impl PendingArena {
    /// Inserts an entry, unlinked, recycling a freed slot when one exists,
    /// and returns its index. Sequence numbers are assigned monotonically.
    fn insert(&mut self, entry: ServiceEntry) -> u32 {
        let slot = Slot {
            entry,
            seq: self.next_seq,
            prev: NIL,
            next: NIL,
        };
        self.next_seq += 1;
        self.live += 1;
        if self.free != NIL {
            let index = self.free;
            self.free = self.slots[index as usize].next;
            self.slots[index as usize] = slot;
            return index;
        }
        let index = u32::try_from(self.slots.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("pending set fits in u32");
        self.slots.push(slot);
        index
    }

    /// Frees a slot and returns its entry.
    fn remove(&mut self, index: u32) -> ServiceEntry {
        self.live -= 1;
        let slot = &mut self.slots[index as usize];
        slot.next = self.free;
        self.free = index;
        slot.entry
    }
}

/// Per-policy service index over arena slots. The FIFO lists and the SJF
/// `by_seq` maps each hold one class in admission order, so their union
/// sorted by sequence number is the admission order of the pending set.
#[derive(Clone, Debug)]
enum ServiceIndex {
    /// One `(head, tail)` slot list per priority class, linked through the
    /// arena. Valid because pushes are monotone in `(arrival, id)` (see the
    /// module docs): each list is sorted, so head = next-to-serve and tail =
    /// shed victim within its class.
    Fifo { ends: [(u32, u32); CLASSES] },
    /// Shortest-job-first: per-class `(cart count, id)` order for service,
    /// plus per-class admission order for the shed victim (latest pushed).
    Sjf {
        by_size: [BTreeMap<(usize, u64), u32>; CLASSES],
        by_seq: [BTreeMap<u64, u32>; CLASSES],
    },
}

/// The indexed pending queue: an arena of admitted requests plus the
/// per-class structures that make pop, shed, and the per-arrival admission
/// counts and backlog bracket O(1)/O(log n) instead of O(n).
///
/// **Invariant (monotone admission):** entries must be pushed in
/// non-decreasing `(arrival, id)` order, which is exactly the order the
/// serving loop admits them in. Debug builds assert it.
#[derive(Clone, Debug)]
pub struct ServiceQueue {
    arena: PendingArena,
    index: ServiceIndex,
    /// Per-tenant live counts, replacing the retired O(n) filter count.
    tenant_pending: IdTable<usize>,
    /// Running `Σ service_s` and `Σ |service_s|` over the live entries, and
    /// a bound on how far each sits from its exact real value. All three
    /// reset to exactly 0 whenever the queue empties.
    sum: f64,
    abs_sum: f64,
    drift: f64,
    /// Last pushed (arrival bits as ordered key, id) for the debug-mode
    /// monotonicity assertion.
    #[cfg(debug_assertions)]
    last_key: Option<(f64, u64)>,
}

impl ServiceQueue {
    /// An empty queue serving under `policy`.
    #[must_use]
    pub fn new(policy: Policy) -> Self {
        Self::for_requests(policy, 0)
    }

    /// An empty queue whose tenant counts stay dense for the ids of a run
    /// of `requests` requests (see `IdTable`).
    pub(crate) fn for_requests(policy: Policy, requests: usize) -> Self {
        let index = match policy {
            Policy::PriorityFifo => ServiceIndex::Fifo {
                ends: [(NIL, NIL); CLASSES],
            },
            Policy::ShortestJobFirst => ServiceIndex::Sjf {
                by_size: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
                by_seq: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
            },
        };
        Self {
            arena: PendingArena {
                slots: recycle::take(&recycle::ARENAS),
                free: NIL,
                live: 0,
                next_seq: 0,
            },
            index,
            tenant_pending: IdTable::new(requests),
            sum: 0.0,
            abs_sum: 0.0,
            drift: 0.0,
            #[cfg(debug_assertions)]
            last_key: None,
        }
    }

    /// Rebuilds a queue from entries in admission order (the
    /// checkpoint-style path: [`ServiceQueue::entries`] round-trips).
    #[must_use]
    pub fn from_entries(policy: Policy, entries: &[ServiceEntry]) -> Self {
        let mut q = Self::for_requests(policy, entries.len());
        for &e in entries {
            q.push(e);
        }
        q
    }

    /// Live pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.live
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live entries owned by `tenant` — O(1), maintained incrementally.
    #[must_use]
    pub fn tenant_pending(&self, tenant: TenantId) -> usize {
        self.tenant_pending
            .get(u64::from(tenant.0))
            .copied()
            .unwrap_or(0)
    }

    /// A bracket `(lo, hi)` with `lo ≤ backlog_service_s() ≤ hi`, in O(1);
    /// `None` when the running sums cannot certify one: a non-finite
    /// service time was pushed since the queue last emptied, or the backlog
    /// is within a factor of 4 of `f64::MAX`, where the walk could overflow.
    ///
    /// Why it brackets, with `u = ε/2` the unit roundoff: each push or
    /// detach rounds `sum` and `abs_sum` once, by at most `u` times the
    /// result, and `drift` grows by `2ε(|sum| + |abs_sum|)`, a 4× margin
    /// that also absorbs `drift`'s own rounding; the walk's left fold over
    /// `n` terms errs by at most `γ(n−1)·Σ|s| < (n+1)·ε·Σ|s|`, with
    /// `Σ|s| ≤ |abs_sum| + drift`; and `sum ∓ bound` is rounded outward.
    #[must_use]
    pub fn backlog_bounds(&self) -> Option<(f64, f64)> {
        let magnitude = self.abs_sum.abs() + self.drift;
        // `drift` accumulated every |sum|, so a finite magnitude (NaN fails
        // the test) also means `sum` never left the finite range.
        (magnitude < f64::MAX / 4.0).then(|| {
            let bound = self.drift + (self.len() as f64 + 1.0) * f64::EPSILON * magnitude;
            ((self.sum - bound).next_down(), (self.sum + bound).next_up())
        })
    }

    /// Pending service-time backlog, summed in admission order — the same
    /// floating-point reduction order as the retired `Vec` iteration
    /// (`Vec::remove` preserves relative order), so deadline-feasibility
    /// estimates are bit-identical. O(n): the deadline check calls it only
    /// when [`ServiceQueue::backlog_bounds`] cannot decide.
    ///
    /// Never inlined: it is the deadline check's rare fallback, and keeping
    /// the merge out of the serve loop keeps that loop's hot path compact.
    #[must_use]
    #[inline(never)]
    pub fn backlog_service_s(&self) -> f64 {
        self.admission_order()
            .map(|slot| self.arena.slots[slot].entry.service_s)
            .sum()
    }

    /// Live entries in admission order (for snapshots and rebuilds).
    #[must_use]
    pub fn entries(&self) -> Vec<ServiceEntry> {
        self.admission_order()
            .map(|slot| self.arena.slots[slot].entry)
            .collect()
    }

    /// Live arena slots in admission order: the per-class indexes are
    /// each already in that order, so a stable sort by sequence number
    /// merges their runs.
    fn admission_order(&self) -> impl Iterator<Item = usize> + '_ {
        let mut slots: Vec<u32> = match &self.index {
            ServiceIndex::Fifo { ends } => ends
                .iter()
                .flat_map(|&(head, _)| {
                    let linked = |i: u32| Some(i).filter(|&i| i != NIL);
                    let next = move |&i: &u32| linked(self.arena.slots[i as usize].next);
                    std::iter::successors(linked(head), next)
                })
                .collect(),
            ServiceIndex::Sjf { by_seq, .. } => {
                by_seq.iter().flat_map(BTreeMap::values).copied().collect()
            }
        };
        slots.sort_by_key(|&slot| self.arena.slots[slot as usize].seq);
        slots.into_iter().map(|slot| slot as usize)
    }

    /// Folds a push (`sign = 1`) or detach (`sign = -1`) into the running
    /// backlog, after the arena has been updated.
    fn account(&mut self, service_s: f64, sign: f64) {
        if self.is_empty() {
            (self.sum, self.abs_sum, self.drift) = (0.0, 0.0, 0.0);
            return;
        }
        self.sum += sign * service_s;
        self.abs_sum += sign * service_s.abs();
        self.drift += 2.0 * f64::EPSILON * (self.sum.abs() + self.abs_sum.abs());
    }

    /// Admits one entry.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `(arrival, id)` regresses below the previous
    /// push (the serving loop's admission order makes that impossible).
    pub fn push(&mut self, entry: ServiceEntry) {
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
        let slot = self.arena.insert(entry);
        let slots = &mut self.arena.slots;
        match &mut self.index {
            ServiceIndex::Fifo { ends } => {
                let (head, tail) = &mut ends[class];
                slots[slot as usize].prev = *tail;
                match *tail {
                    NIL => *head = slot,
                    last => slots[last as usize].next = slot,
                }
                *tail = slot;
            }
            ServiceIndex::Sjf { by_size, by_seq } => {
                by_size[class].insert((entry.carts, entry.id.0), slot);
                by_seq[class].insert(slots[slot as usize].seq, slot);
            }
        }
        *self
            .tenant_pending
            .get_or_insert(u64::from(entry.req.tenant.0), || 0) += 1;
        self.account(entry.service_s, 1.0);
    }

    /// Detaches a slot from every index and frees its arena storage.
    fn detach(&mut self, slot: u32) -> ServiceEntry {
        let slots = &mut self.arena.slots;
        let Slot {
            entry: ServiceEntry { id, req, carts, .. },
            seq,
            prev,
            next,
        } = slots[slot as usize];
        let class = class_of(req.priority);
        match &mut self.index {
            ServiceIndex::Fifo { ends } => {
                match prev {
                    NIL => ends[class].0 = next,
                    prev => slots[prev as usize].next = next,
                }
                match next {
                    NIL => ends[class].1 = prev,
                    next => slots[next as usize].prev = prev,
                }
            }
            ServiceIndex::Sjf { by_size, by_seq } => {
                by_size[class].remove(&(carts, id.0));
                by_seq[class].remove(&seq);
            }
        }
        if let Some(count) = self.tenant_pending.get_mut(u64::from(req.tenant.0)) {
            *count = count.saturating_sub(1);
        }
        let entry = self.arena.remove(slot);
        self.account(entry.service_s, -1.0);
        entry
    }

    /// Serves the best pending entry: highest priority class; within it the
    /// policy's order (FIFO by `(arrival, id)`, or `(cart count, id)`);
    /// exactly the retired scan's winner.
    pub fn pop_next(&mut self) -> Option<ServiceEntry> {
        let slot = match &self.index {
            ServiceIndex::Fifo { ends } => ends.iter().rev().map(|e| e.0).find(|&h| h != NIL)?,
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
            ServiceIndex::Fifo { ends } => ends.iter().map(|e| e.1).find(|&t| t != NIL)?,
            ServiceIndex::Sjf { by_seq, .. } => by_seq
                .iter()
                .find_map(|m| m.values().next_back().copied())?,
        };
        if self.arena.slots[slot as usize].entry.req.priority < incoming {
            Some(self.detach(slot))
        } else {
            None
        }
    }
}

// The arena's slots go back to this thread's pool, for the next queue.
impl Drop for ServiceQueue {
    fn drop(&mut self) {
        recycle::give(&recycle::ARENAS, std::mem::take(&mut self.arena.slots));
    }
}

/// Every endpoint's dock free-times in one flat array, with no
/// per-service allocation.
///
/// An endpoint counts as *touched* once a request has been served to it —
/// matching the retired per-run map, which created an endpoint's entry on
/// first service, so dock-saturation backpressure treated a never-served
/// endpoint as unsaturated regardless of its dock count.
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
    fn sparse_tenant_ids_share_one_bounded_table() {
        use crate::reference_service::{ReferencePending, ReferenceServiceQueue};
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        let mut reference = ReferenceServiceQueue::new();
        let tenants = [
            TenantId(0),
            TenantId(u32::MAX),
            TenantId(7),
            TenantId(u32::MAX - 1),
        ];
        for i in 0..16u64 {
            let mut e = entry(i, Priority::Normal, i as f64, 1);
            e.req.tenant = tenants[i as usize % tenants.len()];
            q.push(e);
            reference.push(ReferencePending {
                id: e.id,
                req: e.req,
                carts: e.carts,
                service_s: e.service_s,
            });
            if i % 3 == 2 {
                assert_eq!(
                    q.pop_next().map(|e| e.id),
                    reference.pop_next(Policy::PriorityFifo).map(|e| e.id)
                );
            }
            for t in tenants
                .into_iter()
                .chain([TenantId(1), TenantId(u32::MAX - 2)])
            {
                assert_eq!(q.tenant_pending(t), reference.tenant_pending(t), "{t:?}");
            }
        }
        // One row per tenant seen, not one slot per id below the largest.
        let table = &q.tenant_pending;
        assert_eq!((table.dense.len(), table.sparse.len()), (8, 2));
    }

    #[test]
    fn id_table_keys_boundary_ids_sparsely() {
        let mut table: IdTable<u64> = IdTable::new(4);
        let ids = [u64::MAX, 3, u64::from(u32::MAX), 0, u64::MAX - 1];
        for id in ids {
            *table.get_or_insert(id, || 0) += id % 1000 + 1;
        }
        *table.get_or_insert(u64::MAX, || 0) += 1;
        // Only the ids below the limit (2 × 4 + slack) take dense slots.
        assert_eq!((table.dense.len(), table.sparse.len()), (4, 3));
        assert!(table.dense.capacity() <= table.limit);
        for id in ids {
            let extra = u64::from(id == u64::MAX);
            assert_eq!(table.get(id), Some(&(id % 1000 + 1 + extra)), "{id}");
        }
        for id in [1, 1031, u64::MAX - 2] {
            assert_eq!(table.get(id), None, "{id}");
            assert_eq!(table.get_mut(id), None, "{id}");
        }
        let walk: Vec<u64> = table.iter().map(|(id, _)| id).collect();
        assert_eq!(walk, [0, 3, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]);
        let rows: Vec<u64> = table.into_values().collect();
        assert_eq!(rows, [1, 4, 296, 615, 617]);
    }

    #[test]
    fn id_table_equality_ignores_where_rows_live() {
        let rows = [(2000, 'c'), (0, 'a'), (u64::MAX, 'd'), (5, 'b')];
        // Limit 3024: only u64::MAX is sparse. Limit 1024: 2000 is too.
        let mut dense = IdTable::new(1000);
        let mut sparse = IdTable::new(0);
        for &(id, row) in &rows {
            dense.get_or_insert(id, || row);
        }
        for &(id, row) in rows.iter().rev() {
            sparse.get_or_insert(id, || row);
        }
        assert_eq!((dense.sparse.len(), sparse.sparse.len()), (1, 2));
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        *sparse.get_mut(2000).unwrap() = 'x';
        assert_ne!(dense, sparse);
        *sparse.get_mut(2000).unwrap() = 'c';
        sparse.get_or_insert(7, || 'e');
        assert_ne!(dense, sparse);
        assert_ne!(IdTable::<char>::default(), dense);
    }

    #[test]
    fn non_finite_backlog_falls_back_and_recovers_exact_zero() {
        let mut q = ServiceQueue::new(Policy::PriorityFifo);
        q.push(entry(0, Priority::Normal, 0.0, 1));
        let mut huge = entry(1, Priority::Background, 1.0, 1);
        // A huge finite dwell can overflow one request's service time.
        huge.service_s = f64::MAX * 4.0;
        q.push(huge);
        assert_eq!(q.backlog_bounds(), None);
        assert_eq!(q.backlog_service_s(), f64::INFINITY);
        assert_eq!(q.pop_next().unwrap().id.0, 0);
        assert_eq!(
            q.backlog_bounds(),
            None,
            "a non-finite sum stays uncertified"
        );
        assert_eq!(q.pop_next().unwrap().id.0, 1);
        assert_eq!((q.sum.to_bits(), q.abs_sum, q.drift), (0, 0.0, 0.0));
        q.push(entry(2, Priority::Normal, 2.0, 3));
        let (lo, hi) = q.backlog_bounds().expect("finite again");
        assert!(lo <= 30.0 && 30.0 <= hi && hi - lo < 1e-12, "[{lo}, {hi}]");
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
