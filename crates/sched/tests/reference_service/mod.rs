//! The retired O(n) service-selection code, pinned verbatim.
//!
//! Before the indexed [`ServiceQueue`](dhl_sched::service_queue::ServiceQueue)
//! existed, the open-loop serving path kept its admitted-but-unserved
//! requests in a plain `Vec` and selected work with a linear scan (`pick_next`) followed
//! by a shifting `Vec::remove` — O(n) per service decision and O(n) per
//! shed, O(n²) across a drain. This module preserves that implementation
//! **bit for bit** (the scan bodies below are the exact functions the
//! scheduler used, including their `partial_cmp` tie-breaking) so that the
//! differential suite (`service_equivalence.rs`) can assert the indexed
//! structure pops and sheds in *exactly* the retired order. That the
//! indexed structure does not scan is a work count in `service_queue`'s
//! unit tests, not a timing against this pin.
//!
//! It lives in the test tree, outside the shipped crate: nothing in the
//! serving path calls it.

use dhl_sched::scheduler::{Policy, Priority, RequestId, TransferRequest};

/// One admitted-but-unserved request, exactly as the retired serving loop
/// carried it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ReferencePending {
    /// The request's handle.
    pub id: RequestId,
    /// The request itself (possibly degraded at admission).
    pub req: TransferRequest,
    /// Cart count of the requested dataset.
    pub carts: usize,
    /// Estimated busy time to serve the whole request.
    pub service_s: f64,
}

/// Victim for shed-lowest-priority: the lowest-priority pending entry,
/// latest-arrived (then highest id) among equals — only if it is strictly
/// lower-priority than the arrival it makes room for.
///
/// Verbatim pin of the retired scheduler-internal `shed_victim`.
pub fn shed_victim(
    pending: &mut Vec<ReferencePending>,
    incoming: Priority,
) -> Option<ReferencePending> {
    let mut best: Option<usize> = None;
    for (i, p) in pending.iter().enumerate() {
        let better = match best {
            None => true,
            Some(b) => {
                let q = &pending[b];
                match p.req.priority.cmp(&q.req.priority) {
                    core::cmp::Ordering::Less => true,
                    core::cmp::Ordering::Greater => false,
                    core::cmp::Ordering::Equal => {
                        match p.req.arrival.partial_cmp(&q.req.arrival).expect("finite") {
                            core::cmp::Ordering::Greater => true,
                            core::cmp::Ordering::Less => false,
                            core::cmp::Ordering::Equal => p.id > q.id,
                        }
                    }
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    let b = best?;
    if pending[b].req.priority < incoming {
        Some(pending.remove(b))
    } else {
        None
    }
}

/// Next entry to serve: highest priority; within a class the policy's
/// ordering (FIFO by arrival, or fewest carts); lowest id breaks remaining
/// ties.
///
/// Verbatim pin of the retired scheduler-internal `pick_next`.
#[must_use]
pub fn pick_next(pending: &[ReferencePending], policy: Policy) -> usize {
    let mut best = 0usize;
    for i in 1..pending.len() {
        let (p, q) = (&pending[i], &pending[best]);
        let class = p.req.priority.cmp(&q.req.priority).reverse();
        let within = match policy {
            Policy::PriorityFifo => p.req.arrival.partial_cmp(&q.req.arrival).expect("finite"),
            Policy::ShortestJobFirst => p.carts.cmp(&q.carts),
        };
        if class.then(within).then(p.id.cmp(&q.id)) == core::cmp::Ordering::Less {
            best = i;
        }
    }
    best
}

/// The retired pending queue as a driveable structure: a `Vec` plus the
/// pinned scan functions, wearing the same API as the indexed
/// [`ServiceQueue`](dhl_sched::service_queue::ServiceQueue) so tests can
/// run both in lock-step.
#[derive(Clone, Debug, Default)]
pub struct ReferenceServiceQueue {
    pending: Vec<ReferencePending>,
}

impl ReferenceServiceQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one entry (appends, like the retired `pending.push`).
    pub fn push(&mut self, entry: ReferencePending) {
        self.pending.push(entry);
    }

    /// Serves the best entry under `policy`: the pinned linear scan plus
    /// the shifting `Vec::remove`.
    pub fn pop_next(&mut self, policy: Policy) -> Option<ReferencePending> {
        if self.pending.is_empty() {
            return None;
        }
        Some(self.pending.remove(pick_next(&self.pending, policy)))
    }

    /// Sheds the pinned victim (if strictly lower-priority than `incoming`).
    pub fn shed_victim(&mut self, incoming: Priority) -> Option<ReferencePending> {
        shed_victim(&mut self.pending, incoming)
    }

    /// Pending service-time backlog, summed in admission order exactly as
    /// the retired deadline-feasibility check did.
    #[must_use]
    pub fn backlog_service_s(&self) -> f64 {
        self.pending.iter().map(|p| p.service_s).sum()
    }

    /// Pending entries owned by `tenant` (the retired O(n) filter count).
    #[must_use]
    pub fn tenant_pending(&self, tenant: dhl_sched::admission::TenantId) -> usize {
        self.pending
            .iter()
            .filter(|p| p.req.tenant == tenant)
            .count()
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}
