//! Event tracing for the DHL system simulator.
//!
//! An optional, bounded record of every state transition — the raw material
//! for debugging schedules, plotting cart trajectories, or auditing that
//! the simulator respects its physical constraints (tests in
//! `tests/trace_invariants.rs` replay traces to prove no-passing and
//! dock-capacity invariants).

use dhl_units::Seconds;

use crate::system::{CartId, EndpointId};

/// One state transition in the simulated system.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum TraceEventKind {
    /// A cart began undocking for a movement.
    Launch {
        /// The moving cart.
        cart: CartId,
        /// Origin endpoint.
        from: EndpointId,
        /// Destination endpoint.
        to: EndpointId,
    },
    /// A cart finished undocking and entered the tube.
    EnterTube {
        /// The moving cart.
        cart: CartId,
    },
    /// A cart reached its destination and began docking.
    BeginDock {
        /// The arriving cart.
        cart: CartId,
    },
    /// A cart finished docking.
    Docked {
        /// The docked cart.
        cart: CartId,
        /// Where it docked.
        endpoint: EndpointId,
    },
    /// A docked cart finished its rack-side processing dwell.
    ProcessingDone {
        /// The cart whose dwell ended.
        cart: CartId,
    },
    /// A cart docked at a rack but its payload did not survive the trip
    /// (RAID-uncovered SSD losses); the shard must be redelivered.
    DeliveryFailed {
        /// The cart whose payload was lost.
        cart: CartId,
        /// The rack that should have received the shard.
        endpoint: EndpointId,
        /// Which delivery attempt this was (1-based).
        attempt: u32,
    },
    /// Verify-on-dock began scrubbing a delivered payload's shards.
    VerifyStarted {
        /// The docked cart being scrubbed.
        cart: CartId,
        /// The rack performing the scrub.
        endpoint: EndpointId,
        /// Shards the scrub covers.
        shards: u64,
    },
    /// Every shard checksummed clean: the delivery is confirmed intact.
    PayloadVerified {
        /// The verified cart.
        cart: CartId,
        /// The rack that verified it.
        endpoint: EndpointId,
        /// Shards scanned.
        shards: u64,
    },
    /// Verification found silently corrupted shards.
    PayloadCorrupted {
        /// The cart whose payload failed verification.
        cart: CartId,
        /// The rack that caught the corruption.
        endpoint: EndpointId,
        /// Number of corrupted shards.
        corrupted: u64,
        /// Which delivery attempt this was (1-based).
        attempt: u32,
    },
    /// Corrupted shards were rebuilt from RAID parity at the dock.
    ShardsReconstructed {
        /// The cart whose shards were rebuilt.
        cart: CartId,
        /// Shards reconstructed.
        shards: u64,
    },
    /// A cart stalled mid-tube, blocking its track direction until repaired.
    CartStalled {
        /// The stalled cart.
        cart: CartId,
        /// Index of the blocked inter-endpoint track segment.
        track: usize,
    },
    /// A rack's dock-station controller crashed while a cart was docking;
    /// the docking stalls until the controller recovers.
    DockControllerCrashed {
        /// The cart whose docking is stalled.
        cart: CartId,
        /// The rack whose controller crashed.
        endpoint: EndpointId,
    },
    /// A crashed dock-station controller came back into service and the
    /// stalled docking resumed.
    DockControllerRecovered {
        /// The cart whose docking resumed.
        cart: CartId,
        /// The rack whose controller recovered.
        endpoint: EndpointId,
        /// Time the controller was down (recovery latency of the policy).
        downtime: Seconds,
    },
    /// A blocked track segment came back into service.
    TrackRestored {
        /// Index of the restored track segment.
        track: usize,
    },
}

/// A timestamped trace event.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Simulation time of the transition.
    pub time: Seconds,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A bounded, append-only event log.
#[derive(Clone, PartialEq, Debug)]
pub struct Trace {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) capacity: usize,
    pub(crate) dropped: u64,
}

/// Where the simulator's trace events go.
///
/// The hot path calls [`TraceSink::record`] for every state transition, so
/// the disabled variant must cost one branch and nothing else — no clock
/// read, no allocation. The buffered variant appends into a [`Trace`] whose
/// backing storage is preallocated up front, so steady-state recording
/// never reallocates.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum TraceSink {
    /// Tracing off: every record is a branch and an immediate return.
    #[default]
    Disabled,
    /// Tracing on, into a bounded preallocated buffer.
    Buffered(Trace),
}

impl TraceSink {
    /// A sink buffering into a fresh [`Trace`] of the given capacity.
    #[must_use]
    pub fn buffered(capacity: usize) -> Self {
        Self::Buffered(Trace::with_capacity(capacity))
    }

    /// Whether events are being retained. Callers that must compute the
    /// event payload (or read a clock) should branch on this first.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Self::Buffered(_))
    }

    /// Records one event (a no-op branch when disabled).
    #[inline]
    pub fn record(&mut self, time: Seconds, kind: TraceEventKind) {
        if let Self::Buffered(trace) = self {
            trace.record(time, kind);
        }
    }

    /// Takes the buffered trace, leaving the sink disabled. `None` if the
    /// sink was never enabled.
    pub fn take(&mut self) -> Option<Trace> {
        match std::mem::take(self) {
            Self::Buffered(trace) => Some(trace),
            Self::Disabled => None,
        }
    }
}

impl Trace {
    /// An empty trace retaining at most `capacity` events (older events are
    /// kept; later ones are counted as dropped — the head of a schedule is
    /// usually what matters for debugging). Storage for the retained events
    /// is allocated up front (bounded at 2^16 entries) so recording on the
    /// simulator hot path never grows the buffer.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// Rebuilds a trace from previously captured state — the checkpoint
    /// restore path. Unlike [`Trace::with_capacity`] + replayed
    /// [`Trace::record`] calls, this reinstates the `dropped` counter too,
    /// so a resumed trace is bit-identical to the uninterrupted one.
    #[must_use]
    pub fn from_parts(events: Vec<TraceEvent>, capacity: usize, dropped: u64) -> Self {
        let mut events = events;
        events.truncate(capacity);
        events.reserve(capacity.min(1 << 16).saturating_sub(events.len()));
        Self {
            events,
            capacity,
            dropped,
        }
    }

    /// Appends an event (or counts it dropped past capacity).
    pub fn record(&mut self, time: Seconds, kind: TraceEventKind) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent { time, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that were not retained.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retention bound this trace was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events involving one cart, in order.
    #[must_use]
    pub fn for_cart(&self, cart: CartId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| match e.kind {
                TraceEventKind::Launch { cart: c, .. }
                | TraceEventKind::EnterTube { cart: c }
                | TraceEventKind::BeginDock { cart: c }
                | TraceEventKind::Docked { cart: c, .. }
                | TraceEventKind::ProcessingDone { cart: c }
                | TraceEventKind::DeliveryFailed { cart: c, .. }
                | TraceEventKind::VerifyStarted { cart: c, .. }
                | TraceEventKind::PayloadVerified { cart: c, .. }
                | TraceEventKind::PayloadCorrupted { cart: c, .. }
                | TraceEventKind::ShardsReconstructed { cart: c, .. }
                | TraceEventKind::CartStalled { cart: c, .. }
                | TraceEventKind::DockControllerCrashed { cart: c, .. }
                | TraceEventKind::DockControllerRecovered { cart: c, .. } => c == cart,
                TraceEventKind::TrackRestored { .. } => false,
            })
            .copied()
            .collect()
    }

    /// Checks the per-cart lifecycle invariant: every cart's events follow
    /// the repeating pattern Launch → EnterTube → BeginDock → Docked
    /// (ProcessingDone may follow a Docked), with non-decreasing times.
    #[must_use]
    pub fn lifecycle_is_well_formed(&self, cart: CartId) -> bool {
        let mut expected_launch = true;
        let mut last_time = f64::NEG_INFINITY;
        let mut phase = 0u8; // 0=idle, 1=undocking, 2=tube, 3=docking
        for e in self.for_cart(cart) {
            if e.time.seconds() < last_time {
                return false;
            }
            last_time = e.time.seconds();
            phase = match (phase, e.kind) {
                (0, TraceEventKind::Launch { .. }) => 1,
                (1, TraceEventKind::EnterTube { .. }) => 2,
                (2, TraceEventKind::BeginDock { .. }) => 3,
                (3, TraceEventKind::Docked { .. }) => 0,
                (0, TraceEventKind::ProcessingDone { .. }) => 0,
                // A failed delivery is reported right after docking, while
                // the cart sits idle at the rack.
                (0, TraceEventKind::DeliveryFailed { .. }) => 0,
                // The verify-on-dock pipeline runs while the cart sits
                // docked at the rack; ordering among these events is checked
                // separately by `integrity_lifecycle_is_well_formed`.
                (0, TraceEventKind::VerifyStarted { .. })
                | (0, TraceEventKind::PayloadVerified { .. })
                | (0, TraceEventKind::PayloadCorrupted { .. })
                | (0, TraceEventKind::ShardsReconstructed { .. }) => 0,
                // A stall happens (and is repaired) inside the tube.
                (2, TraceEventKind::CartStalled { .. }) => 2,
                // A dock-controller crash stalls (and later resumes) the
                // docking phase: the cart stays at the dock throughout.
                (3, TraceEventKind::DockControllerCrashed { .. })
                | (3, TraceEventKind::DockControllerRecovered { .. }) => 3,
                _ => return false,
            };
            expected_launch = phase == 0;
        }
        expected_launch
    }

    /// Checks the integrity-pipeline ordering invariant for one cart: every
    /// `VerifyStarted` follows a `Docked` (with no intervening `Launch`),
    /// resolves to exactly one `PayloadVerified` or `PayloadCorrupted`
    /// before the cart launches again, and `ShardsReconstructed` appears
    /// only immediately after a `PayloadCorrupted`.
    #[must_use]
    pub fn integrity_lifecycle_is_well_formed(&self, cart: CartId) -> bool {
        let mut docked = false; // docked since the last launch
        let mut verifying = false; // a VerifyStarted awaits its verdict
        let mut just_corrupted = false; // last integrity event was PayloadCorrupted
        for e in self.for_cart(cart) {
            match e.kind {
                TraceEventKind::Launch { .. } => {
                    if verifying {
                        return false; // launched with a scrub outstanding
                    }
                    docked = false;
                    just_corrupted = false;
                }
                TraceEventKind::Docked { .. } => docked = true,
                TraceEventKind::VerifyStarted { .. } => {
                    if !docked || verifying {
                        return false;
                    }
                    verifying = true;
                    just_corrupted = false;
                }
                TraceEventKind::PayloadVerified { .. } => {
                    if !verifying {
                        return false;
                    }
                    verifying = false;
                }
                TraceEventKind::PayloadCorrupted { .. } => {
                    if !verifying {
                        return false;
                    }
                    verifying = false;
                    just_corrupted = true;
                }
                TraceEventKind::ShardsReconstructed { .. } => {
                    if !just_corrupted {
                        return false;
                    }
                    just_corrupted = false;
                }
                _ => {}
            }
        }
        !verifying
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: TraceEventKind) -> (Seconds, TraceEventKind) {
        (Seconds::new(t), kind)
    }

    #[test]
    fn sink_disabled_drops_and_buffered_retains() {
        let mut sink = TraceSink::default();
        assert!(!sink.is_enabled());
        sink.record(Seconds::new(1.0), TraceEventKind::EnterTube { cart: 0 });
        assert!(sink.take().is_none());

        let mut sink = TraceSink::buffered(4);
        assert!(sink.is_enabled());
        sink.record(Seconds::new(1.0), TraceEventKind::EnterTube { cart: 0 });
        let trace = sink.take().expect("buffered sink yields its trace");
        assert_eq!(trace.events().len(), 1);
        assert!(!sink.is_enabled(), "take() leaves the sink disabled");
    }

    #[test]
    fn trace_buffer_is_preallocated_and_bounded() {
        let small = Trace::with_capacity(8);
        assert!(small.events.capacity() >= 8);
        let huge = Trace::with_capacity(usize::MAX);
        assert_eq!(huge.events.capacity(), 1 << 16);
        assert_eq!(huge.capacity, usize::MAX);
    }

    #[test]
    fn records_in_order_up_to_capacity() {
        let mut trace = Trace::with_capacity(2);
        trace.record(Seconds::new(1.0), TraceEventKind::EnterTube { cart: 0 });
        trace.record(Seconds::new(2.0), TraceEventKind::BeginDock { cart: 0 });
        trace.record(
            Seconds::new(3.0),
            TraceEventKind::Docked {
                cart: 0,
                endpoint: 1,
            },
        );
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn cart_filter() {
        let mut trace = Trace::with_capacity(100);
        trace.record(
            Seconds::new(0.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 0,
                to: 1,
            },
        );
        trace.record(
            Seconds::new(0.5),
            TraceEventKind::Launch {
                cart: 1,
                from: 0,
                to: 1,
            },
        );
        trace.record(Seconds::new(3.0), TraceEventKind::EnterTube { cart: 0 });
        assert_eq!(trace.for_cart(0).len(), 2);
        assert_eq!(trace.for_cart(1).len(), 1);
        assert!(trace.for_cart(7).is_empty());
    }

    #[test]
    fn well_formed_lifecycle_accepted() {
        let mut trace = Trace::with_capacity(100);
        let seq = [
            ev(
                0.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 0,
                    to: 1,
                },
            ),
            ev(3.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(5.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                8.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 1,
                },
            ),
            ev(8.6, TraceEventKind::ProcessingDone { cart: 0 }),
            ev(
                9.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 1,
                    to: 0,
                },
            ),
            ev(12.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(14.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                17.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 0,
                },
            ),
        ];
        for (t, k) in seq {
            trace.record(t, k);
        }
        assert!(trace.lifecycle_is_well_formed(0));
    }

    #[test]
    fn malformed_lifecycles_rejected() {
        // Docked without ever launching.
        let mut t1 = Trace::with_capacity(10);
        t1.record(
            Seconds::new(1.0),
            TraceEventKind::Docked {
                cart: 0,
                endpoint: 1,
            },
        );
        assert!(!t1.lifecycle_is_well_formed(0));

        // Launch twice in a row.
        let mut t2 = Trace::with_capacity(10);
        t2.record(
            Seconds::new(0.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 0,
                to: 1,
            },
        );
        t2.record(
            Seconds::new(1.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 0,
                to: 1,
            },
        );
        assert!(!t2.lifecycle_is_well_formed(0));

        // Time going backwards.
        let mut t3 = Trace::with_capacity(10);
        t3.record(
            Seconds::new(5.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 0,
                to: 1,
            },
        );
        t3.record(Seconds::new(4.0), TraceEventKind::EnterTube { cart: 0 });
        assert!(!t3.lifecycle_is_well_formed(0));

        // Mid-flight at end of trace.
        let mut t4 = Trace::with_capacity(10);
        t4.record(
            Seconds::new(0.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 0,
                to: 1,
            },
        );
        assert!(!t4.lifecycle_is_well_formed(0));
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let trace = Trace::with_capacity(10);
        assert!(trace.lifecycle_is_well_formed(0));
        assert!(trace.integrity_lifecycle_is_well_formed(0));
    }

    #[test]
    fn integrity_events_fit_the_lifecycle() {
        let mut trace = Trace::with_capacity(100);
        let seq = [
            ev(
                0.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 0,
                    to: 1,
                },
            ),
            ev(3.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(5.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                8.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 1,
                },
            ),
            ev(
                8.6,
                TraceEventKind::VerifyStarted {
                    cart: 0,
                    endpoint: 1,
                    shards: 32,
                },
            ),
            ev(
                100.0,
                TraceEventKind::PayloadCorrupted {
                    cart: 0,
                    endpoint: 1,
                    corrupted: 2,
                    attempt: 1,
                },
            ),
            ev(
                100.0,
                TraceEventKind::ShardsReconstructed { cart: 0, shards: 2 },
            ),
            ev(150.0, TraceEventKind::ProcessingDone { cart: 0 }),
            ev(
                151.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 1,
                    to: 0,
                },
            ),
            ev(154.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(156.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                159.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 0,
                },
            ),
        ];
        for (t, k) in seq {
            trace.record(t, k);
        }
        assert!(trace.lifecycle_is_well_formed(0));
        assert!(trace.integrity_lifecycle_is_well_formed(0));
    }

    #[test]
    fn integrity_ordering_violations_rejected() {
        let docked = |t: &mut Trace| {
            t.record(
                Seconds::new(0.0),
                TraceEventKind::Launch {
                    cart: 0,
                    from: 0,
                    to: 1,
                },
            );
            t.record(Seconds::new(3.0), TraceEventKind::EnterTube { cart: 0 });
            t.record(Seconds::new(5.6), TraceEventKind::BeginDock { cart: 0 });
            t.record(
                Seconds::new(8.6),
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 1,
                },
            );
        };

        // Verification may not start before the cart ever docks.
        let mut t = Trace::with_capacity(10);
        t.record(
            Seconds::new(0.0),
            TraceEventKind::VerifyStarted {
                cart: 0,
                endpoint: 1,
                shards: 32,
            },
        );
        assert!(!t.integrity_lifecycle_is_well_formed(0));

        // A verdict with no scrub outstanding is malformed.
        let mut t = Trace::with_capacity(10);
        docked(&mut t);
        t.record(
            Seconds::new(9.0),
            TraceEventKind::PayloadVerified {
                cart: 0,
                endpoint: 1,
                shards: 32,
            },
        );
        assert!(!t.integrity_lifecycle_is_well_formed(0));

        // Reconstruction without a preceding corruption is malformed.
        let mut t = Trace::with_capacity(10);
        docked(&mut t);
        t.record(
            Seconds::new(9.0),
            TraceEventKind::ShardsReconstructed { cart: 0, shards: 1 },
        );
        assert!(!t.integrity_lifecycle_is_well_formed(0));

        // Launching with a scrub still outstanding is malformed.
        let mut t = Trace::with_capacity(10);
        docked(&mut t);
        t.record(
            Seconds::new(9.0),
            TraceEventKind::VerifyStarted {
                cart: 0,
                endpoint: 1,
                shards: 32,
            },
        );
        t.record(
            Seconds::new(10.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 1,
                to: 0,
            },
        );
        assert!(!t.integrity_lifecycle_is_well_formed(0));

        // A trace ending mid-scrub is malformed.
        let mut t = Trace::with_capacity(10);
        docked(&mut t);
        t.record(
            Seconds::new(9.0),
            TraceEventKind::VerifyStarted {
                cart: 0,
                endpoint: 1,
                shards: 32,
            },
        );
        assert!(!t.integrity_lifecycle_is_well_formed(0));
    }

    #[test]
    fn from_parts_round_trips_a_trace_exactly() {
        let mut original = Trace::with_capacity(2);
        original.record(Seconds::new(1.0), TraceEventKind::EnterTube { cart: 0 });
        original.record(Seconds::new(2.0), TraceEventKind::BeginDock { cart: 0 });
        original.record(
            Seconds::new(3.0),
            TraceEventKind::ProcessingDone { cart: 0 },
        );
        assert_eq!(original.dropped(), 1);
        let mut restored = Trace::from_parts(
            original.events().to_vec(),
            original.capacity,
            original.dropped(),
        );
        assert_eq!(restored, original);
        // Recording continues identically past the restore point.
        original.record(Seconds::new(4.0), TraceEventKind::EnterTube { cart: 1 });
        restored.record(Seconds::new(4.0), TraceEventKind::EnterTube { cart: 1 });
        assert_eq!(restored, original);
        assert_eq!(restored.dropped(), 2);
    }

    #[test]
    fn from_parts_clamps_events_to_capacity() {
        let events = vec![
            TraceEvent {
                time: Seconds::new(1.0),
                kind: TraceEventKind::EnterTube { cart: 0 },
            };
            5
        ];
        let t = Trace::from_parts(events, 3, 0);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn dock_controller_crash_events_fit_the_lifecycle() {
        let mut trace = Trace::with_capacity(100);
        let seq = [
            ev(
                0.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 0,
                    to: 1,
                },
            ),
            ev(3.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(5.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                5.6,
                TraceEventKind::DockControllerCrashed {
                    cart: 0,
                    endpoint: 1,
                },
            ),
            ev(
                35.6,
                TraceEventKind::DockControllerRecovered {
                    cart: 0,
                    endpoint: 1,
                    downtime: Seconds::new(30.0),
                },
            ),
            ev(
                38.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 1,
                },
            ),
        ];
        for (t, k) in seq {
            trace.record(t, k);
        }
        // The crash stalls docking; Docked closes the cycle back to idle.
        assert!(trace.lifecycle_is_well_formed(0));
        trace.record(
            Seconds::new(39.0),
            TraceEventKind::Launch {
                cart: 0,
                from: 1,
                to: 0,
            },
        );
        trace.record(Seconds::new(42.0), TraceEventKind::EnterTube { cart: 0 });
        trace.record(Seconds::new(44.6), TraceEventKind::BeginDock { cart: 0 });
        trace.record(
            Seconds::new(47.6),
            TraceEventKind::Docked {
                cart: 0,
                endpoint: 0,
            },
        );
        assert!(trace.lifecycle_is_well_formed(0));

        // A crash outside the docking phase is malformed.
        let mut bad = Trace::with_capacity(10);
        bad.record(
            Seconds::new(0.0),
            TraceEventKind::DockControllerCrashed {
                cart: 0,
                endpoint: 1,
            },
        );
        assert!(!bad.lifecycle_is_well_formed(0));
    }

    #[test]
    fn fault_events_fit_the_lifecycle() {
        let mut trace = Trace::with_capacity(100);
        let seq = [
            ev(
                0.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 0,
                    to: 1,
                },
            ),
            ev(3.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(4.0, TraceEventKind::CartStalled { cart: 0, track: 0 }),
            ev(64.0, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                67.0,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 1,
                },
            ),
            ev(
                67.0,
                TraceEventKind::DeliveryFailed {
                    cart: 0,
                    endpoint: 1,
                    attempt: 1,
                },
            ),
            ev(
                68.0,
                TraceEventKind::Launch {
                    cart: 0,
                    from: 1,
                    to: 0,
                },
            ),
            ev(71.0, TraceEventKind::EnterTube { cart: 0 }),
            ev(73.6, TraceEventKind::BeginDock { cart: 0 }),
            ev(
                76.6,
                TraceEventKind::Docked {
                    cart: 0,
                    endpoint: 0,
                },
            ),
        ];
        for (t, k) in seq {
            trace.record(t, k);
        }
        assert!(trace.lifecycle_is_well_formed(0));
        // TrackRestored belongs to no cart.
        trace.record(
            Seconds::new(80.0),
            TraceEventKind::TrackRestored { track: 0 },
        );
        assert_eq!(trace.for_cart(0).len(), 10);
        assert!(trace.lifecycle_is_well_formed(0));

        // A stall outside the tube is malformed.
        let mut bad = Trace::with_capacity(10);
        bad.record(
            Seconds::new(0.0),
            TraceEventKind::CartStalled { cart: 0, track: 0 },
        );
        assert!(!bad.lifecycle_is_well_formed(0));
    }
}
