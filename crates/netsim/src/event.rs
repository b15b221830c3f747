//! Environment events that are not tied to a single device: bandwidth changes
//! and network outages.
//!
//! Device-level dynamics (joining, leaving, moving between areas) are
//! expressed directly on [`DeviceProfile`](crate::DeviceProfile); events here
//! act on networks and affect every device that can see them.

use serde::{Deserialize, Serialize};
use smartexp3_core::NetworkId;

/// A scheduled change to a network's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthEvent {
    /// Slot at whose start the change takes effect.
    pub at_slot: usize,
    /// Affected network.
    pub network: NetworkId,
    /// New total bandwidth in Mbps. `0.0` effectively takes the network down
    /// (devices still see it but obtain no gain from it).
    pub new_bandwidth_mbps: f64,
}

impl BandwidthEvent {
    /// Creates a bandwidth-change event. A capacity that is not a finite
    /// rate of at least 0 enters as 0.
    #[must_use]
    pub fn new(at_slot: usize, network: NetworkId, new_bandwidth_mbps: f64) -> Self {
        BandwidthEvent {
            at_slot,
            network,
            new_bandwidth_mbps: usable_capacity(new_bandwidth_mbps),
        }
    }
}

/// `mbps` as the world uses a capacity: a finite rate of at least 0, with a
/// negative, NaN or infinite one read as 0 (the network is down).
pub(crate) fn usable_capacity(mbps: f64) -> f64 {
    if mbps.is_finite() {
        mbps.max(0.0)
    } else {
        0.0
    }
}

/// A schedule of [`BandwidthEvent`]s pre-indexed by slot: events are kept
/// sorted by firing slot and consumed through an advancing cursor, so asking
/// "which events fire this slot?" is an allocation-free O(events due) slice
/// lookup instead of the O(total events) filtering scan (plus a fresh `Vec`)
/// the old `events_at` helper performed every slot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventSchedule {
    /// All events, sorted by `at_slot` (stable, so same-slot events keep
    /// their insertion order).
    events: Vec<BandwidthEvent>,
    /// Index of the first event that has not fired yet.
    cursor: usize,
}

impl EventSchedule {
    /// Builds a schedule from an arbitrary-order event list.
    #[must_use]
    pub fn new(mut events: Vec<BandwidthEvent>) -> Self {
        events.sort_by_key(|e| e.at_slot);
        EventSchedule { events, cursor: 0 }
    }

    /// Number of events in the schedule (fired and pending).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the schedule holds no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events that have not fired yet, in firing order.
    #[must_use]
    pub fn pending(&self) -> &[BandwidthEvent] {
        &self.events[self.cursor..]
    }

    /// The events due exactly at `slot`, advancing the cursor past them (and
    /// past any stale events scheduled for earlier slots, which — matching
    /// the semantics of the per-slot filter this replaces — never fire).
    pub fn due(&mut self, slot: usize) -> &[BandwidthEvent] {
        while self.cursor < self.events.len() && self.events[self.cursor].at_slot < slot {
            self.cursor += 1;
        }
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at_slot == slot {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }

    /// Rewinds the cursor so the schedule can replay from slot 0.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The cursor position (number of consumed events); part of the
    /// environment's checkpointable state.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Restores a cursor captured by [`cursor`](Self::cursor).
    ///
    /// # Panics
    ///
    /// Panics when `cursor` exceeds the schedule length.
    pub fn set_cursor(&mut self, cursor: usize) {
        assert!(
            cursor <= self.events.len(),
            "cursor {cursor} exceeds schedule of {} events",
            self.events.len()
        );
        self.cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_bandwidth_is_clamped() {
        let event = BandwidthEvent::new(5, NetworkId(1), -3.0);
        assert_eq!(event.new_bandwidth_mbps, 0.0);
    }

    #[test]
    fn due_events_are_grouped_by_slot_in_order() {
        let mut schedule = EventSchedule::new(vec![
            BandwidthEvent::new(6, NetworkId(1), 2.0),
            BandwidthEvent::new(5, NetworkId(0), 1.0),
            BandwidthEvent::new(5, NetworkId(2), 3.0),
        ]);
        assert_eq!(schedule.len(), 3);
        assert!(schedule.due(0).is_empty());
        let at5 = schedule.due(5);
        assert_eq!(at5.len(), 2);
        assert_eq!(at5[0].network, NetworkId(0));
        assert_eq!(at5[1].network, NetworkId(2));
        assert_eq!(schedule.due(6).len(), 1);
        assert!(schedule.due(7).is_empty());
        assert!(schedule.pending().is_empty());
    }

    #[test]
    fn stale_events_never_fire() {
        let mut schedule = EventSchedule::new(vec![
            BandwidthEvent::new(2, NetworkId(0), 1.0),
            BandwidthEvent::new(8, NetworkId(1), 2.0),
        ]);
        // Jumping straight to slot 5 skips the slot-2 event, exactly like the
        // old per-slot equality filter would have.
        assert!(schedule.due(5).is_empty());
        assert_eq!(schedule.pending().len(), 1);
        assert_eq!(schedule.due(8).len(), 1);
    }

    #[test]
    fn reset_and_cursor_round_trip() {
        let mut schedule = EventSchedule::new(vec![BandwidthEvent::new(3, NetworkId(0), 9.0)]);
        assert_eq!(schedule.due(3).len(), 1);
        let cursor = schedule.cursor();
        assert_eq!(cursor, 1);
        schedule.reset();
        assert_eq!(schedule.cursor(), 0);
        schedule.set_cursor(cursor);
        assert!(schedule.due(3).is_empty(), "already consumed");
        assert!(!schedule.is_empty());
    }
}
