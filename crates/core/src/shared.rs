//! Cooperative (gossiped) feedback — the Co-Bandit data path.
//!
//! *Cooperation Speeds Surfing: Use Co-Bandit!* (Appavoo, Gilbert, Tan 2019)
//! shows that devices which gossip their observed rates between slots
//! converge markedly faster than isolated bandits: a device hears what its
//! neighbours obtained on the networks it did *not* try, turning bandit
//! feedback into approximate full information.
//!
//! [`SharedFeedback`] is the digest that crosses the policy boundary: one
//! entry per network, each a **staleness-decayed weighted average** of the
//! scaled gains neighbours reported on that network. The environment owns
//! the digests (one per gossip neighbourhood), decays them once per slot and
//! folds fresh reports in; the driver copies the relevant digest into a
//! per-shard scratch buffer and hands it to
//! [`Policy::observe_shared`](crate::Policy::observe_shared).
//!
//! The digest is deliberately *not* validated on ingest: gossip carries raw
//! measurements, and a hostile or broken report (NaN, ±∞, negative rates)
//! must be rejected where it could do damage — the weight table's
//! [`shared_update`](crate::WeightTable::shared_update) guard — not silently
//! scrubbed at every hop.

use crate::NetworkId;
use serde::{Deserialize, Serialize};

/// Digest entries whose decayed weight falls below this threshold are
/// evicted — a neighbourhood that stopped reporting on a network forgets it
/// instead of carrying a ghost entry forever.
const MIN_WEIGHT: f64 = 1e-6;

/// One network's gossip digest: a staleness-decayed weighted average of the
/// scaled gains neighbours observed on it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedRate {
    /// The network the reports are about.
    pub network: NetworkId,
    /// Decay-weighted number of reports behind this entry (1.0 per report,
    /// multiplied by the retention factor once per slot).
    pub weight: f64,
    /// Decay-weighted sum of the reported scaled gains.
    pub weighted_gain: f64,
}

impl SharedRate {
    /// The decayed mean of the reported scaled gains (0 when no weight is
    /// left).
    #[must_use]
    pub fn mean_gain(&self) -> f64 {
        if self.weight > 0.0 {
            self.weighted_gain / self.weight
        } else {
            0.0
        }
    }

    /// How much a consumer should trust this entry, in `[0, 1]`: the decayed
    /// report mass, saturating at one full report. A single fresh neighbour
    /// report counts fully; stale remnants fade with their weight.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        self.weight.clamp(0.0, 1.0)
    }
}

/// Per-network observed-rate digests with staleness decay — what one gossip
/// neighbourhood currently believes about its networks.
///
/// See the `shared` module documentation for the data path and the
/// validation contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedFeedback {
    /// One entry per reported network, sorted by network id.
    entries: Vec<SharedRate>,
    /// Fraction of each entry's weight retained per slot (`0` = only the
    /// current slot's reports survive, `1` would never forget — clamped
    /// just below so digests stay bounded).
    retention: f64,
}

impl Default for SharedFeedback {
    fn default() -> Self {
        SharedFeedback::new(0.5)
    }
}

impl SharedFeedback {
    /// Creates an empty digest whose entries retain `retention` of their
    /// weight per slot (clamped to `[0, 0.99]`).
    #[must_use]
    pub fn new(retention: f64) -> Self {
        SharedFeedback {
            entries: Vec::new(),
            retention: if retention.is_finite() {
                retention.clamp(0.0, 0.99)
            } else {
                0.0
            },
        }
    }

    /// The per-slot weight retention factor.
    #[must_use]
    pub fn retention(&self) -> f64 {
        self.retention
    }

    /// Number of networks with a live digest entry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no network has a live entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The digest entries, sorted by network id.
    #[must_use]
    pub fn rates(&self) -> &[SharedRate] {
        &self.entries
    }

    /// The digest entry for `network`, if any neighbour reported on it.
    #[must_use]
    pub fn rate_of(&self, network: NetworkId) -> Option<&SharedRate> {
        self.entries
            .binary_search_by_key(&network, |e| e.network)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Folds one gossiped report (a neighbour observed `scaled_gain` on
    /// `network`) into the digest with unit weight.
    ///
    /// Deliberately permissive: raw measurements go in unchecked and are
    /// validated at the consumption point (see the module documentation).
    pub fn record(&mut self, network: NetworkId, scaled_gain: f64) {
        match self.entries.binary_search_by_key(&network, |e| e.network) {
            Ok(i) => {
                let entry = &mut self.entries[i];
                entry.weight += 1.0;
                entry.weighted_gain += scaled_gain;
            }
            Err(i) => self.entries.insert(
                i,
                SharedRate {
                    network,
                    weight: 1.0,
                    weighted_gain: scaled_gain,
                },
            ),
        }
    }

    /// Applies one slot of staleness decay: every entry keeps `retention` of
    /// its weight and weighted gain; entries whose weight decays away are
    /// evicted, and so are entries whose weight **or gain sum** was poisoned
    /// into a non-finite value — one NaN/∞ report must cost the
    /// neighbourhood at most one slot of feedback on that network, not the
    /// rest of the run (honest reports folded into a NaN sum would otherwise
    /// keep the weight alive while the mean stays NaN forever).
    pub fn decay(&mut self) {
        let retention = self.retention;
        for entry in &mut self.entries {
            entry.weight *= retention;
            entry.weighted_gain *= retention;
        }
        self.entries.retain(|e| {
            e.weight.is_finite() && e.weighted_gain.is_finite() && e.weight >= MIN_WEIGHT
        });
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Overwrites this digest with `source`, reusing this digest's
    /// allocation — the zero-alloc read path for per-shard scratch buffers.
    pub fn copy_from(&mut self, source: &SharedFeedback) {
        self.retention = source.retention;
        self.entries.clear();
        self.entries.extend_from_slice(&source.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_network() {
        let mut digest = SharedFeedback::new(0.5);
        digest.record(NetworkId(2), 0.8);
        digest.record(NetworkId(0), 0.2);
        digest.record(NetworkId(2), 0.6);
        assert_eq!(digest.len(), 2);
        let entry = digest.rate_of(NetworkId(2)).unwrap();
        assert_eq!(entry.weight, 2.0);
        assert!((entry.mean_gain() - 0.7).abs() < 1e-12);
        assert_eq!(entry.confidence(), 1.0);
        // Entries come out sorted by network id.
        let networks: Vec<NetworkId> = digest.rates().iter().map(|e| e.network).collect();
        assert_eq!(networks, vec![NetworkId(0), NetworkId(2)]);
    }

    #[test]
    fn decay_fades_and_eventually_evicts_entries() {
        let mut digest = SharedFeedback::new(0.5);
        digest.record(NetworkId(1), 1.0);
        digest.decay();
        let entry = *digest.rate_of(NetworkId(1)).unwrap();
        assert_eq!(entry.weight, 0.5);
        assert!((entry.mean_gain() - 1.0).abs() < 1e-12, "mean is unchanged");
        assert!(entry.confidence() < 1.0);
        for _ in 0..80 {
            digest.decay();
        }
        assert!(digest.is_empty(), "stale entries must be evicted");
    }

    #[test]
    fn poisoned_entries_are_evicted_at_the_next_decay() {
        // One hostile report must not mute a network's gossip for the rest
        // of the run: the poisoned entry dies at the next decay and honest
        // reports rebuild a clean one.
        let mut digest = SharedFeedback::new(0.5);
        digest.record(NetworkId(1), f64::NAN);
        digest.record(NetworkId(1), 0.8); // honest report folded into the NaN sum
        assert!(digest.rate_of(NetworkId(1)).unwrap().mean_gain().is_nan());
        digest.decay();
        assert!(digest.rate_of(NetworkId(1)).is_none(), "poison evicted");
        digest.record(NetworkId(1), 0.8);
        assert!((digest.rate_of(NetworkId(1)).unwrap().mean_gain() - 0.8).abs() < 1e-12);
        // Same for an ∞ report driving the weight itself non-finite later.
        digest.record(NetworkId(2), f64::INFINITY);
        digest.decay();
        assert!(digest.rate_of(NetworkId(2)).is_none());
    }

    #[test]
    fn zero_retention_keeps_only_the_current_slot() {
        let mut digest = SharedFeedback::new(0.0);
        digest.record(NetworkId(0), 0.9);
        digest.decay();
        assert!(digest.is_empty());
    }

    #[test]
    fn copy_from_reuses_the_buffer() {
        let mut source = SharedFeedback::new(0.7);
        source.record(NetworkId(0), 0.4);
        source.record(NetworkId(1), 0.6);
        let mut scratch = SharedFeedback::default();
        scratch.record(NetworkId(9), 1.0);
        scratch.copy_from(&source);
        assert_eq!(scratch, source);
        let capacity = {
            scratch.copy_from(&source);
            scratch.entries.capacity()
        };
        scratch.copy_from(&source);
        assert_eq!(scratch.entries.capacity(), capacity, "no reallocation");
    }

    #[test]
    fn hostile_reports_pass_through_for_the_consumer_to_reject() {
        // Ingest is permissive by contract; the weight table's shared_update
        // guard is the validation point.
        let mut digest = SharedFeedback::new(0.5);
        digest.record(NetworkId(0), f64::NAN);
        digest.record(NetworkId(1), -3.0);
        assert_eq!(digest.len(), 2);
        assert!(digest.rate_of(NetworkId(0)).unwrap().mean_gain().is_nan());
        assert!(digest.rate_of(NetworkId(1)).unwrap().mean_gain() < 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut digest = SharedFeedback::new(0.25);
        digest.record(NetworkId(3), 0.5);
        digest.decay();
        let text = serde_json::to_string(&digest).unwrap();
        let back: SharedFeedback = serde_json::from_str(&text).unwrap();
        assert_eq!(back, digest);
    }
}
