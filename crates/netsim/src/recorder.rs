//! Per-run measurement collection.
//!
//! The recorder ingests one snapshot per slot and produces the quantities the
//! paper's figures are built from: the distance-to-Nash-equilibrium time
//! series (Figures 4, 7–9, 11), the Definition-4 distance series (Figures
//! 13–15), stable-state detection (Figure 3, Table IV), the fraction of time
//! spent at (ε-)equilibrium, unutilised bandwidth, and optionally the raw
//! per-slot selections (used by the mobility experiment to compute per-group
//! metrics and by Figure 12 to plot a single run).

use crate::device::{DeviceId, DeviceOutcome};
use crate::env::SLOT_DURATION_S;
use congestion_game::{
    distance_from_average_bit_rate, distance_to_nash, distance_to_nash_given,
    is_epsilon_equilibrium, is_nash_allocation, Allocation, DeviceState, ResourceSelectionGame,
    StableStateDetector,
};
use serde::{Deserialize, Serialize};
use smartexp3_core::NetworkId;

/// Definition 2 probability threshold of stable-state detection (paper:
/// 0.75).
const STABLE_PROBABILITY_THRESHOLD: f64 = 0.75;

/// ε (in percent) of the ε-equilibrium accounting (paper: 7.5).
const EPSILON_PERCENT: f64 = 7.5;

/// Ceiling on the fleet size the dense recorder accepts.
///
/// The recorder keeps per-slot, per-session state (and optionally the raw
/// `SelectionRecord`s), so its memory grows with `sessions × slots` — fine at
/// paper scale, hopeless at fleet scale. Attaching it to a fleet above this
/// threshold is rejected (see `CongestionEnvironment::with_recorder`); fleets
/// beyond it must use the streaming `smartexp3-telemetry` accumulators, whose
/// memory is constant in the session count.
pub const DENSE_RECORDER_MAX_SESSIONS: usize = 20_000;

/// One device's situation during one slot, as fed to the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionRecord {
    /// The device.
    pub device: DeviceId,
    /// Network it was associated with.
    pub network: NetworkId,
    /// Bit rate it observed (Mbps).
    pub rate_mbps: f64,
    /// Most probable network in the device's policy after the slot, with its
    /// probability (used for stable-state detection).
    pub top_choice: (NetworkId, f64),
}

/// Collects per-slot snapshots and turns them into a [`RunResult`].
#[derive(Debug, Clone)]
pub struct RunRecorder {
    detector: StableStateDetector,
    distance_to_nash: Vec<f64>,
    distance_from_average: Vec<f64>,
    slots_at_nash: usize,
    slots_at_epsilon: usize,
    unutilized_megabits: f64,
    selections: Option<Vec<Vec<SelectionRecord>>>,
    recorded_slots: usize,
    // Per-slot scratch buffers, reused across slots so steady-state recording
    // allocates nothing (the raw `selections` queue, when enabled, is the
    // only growing storage).
    scratch_states: Vec<DeviceState>,
    scratch_rates: Vec<f64>,
    scratch_choices: Vec<NetworkId>,
    scratch_tops: Vec<(NetworkId, f64)>,
}

impl RunRecorder {
    /// Creates a recorder for the paper's 15 s slots, Definition 2
    /// probability threshold 0.75 and ε = 7.5 %.
    ///
    /// * `devices` — number of devices the run starts with (the stable-state
    ///   detector grows automatically if more join);
    /// * `keep_selections` — whether to retain the raw per-slot selections.
    #[must_use]
    pub fn new(devices: usize, keep_selections: bool) -> Self {
        RunRecorder {
            detector: StableStateDetector::new(devices, STABLE_PROBABILITY_THRESHOLD),
            distance_to_nash: Vec::new(),
            distance_from_average: Vec::new(),
            slots_at_nash: 0,
            slots_at_epsilon: 0,
            unutilized_megabits: 0.0,
            selections: if keep_selections {
                Some(Vec::new())
            } else {
                None
            },
            recorded_slots: 0,
            scratch_states: Vec::new(),
            scratch_rates: Vec::new(),
            scratch_choices: Vec::new(),
            scratch_tops: Vec::new(),
        }
    }

    /// Ingests one slot: the game describing the current network capacities
    /// and the records of every *active* device.
    pub fn record_slot(&mut self, game: &ResourceSelectionGame, records: &[SelectionRecord]) {
        self.recorded_slots += 1;

        self.scratch_states.clear();
        self.scratch_states
            .extend(records.iter().map(|r| DeviceState {
                network: r.network,
                observed_rate: r.rate_mbps,
            }));
        self.distance_to_nash
            .push(distance_to_nash(game, &self.scratch_states));

        self.scratch_rates.clear();
        self.scratch_rates
            .extend(records.iter().map(|r| r.rate_mbps));
        self.distance_from_average
            .push(distance_from_average_bit_rate(
                game.aggregate_rate(),
                &self.scratch_rates,
            ));

        self.scratch_choices.clear();
        self.scratch_choices
            .extend(records.iter().map(|r| r.network));
        let allocation = game.allocation_from_choices(&self.scratch_choices);
        if is_nash_allocation(game, &allocation) {
            self.slots_at_nash += 1;
        }
        if is_epsilon_equilibrium(game, &allocation, EPSILON_PERCENT) {
            self.slots_at_epsilon += 1;
        }
        self.unutilized_megabits += game.unutilized_rate(&allocation) * SLOT_DURATION_S;

        self.scratch_tops.clear();
        self.scratch_tops
            .extend(records.iter().map(|r| r.top_choice));
        self.detector.record_slot(&self.scratch_tops);

        if let Some(selections) = &mut self.selections {
            selections.push(records.to_vec());
        }
    }

    /// Finalises the recorder into a [`RunResult`].
    #[must_use]
    pub fn finish(self, game: &ResourceSelectionGame, devices: Vec<DeviceOutcome>) -> RunResult {
        let stable_slot = self.detector.run_stable_slot();
        let stable_at_nash = self.detector.stable_at_nash(game);
        RunResult {
            slots: self.recorded_slots,
            slot_duration_s: SLOT_DURATION_S,
            devices,
            distance_to_nash: self.distance_to_nash,
            distance_from_average: self.distance_from_average,
            stable_slot,
            stable_at_nash,
            fraction_time_at_nash: fraction(self.slots_at_nash, self.recorded_slots),
            fraction_time_at_epsilon: fraction(self.slots_at_epsilon, self.recorded_slots),
            unutilized_megabits: self.unutilized_megabits,
            selections: self.selections,
        }
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Number of simulated slots.
    pub slots: usize,
    /// Slot duration in seconds.
    pub slot_duration_s: f64,
    /// Per-device outcomes (download, switches, resets, …).
    pub devices: Vec<DeviceOutcome>,
    /// Definition 3 distance to Nash equilibrium, one value per slot.
    pub distance_to_nash: Vec<f64>,
    /// Definition 4 distance from the average available bit rate, per slot.
    pub distance_from_average: Vec<f64>,
    /// Slot at which the run reached a stable state (Definition 2), if it did.
    pub stable_slot: Option<usize>,
    /// Whether the stable state is a Nash equilibrium allocation.
    pub stable_at_nash: bool,
    /// Fraction of slots whose allocation was an exact Nash equilibrium.
    pub fraction_time_at_nash: f64,
    /// Fraction of slots whose allocation was an ε-equilibrium.
    pub fraction_time_at_epsilon: f64,
    /// Bandwidth that went completely unused over the run, in megabits.
    pub unutilized_megabits: f64,
    /// Raw per-slot selections, if the simulation was configured to keep them.
    pub selections: Option<Vec<Vec<SelectionRecord>>>,
}

impl RunResult {
    /// Total download of all devices, in megabits.
    #[must_use]
    pub fn total_download_megabits(&self) -> f64 {
        self.devices.iter().map(|d| d.download_megabits).sum()
    }

    /// Per-device downloads in gigabytes (the unit of the paper's Table V).
    #[must_use]
    pub fn downloads_gigabytes(&self) -> Vec<f64> {
        self.devices
            .iter()
            .map(DeviceOutcome::download_gigabytes)
            .collect()
    }

    /// Per-device switch counts.
    #[must_use]
    pub fn switch_counts(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.switches as f64).collect()
    }

    /// Per-group distance-to-equilibrium series against a caller-supplied
    /// equilibrium: `groups[device_id]` assigns each device to one of
    /// `group_count` groups, and the returned `series[g][slot]` is group
    /// `g`'s Definition-3 distance in that slot (0 when the group has no
    /// active device). Returns `None` unless the run kept its raw
    /// selections. Used by the mobility experiment (Figure 9), where each
    /// device group is measured against the whole-game equilibrium.
    #[must_use]
    pub fn group_distance_series(
        &self,
        game: &ResourceSelectionGame,
        equilibrium: &Allocation,
        groups: &[usize],
        group_count: usize,
    ) -> Option<Vec<Vec<f64>>> {
        let selections = self.selections.as_ref()?;
        let mut series = vec![Vec::with_capacity(selections.len()); group_count];
        let mut states: Vec<DeviceState> = Vec::new();
        for slot_records in selections {
            for (group, group_series) in series.iter_mut().enumerate() {
                states.clear();
                states.extend(
                    slot_records
                        .iter()
                        .filter(|r| groups.get(r.device.0 as usize) == Some(&group))
                        .map(|r| DeviceState {
                            network: r.network,
                            observed_rate: r.rate_mbps,
                        }),
                );
                let distance = if states.is_empty() {
                    0.0
                } else {
                    distance_to_nash_given(game, equilibrium, &states)
                };
                group_series.push(distance);
            }
        }
        Some(series)
    }

    /// Mean of the distance-to-Nash series over a slot range (clamped to the
    /// recorded length); useful for summarising convergence behaviour.
    #[must_use]
    pub fn mean_distance_to_nash(&self, from_slot: usize, to_slot: usize) -> f64 {
        let to = to_slot.min(self.distance_to_nash.len());
        let from = from_slot.min(to);
        if from == to {
            return 0.0;
        }
        self.distance_to_nash[from..to].iter().sum::<f64>() / (to - from) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game() -> ResourceSelectionGame {
        ResourceSelectionGame::new(vec![
            (NetworkId(0), 4.0),
            (NetworkId(1), 7.0),
            (NetworkId(2), 22.0),
        ])
    }

    fn record(device: u32, network: u32, rate: f64) -> SelectionRecord {
        SelectionRecord {
            device: DeviceId(device),
            network: NetworkId(network),
            rate_mbps: rate,
            top_choice: (NetworkId(network), 0.9),
        }
    }

    #[test]
    fn equilibrium_slots_are_counted() {
        let game = game();
        let mut recorder = RunRecorder::new(3, false);
        // 3 devices all on the 22 Mbps network is the 3-device equilibrium.
        let records = vec![
            record(0, 2, 22.0 / 3.0),
            record(1, 2, 22.0 / 3.0),
            record(2, 2, 22.0 / 3.0),
        ];
        for _ in 0..10 {
            recorder.record_slot(&game, &records);
        }
        let result = recorder.finish(&game, Vec::new());
        assert_eq!(result.slots, 10);
        assert_eq!(result.fraction_time_at_nash, 1.0);
        assert_eq!(result.fraction_time_at_epsilon, 1.0);
        assert!(result.distance_to_nash.iter().all(|&d| d < 1e-9));
        assert_eq!(result.stable_slot, Some(0));
        assert!(result.stable_at_nash);
        // Networks 0 and 1 are idle: 11 Mbps wasted per 15-second slot.
        assert!((result.unutilized_megabits - 11.0 * 15.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn non_equilibrium_slots_raise_distance() {
        let game = game();
        let mut recorder = RunRecorder::new(3, true);
        let records = vec![
            record(0, 0, 4.0 / 3.0),
            record(1, 0, 4.0 / 3.0),
            record(2, 0, 4.0 / 3.0),
        ];
        recorder.record_slot(&game, &records);
        let result = recorder.finish(&game, Vec::new());
        assert_eq!(result.fraction_time_at_nash, 0.0);
        assert!(result.distance_to_nash[0] > 100.0);
        assert_eq!(result.selections.as_ref().map(|s| s.len()), Some(1));
    }

    #[test]
    fn mean_distance_respects_bounds() {
        let game = game();
        let mut recorder = RunRecorder::new(1, false);
        recorder.record_slot(&game, &[record(0, 2, 22.0)]);
        recorder.record_slot(&game, &[record(0, 2, 22.0)]);
        let result = recorder.finish(&game, Vec::new());
        assert_eq!(result.mean_distance_to_nash(0, 100), 0.0);
        assert_eq!(result.mean_distance_to_nash(5, 5), 0.0);
    }
}
