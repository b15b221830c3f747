//! The four benchmark workloads: two worlds (a small-K fleet and a large-K
//! dense city) each stepped slot-synchronously and event-driven.

use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_engine::FleetConfig;
use smartexp3_env::{DenseUrbanConfig, DutyCycleConfig, Scenario};

/// Worker threads of the engine pool.
pub const THREADS: usize = 2;

/// Sessions in the fleet worlds (SmartExp3, K = 3).
pub const FLEET_SESSIONS: usize = 50_000;
/// Sessions in the dense worlds (Exp3, K = 512, 64 blocks of 64).
pub const DENSE_SESSIONS: usize = 4096;
/// Networks per dense city block.
pub const DENSE_K: usize = 512;
/// Devices per dense city block.
pub const DENSE_BLOCK: usize = 64;
/// Slots between cellular / macro-cell bandwidth bursts.
pub const BURST_PERIOD: usize = 32;

/// How the benchmark advances the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// `step_env_with_sink`: every session decides every slot.
    Sync,
    /// `step_events_with_sink`: one wake timestamp per call.
    Events,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `equal_share`, 50k SmartExp3 sessions, slot-synchronous.
    FleetSync,
    /// `duty_cycle`, the same sessions on cadences 1/2/4/8, event-driven.
    FleetEvents,
    /// `dense_urban`, 4096 Exp3 sessions at K = 512 (alias), slot-synchronous.
    DenseSync,
    /// `dense_duty_cycle`, the same blocks on cadences 2/4/8, event-driven.
    DenseEvents,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetSync,
        Workload::FleetEvents,
        Workload::DenseSync,
        Workload::DenseEvents,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSync => "fleet_sync",
            Workload::FleetEvents => "fleet_events",
            Workload::DenseSync => "dense_sync",
            Workload::DenseEvents => "dense_events",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload is stepped.
    #[must_use]
    pub fn stepping(self) -> Stepping {
        match self {
            Workload::FleetSync | Workload::DenseSync => Stepping::Sync,
            Workload::FleetEvents | Workload::DenseEvents => Stepping::Events,
        }
    }

    /// Sessions in the world.
    #[must_use]
    pub fn sessions(self) -> usize {
        match self {
            Workload::FleetSync | Workload::FleetEvents => FLEET_SESSIONS,
            Workload::DenseSync | Workload::DenseEvents => DENSE_SESSIONS,
        }
    }

    /// Wake cadences, assigned round-robin by session index (`[1]` for the
    /// slot-synchronous workloads).
    #[must_use]
    pub fn cadences(self) -> &'static [usize] {
        match self {
            Workload::FleetSync | Workload::DenseSync => &[1],
            Workload::FleetEvents => &[1, 2, 4, 8],
            Workload::DenseEvents => &[2, 4, 8],
        }
    }

    /// Last slot covered by the burst schedule; a run stops measuring
    /// there, so every measured slot sees the same world.
    #[must_use]
    pub fn horizon(self) -> usize {
        match self {
            Workload::FleetSync | Workload::DenseSync => usize::MAX,
            Workload::FleetEvents => 4096,
            Workload::DenseEvents => 16_384,
        }
    }

    /// Builds the world and its fleet from `seed`, with telemetry enabled.
    ///
    /// # Panics
    ///
    /// Panics if a scenario builder rejects the fixed configuration, or the
    /// world does not support telemetry.
    #[must_use]
    pub fn build(self, seed: u64) -> Scenario {
        let config = FleetConfig::with_root_seed(seed).with_threads(THREADS);
        let dense = DenseUrbanConfig {
            networks_per_area: DENSE_K,
            devices_per_area: DENSE_BLOCK,
            sampler: SamplerStrategy::Alias,
        };
        let duty = DutyCycleConfig {
            cadences: self.cadences().to_vec(),
            burst_period: BURST_PERIOD,
            horizon_slots: self.horizon(),
            sampler: SamplerStrategy::Linear,
        };
        let sessions = self.sessions();
        let built = match self {
            Workload::FleetSync => {
                smartexp3_env::equal_share(sessions, PolicyKind::SmartExp3, config)
            }
            Workload::FleetEvents => {
                smartexp3_env::duty_cycle(sessions, PolicyKind::SmartExp3, config, duty)
            }
            Workload::DenseSync => {
                smartexp3_env::dense_urban(sessions, PolicyKind::Exp3, config, dense)
            }
            Workload::DenseEvents => {
                smartexp3_env::dense_duty_cycle(sessions, PolicyKind::Exp3, config, dense, duty)
            }
        };
        let mut scenario = built.expect("the workload configuration is valid");
        assert!(scenario.enable_telemetry(), "the world supports telemetry");
        scenario
    }

    /// Decisions the schedule implies once the engine clock reaches `slots`:
    /// session `i` wakes first at `i mod c` and then every `c` slots, where
    /// `c` is its cadence (every session is active in these worlds).
    #[must_use]
    pub fn expected_decisions(self, slots: usize) -> u64 {
        let cadences = self.cadences();
        (0..self.sessions())
            .map(|i| {
                let cadence = cadences[i % cadences.len()];
                let first = i % cadence;
                if slots > first {
                    ((slots - first - 1) / cadence + 1) as u64
                } else {
                    0
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn sync_schedule_is_sessions_times_slots() {
        assert_eq!(
            Workload::FleetSync.expected_decisions(7),
            7 * FLEET_SESSIONS as u64
        );
    }

    #[test]
    fn event_schedule_counts_staggered_wakes() {
        // Cadences 2/4/8 round-robin: over 8 slots a cadence-c session
        // wakes 8/c times whatever its stagger.
        let per_cycle: u64 = (0..DENSE_SESSIONS)
            .map(|i| 8 / [2, 4, 8][i % 3] as u64)
            .sum();
        assert_eq!(Workload::DenseEvents.expected_decisions(8), per_cycle);
        assert_eq!(Workload::DenseEvents.expected_decisions(0), 0);
    }
}
