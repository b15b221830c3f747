//! # smartexp3-env
//!
//! Fleet-scale **scenario library**: every world the paper evaluates, packaged
//! as an [`Environment`] plus a pre-populated [`FleetEngine`] so it can be
//! stepped through `run_env` with millions of sessions — sharded over worker
//! threads, bit-identical at any thread count, and checkpointable mid-run.
//!
//! The catalog (one builder per world):
//!
//! | builder | world | dynamics exercised |
//! |---|---|---|
//! | [`equal_share`] | replicated service areas, each a 4/7/22 Mbps shared-bandwidth congestion game | joint-choice coupling |
//! | [`dynamic_bandwidth`] | the same areas, but every area's 22 Mbps network collapses and recovers on schedule | pending [`BandwidthEvent`]s |
//! | [`area_mobility`] | replicated Figure-1 maps; 8 of every 20 devices walk food court → study area → bus stop | visibility churn, `on_networks_changed` |
//! | [`trace_driven`] | every session replays the §VI-B WiFi/cellular trace pairs, phase-shifted per session | non-stationary rates, switching delays |
//! | [`cooperative`] | the equal-share areas with a Co-Bandit gossip layer: sessions share observed rates within their area | shared feedback, `Policy::observe_shared` |
//! | [`dense_urban`] | dense-spectrum city blocks: one macro cell, a band of small cells and hundreds of weak APs per area (256–1024 networks visible per device) | large-K sampling ([`SamplerStrategy`]) |
//! | [`duty_cycle`] | the equal-share areas with heterogeneous wake cadences (1/2/4/8 round-robin, staggered) and periodic cellular bandwidth bursts | event-driven stepping ([`FleetEngine::step_events`](smartexp3_engine::FleetEngine::step_events)), wake-to-decision latency |
//! | [`dense_duty_cycle`] | the [`dense_urban`] city blocks under the [`duty_cycle`] wake protocol: large-K catalogs whose weights freeze across sleep intervals, punctuated by macro-cell bandwidth bursts | amortised-O(1) sampling ([`SamplerStrategy::Alias`]) on static-weight phases |
//!
//! Scale: sessions are grouped into independent replicas (100 devices per
//! congestion area, 20 per mobility map, [`DenseUrbanConfig::devices_per_area`]
//! per city block), so the worlds stay *paper-shaped* at any population — a
//! million sessions is ten thousand food courts, not one network with a
//! million devices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cooperative;
mod duty_cycle;
mod trace;

pub use cooperative::{CooperativeEnvironment, GossipConfig, GossipMode};
pub use duty_cycle::{DutyCycleConfig, DutyCycleEnvironment};
pub use trace::{TraceEnvironment, TRACE_PARTITION_SESSIONS};

use netsim::{
    AreaId, BandwidthEvent, CongestionEnvironment, DeviceProfile, NetworkSpec, ServiceArea,
    SimulationConfig, Topology,
};
use smartexp3_core::{
    ConfigError, Environment, NetworkId, PolicyFactory, PolicyKind, SamplerStrategy,
};
use smartexp3_engine::{FleetConfig, FleetEngine};
use smartexp3_telemetry::TelemetrySink;
use tracegen::paper_trace_pair;

/// Devices per replicated congestion area (the paper's settings use 20 per
/// 3-network area; 100 keeps per-device shares realistic while letting a
/// million sessions fit in ten thousand areas).
pub const DEVICES_PER_AREA: usize = 100;

/// Devices per replicated Figure-1 mobility map (the paper's setting 3).
pub const DEVICES_PER_MAP: usize = 20;

/// A ready-to-run world: an environment plus the fleet populated to match
/// it, session-for-session.
pub struct Scenario {
    /// Catalog name (also used as the bench/record label).
    pub name: &'static str,
    /// The world.
    pub environment: Box<dyn Environment>,
    /// The fleet hosting one policy session per environment session.
    pub fleet: FleetEngine,
}

impl Scenario {
    /// Steps the scenario `slots` slots through the unified engine path.
    pub fn run(&mut self, slots: usize) {
        self.fleet.run_env(self.environment.as_mut(), slots);
    }

    /// Enables streaming telemetry on the world; returns `false` when the
    /// environment does not support it. Telemetry is pure observation — the
    /// trajectory is unchanged — so it can be toggled mid-run.
    pub fn enable_telemetry(&mut self) -> bool {
        self.environment.set_telemetry(true)
    }

    /// Steps the scenario `slots` slots, delivering one
    /// [`TelemetryRecord`](smartexp3_telemetry::TelemetryRecord) per slot to
    /// `sink`. Call [`enable_telemetry`](Self::enable_telemetry) first if the
    /// records should carry per-slot metrics (without it they still carry
    /// `slot`, `active` and phase timing).
    pub fn run_streaming(&mut self, slots: usize, sink: &mut dyn TelemetrySink) {
        self.fleet
            .run_env_with_sink(self.environment.as_mut(), slots, sink);
    }

    /// Number of sessions in the world.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.fleet.len()
    }
}

/// Rejects a count below `minimum`, naming the offending parameter.
fn require(
    parameter: &'static str,
    value: usize,
    minimum: usize,
    expected: &'static str,
) -> Result<(), ConfigError> {
    if value >= minimum {
        Ok(())
    } else {
        Err(ConfigError::ParameterOutOfRange {
            parameter,
            value: value as f64,
            expected,
        })
    }
}

/// The 4/7/22 Mbps network triple of service area `area`, with globally
/// unique ids.
fn area_networks(area: usize) -> Vec<NetworkSpec> {
    let base = (area * 3) as u32;
    vec![
        NetworkSpec::wifi(base, 4.0),
        NetworkSpec::wifi(base + 1, 7.0),
        NetworkSpec::cellular(base + 2, 22.0),
    ]
}

/// The profile of device `id` starting in `area` with its policy built over
/// `networks`, asking for counterfactual per-network gains when `kind`
/// learns from full information.
fn profile(kind: PolicyKind, id: u32, area: AreaId, networks: Vec<NetworkId>) -> DeviceProfile {
    let profile = DeviceProfile::new(id, area, networks);
    if kind.needs_full_information() {
        profile.with_full_information()
    } else {
        profile
    }
}

/// Builds the replicated-congestion-area world shared by [`equal_share`],
/// [`dynamic_bandwidth`], [`cooperative`] and [`duty_cycle`]. The worlds
/// whose golden pins predate per-policy samplers pass
/// [`SamplerStrategy::Linear`] (the factory default, so their trajectories
/// are bit-identical to the historical builder).
fn congestion_world(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    events: Vec<BandwidthEvent>,
    sampler: SamplerStrategy,
    name: &'static str,
) -> Result<Scenario, ConfigError> {
    require("sessions", sessions, 1, "at least one session")?;
    let areas = sessions.div_ceil(DEVICES_PER_AREA);
    let mut networks = Vec::with_capacity(areas * 3);
    let mut service_areas = Vec::with_capacity(areas);
    let mut profiles = Vec::with_capacity(sessions);
    let mut fleet = FleetEngine::new(config);

    for area in 0..areas {
        let specs = area_networks(area);
        let ids: Vec<NetworkId> = specs.iter().map(|n| n.id).collect();
        let rates: Vec<(NetworkId, f64)> = specs.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
        service_areas.push(ServiceArea {
            id: AreaId(area as u32),
            name: format!("area {area}"),
            networks: ids.clone(),
        });
        networks.extend(specs);

        let population = (sessions - area * DEVICES_PER_AREA).min(DEVICES_PER_AREA);
        let mut factory = PolicyFactory::new(rates)?.with_sampler(sampler);
        fleet.add_fleet(&mut factory, kind, population)?;
        for device in 0..population {
            profiles.push(profile(
                kind,
                (area * DEVICES_PER_AREA + device) as u32,
                AreaId(area as u32),
                ids.clone(),
            ));
        }
    }

    let seed = fleet.config().environment_seed();
    let environment = CongestionEnvironment::new(
        networks,
        Topology::new(service_areas),
        events,
        profiles,
        SimulationConfig::default(),
        seed,
    );
    Ok(Scenario {
        name,
        environment: Box::new(environment),
        fleet,
    })
}

/// World 1 — **equal-share congestion**: `sessions` devices partitioned into
/// independent service areas of [`DEVICES_PER_AREA`], each area a 4/7/22 Mbps
/// shared-bandwidth game (the paper's setting 1 at fleet scale).
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`, and
/// propagates [`ConfigError`] from policy construction.
pub fn equal_share(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
) -> Result<Scenario, ConfigError> {
    congestion_world(
        sessions,
        kind,
        config,
        Vec::new(),
        SamplerStrategy::Linear,
        "equal_share",
    )
}

/// World 2 — **dynamic bandwidth**: the [`equal_share`] world, but every
/// area's 22 Mbps network collapses to 2 Mbps at `collapse_at` and recovers
/// at `recover_at` (the §VI-A bandwidth-dynamics setting at fleet scale).
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`, and
/// propagates [`ConfigError`] from policy construction.
pub fn dynamic_bandwidth(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    collapse_at: usize,
    recover_at: usize,
) -> Result<Scenario, ConfigError> {
    let areas = sessions.div_ceil(DEVICES_PER_AREA);
    let mut events = Vec::with_capacity(areas * 2);
    for area in 0..areas {
        let cellular = NetworkId((area * 3 + 2) as u32);
        events.push(BandwidthEvent::new(collapse_at, cellular, 2.0));
        events.push(BandwidthEvent::new(recover_at, cellular, 22.0));
    }
    congestion_world(
        sessions,
        kind,
        config,
        events,
        SamplerStrategy::Linear,
        "dynamic_bandwidth",
    )
}

/// World 5 — **cooperative feedback**: the [`equal_share`] congestion areas
/// wrapped in a [`CooperativeEnvironment`] — every service area is one
/// gossip neighbourhood whose sessions share their observed rates between
/// slots (the Co-Bandit workload; policies fold the digests in via
/// `Policy::observe_shared`).
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`, and
/// propagates [`ConfigError`] from policy construction.
pub fn cooperative(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    gossip: GossipConfig,
) -> Result<Scenario, ConfigError> {
    let mut scenario = congestion_world(
        sessions,
        kind,
        config,
        Vec::new(),
        SamplerStrategy::Linear,
        "cooperative",
    )?;
    let membership = (0..sessions).map(|i| i / DEVICES_PER_AREA).collect();
    let gossip_seed = scenario.fleet.config().environment_seed();
    scenario.environment = Box::new(CooperativeEnvironment::new(
        scenario.environment,
        membership,
        gossip,
        gossip_seed,
    ));
    Ok(scenario)
}

/// World 7 — **heterogeneous duty cycles**: the [`equal_share`] congestion
/// areas wrapped in a [`DutyCycleEnvironment`] — session `i` wakes every
/// `cadences[i % cadences.len()]` slots (staggered by index), and every
/// [`DutyCycleConfig::burst_period`] slots each area's cellular network
/// collapses to 2 Mbps, recovering half a period later. Built for the
/// event-driven engine path: step it with
/// [`FleetEngine::run_until`](smartexp3_engine::FleetEngine::run_until) /
/// [`step_events`](smartexp3_engine::FleetEngine::step_events) rather than
/// `run_env` (the slot-synchronous path still works — cadences are then
/// simply ignored).
///
/// Visibility in this world is static by design: `networks_changed`
/// notifications are edge-triggered and would be missed by sleeping
/// sessions, so burstiness comes from scheduled bandwidth collapses (level
/// changes every later wake observes correctly), not mobility.
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`, and
/// propagates [`ConfigError`] from policy construction.
pub fn duty_cycle(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    duty: DutyCycleConfig,
) -> Result<Scenario, ConfigError> {
    let areas = sessions.div_ceil(DEVICES_PER_AREA);
    let mut events = Vec::new();
    if duty.burst_period > 0 {
        let half = (duty.burst_period / 2).max(1);
        for area in 0..areas {
            let cellular = NetworkId((area * 3 + 2) as u32);
            let mut at = duty.burst_period;
            while at <= duty.horizon_slots {
                events.push(BandwidthEvent::new(at, cellular, 2.0));
                events.push(BandwidthEvent::new(at + half, cellular, 22.0));
                at += duty.burst_period;
            }
        }
    }
    let mut scenario =
        congestion_world(sessions, kind, config, events, duty.sampler, "duty_cycle")?;
    scenario.environment = Box::new(DutyCycleEnvironment::new(
        scenario.environment,
        duty.cadences,
    ));
    Ok(scenario)
}

/// Shape of the [`dense_urban`] world: how many networks each city block
/// advertises, how many devices share it, and which CDF-inversion strategy
/// the EXP3-family policies use over that catalog.
#[derive(Debug, Clone, Copy)]
pub struct DenseUrbanConfig {
    /// Networks visible per city block — the per-policy arm count `K`.
    /// The world is meant for 256–1024; anything ≥ 2 builds (tests use
    /// small blocks to stay fast).
    pub networks_per_area: usize,
    /// Devices sharing one city block.
    pub devices_per_area: usize,
    /// CDF-inversion strategy for every EXP3-family policy in the world.
    /// Golden decision pins are **per policy config**: trajectories are
    /// bit-stable for a fixed strategy, but [`SamplerStrategy::Linear`] and
    /// [`SamplerStrategy::Alias`] runs are distinct pinned configurations.
    pub sampler: SamplerStrategy,
}

impl Default for DenseUrbanConfig {
    fn default() -> Self {
        DenseUrbanConfig {
            networks_per_area: 512,
            devices_per_area: 64,
            sampler: SamplerStrategy::Alias,
        }
    }
}

/// The dense-spectrum catalog of city block `area`: network `0` is the
/// macro cell, the next `k/16` are mid-tier small cells, and the rest are
/// weak APs — ids ascend within the block so visibility lists stay sorted.
fn dense_area_networks(area: usize, k: usize) -> Vec<NetworkSpec> {
    let base = (area * k) as u32;
    (0..k)
        .map(|j| {
            let id = base + j as u32;
            if j == 0 {
                NetworkSpec::cellular(id, 22.0)
            } else if j <= k / 16 {
                // Small cells: 7.0–14.5 Mbps in a deterministic ramp.
                NetworkSpec::wifi(id, 7.0 + (j % 4) as f64 * 2.5)
            } else {
                // Weak APs: 1.0–4.5 Mbps.
                NetworkSpec::wifi(id, 1.0 + (j % 8) as f64 * 0.5)
            }
        })
        .collect()
}

/// World 6 — **dense urban spectrum**: `sessions` devices partitioned into
/// city blocks of [`DenseUrbanConfig::devices_per_area`], each block one
/// shared-bandwidth congestion game over
/// [`DenseUrbanConfig::networks_per_area`] networks (one 22 Mbps macro cell,
/// a band of small cells, hundreds of weak APs). This is the large-K
/// stress world for the constant-time sampler: with
/// [`SamplerStrategy::Alias`] each draw costs amortised O(1) instead of O(K).
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`,
/// `networks_per_area < 2` or `devices_per_area == 0`, and propagates
/// [`ConfigError`] from policy construction.
pub fn dense_urban(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    dense: DenseUrbanConfig,
) -> Result<Scenario, ConfigError> {
    dense_world(sessions, kind, config, dense, Vec::new(), "dense_urban")
}

/// Builds the dense-spectrum city-block world shared by [`dense_urban`] and
/// [`dense_duty_cycle`].
fn dense_world(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    dense: DenseUrbanConfig,
    events: Vec<BandwidthEvent>,
    name: &'static str,
) -> Result<Scenario, ConfigError> {
    require("sessions", sessions, 1, "at least one session")?;
    require(
        "networks_per_area",
        dense.networks_per_area,
        2,
        "at least two networks per block",
    )?;
    require(
        "devices_per_area",
        dense.devices_per_area,
        1,
        "at least one device per block",
    )?;
    let per_area = dense.devices_per_area;
    let k = dense.networks_per_area;
    let areas = sessions.div_ceil(per_area);
    let mut networks = Vec::with_capacity(areas * k);
    let mut service_areas = Vec::with_capacity(areas);
    let mut profiles = Vec::with_capacity(sessions);
    let mut fleet = FleetEngine::new(config);

    for area in 0..areas {
        let specs = dense_area_networks(area, k);
        let ids: Vec<NetworkId> = specs.iter().map(|n| n.id).collect();
        let rates: Vec<(NetworkId, f64)> = specs.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
        service_areas.push(ServiceArea {
            id: AreaId(area as u32),
            name: format!("block {area}"),
            networks: ids.clone(),
        });
        networks.extend(specs);

        let population = (sessions - area * per_area).min(per_area);
        let mut factory = PolicyFactory::new(rates)?.with_sampler(dense.sampler);
        fleet.add_fleet(&mut factory, kind, population)?;
        for device in 0..population {
            profiles.push(profile(
                kind,
                (area * per_area + device) as u32,
                AreaId(area as u32),
                ids.clone(),
            ));
        }
    }

    let seed = fleet.config().environment_seed();
    let environment = CongestionEnvironment::new(
        networks,
        Topology::new(service_areas),
        events,
        profiles,
        SimulationConfig::default(),
        seed,
    );
    Ok(Scenario {
        name,
        environment: Box::new(environment),
        fleet,
    })
}

/// World 8 — **duty-cycled dense spectrum**: the [`dense_urban`] city blocks
/// wrapped in a [`DutyCycleEnvironment`]. Sessions wake on the
/// [`DutyCycleConfig::cadences`] round-robin, and every
/// [`DutyCycleConfig::burst_period`] slots each block's macro cell collapses
/// to 2 Mbps, recovering half a period later. Between a session's wakes its
/// weight table is untouched — this is the static-weight phase
/// [`SamplerStrategy::Alias`]
/// amortises its table freeze across, which is why this world is the
/// headline benchmark for the alias sampler.
///
/// The policies' sampler comes from `dense.sampler` (one world, one knob);
/// [`DutyCycleConfig::sampler`] is ignored here — it governs only the
/// plain [`duty_cycle`] world.
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`,
/// `networks_per_area < 2` or `devices_per_area == 0`, and propagates
/// [`ConfigError`] from policy construction.
pub fn dense_duty_cycle(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    dense: DenseUrbanConfig,
    duty: DutyCycleConfig,
) -> Result<Scenario, ConfigError> {
    let areas = sessions.div_ceil(dense.devices_per_area.max(1));
    let mut events = Vec::new();
    if duty.burst_period > 0 {
        let half = (duty.burst_period / 2).max(1);
        for area in 0..areas {
            let macro_cell = NetworkId((area * dense.networks_per_area) as u32);
            let mut at = duty.burst_period;
            while at <= duty.horizon_slots {
                events.push(BandwidthEvent::new(at, macro_cell, 2.0));
                events.push(BandwidthEvent::new(at + half, macro_cell, 22.0));
                at += duty.burst_period;
            }
        }
    }
    let mut scenario = dense_world(sessions, kind, config, dense, events, "dense_duty_cycle")?;
    scenario.environment = Box::new(DutyCycleEnvironment::new(
        scenario.environment,
        duty.cadences,
    ));
    Ok(scenario)
}

/// World 3 — **area mobility**: `sessions` devices partitioned into
/// replicated Figure-1 maps of [`DEVICES_PER_MAP`]; in every map, 8 devices
/// walk food court → study area (at `first_move`) → bus stop (at
/// `second_move`) while 12 stay put (the paper's setting 3 at fleet scale).
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0`, and
/// propagates [`ConfigError`] from policy construction.
pub fn area_mobility(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    first_move: usize,
    second_move: usize,
) -> Result<Scenario, ConfigError> {
    require("sessions", sessions, 1, "at least one session")?;
    let maps = sessions.div_ceil(DEVICES_PER_MAP);
    let mut networks = Vec::with_capacity(maps * 5);
    let mut service_areas = Vec::with_capacity(maps * 3);
    let mut profiles = Vec::with_capacity(sessions);
    let mut fleet = FleetEngine::new(config);

    for map in 0..maps {
        let base = (map * 5) as u32;
        // The Figure-1 network set: cellular everywhere, four WLANs.
        let specs = vec![
            NetworkSpec::cellular(base, 16.0),
            NetworkSpec::wifi(base + 1, 14.0),
            NetworkSpec::wifi(base + 2, 22.0),
            NetworkSpec::wifi(base + 3, 7.0),
            NetworkSpec::wifi(base + 4, 4.0),
        ];
        let id = |offset: u32| NetworkId(base + offset);
        let area_id = |offset: u32| AreaId((map * 3) as u32 + offset);
        let area_sets: [(AreaId, &str, Vec<NetworkId>); 3] = [
            (area_id(0), "food court", vec![id(0), id(1), id(2)]),
            (area_id(1), "study area", vec![id(0), id(2), id(3)]),
            (area_id(2), "bus stop", vec![id(0), id(4)]),
        ];
        for (area, label, ids) in &area_sets {
            service_areas.push(ServiceArea {
                id: *area,
                name: format!("map {map} {label}"),
                networks: ids.clone(),
            });
        }

        // 8 walkers + 2 food court, 5 study area, 5 bus stop — truncated in
        // the final partial map.
        let population = (sessions - map * DEVICES_PER_MAP).min(DEVICES_PER_MAP);
        let mut factories: Vec<PolicyFactory> = area_sets
            .iter()
            .map(|(_, _, ids)| {
                PolicyFactory::new(
                    specs
                        .iter()
                        .filter(|n| ids.contains(&n.id))
                        .map(|n| (n.id, n.bandwidth_mbps))
                        .collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        for device in 0..population {
            let session = map * DEVICES_PER_MAP + device;
            let group = match device {
                0..=7 => 0,
                8..=9 => 1,
                10..=14 => 2,
                _ => 3,
            };
            let start_area = match group {
                0 | 1 => 0,
                2 => 1,
                _ => 2,
            };
            let mut device = profile(
                kind,
                session as u32,
                area_sets[start_area].0,
                area_sets[start_area].2.clone(),
            );
            if group == 0 {
                device = device
                    .moving_to(first_move, area_sets[1].0)
                    .moving_to(second_move, area_sets[2].0);
            }
            profiles.push(device);
            fleet.add_fleet(&mut factories[start_area], kind, 1)?;
        }
        networks.extend(specs);
    }

    let seed = fleet.config().environment_seed();
    let environment = CongestionEnvironment::new(
        networks,
        Topology::new(service_areas),
        Vec::new(),
        profiles,
        SimulationConfig::default(),
        seed,
    );
    Ok(Scenario {
        name: "area_mobility",
        environment: Box::new(environment),
        fleet,
    })
}

/// World 4 — **trace-driven**: every session replays one of the four §VI-B
/// synthetic WiFi/cellular trace pairs (`trace_slots` slots each, generated
/// from the fleet's root seed), phase-shifted by session index.
///
/// The world gives bandit feedback only: observations carry no
/// counterfactual gains, so a [`PolicyKind::FullInformation`] fleet updates
/// just the arm it chose.
///
/// # Errors
///
/// Returns [`ConfigError::ParameterOutOfRange`] when `sessions == 0` or
/// `trace_slots == 0`, and propagates [`ConfigError`] from policy
/// construction.
pub fn trace_driven(
    sessions: usize,
    kind: PolicyKind,
    config: FleetConfig,
    trace_slots: usize,
) -> Result<Scenario, ConfigError> {
    require("sessions", sessions, 1, "at least one session")?;
    require("trace_slots", trace_slots, 1, "at least one slot per trace")?;
    let pairs: Vec<_> = (1..=4)
        .map(|index| paper_trace_pair(index, trace_slots, config.root_seed ^ index as u64))
        .collect();
    let environment = TraceEnvironment::new(pairs, sessions, config.environment_seed());
    let mut fleet = FleetEngine::new(config);
    let mut factory = PolicyFactory::new(vec![(tracegen::WIFI, 1.0), (tracegen::CELLULAR, 1.0)])?;
    fleet.add_fleet(&mut factory, kind, sessions)?;
    Ok(Scenario {
        name: "trace_driven",
        environment: Box::new(environment),
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_share_partitions_sessions_into_areas() {
        let mut scenario =
            equal_share(250, PolicyKind::SmartExp3, FleetConfig::with_root_seed(7)).unwrap();
        assert_eq!(scenario.sessions(), 250);
        assert_eq!(scenario.environment.sessions(), 250);
        scenario.run(5);
        let metrics = scenario.fleet.metrics();
        assert_eq!(metrics.decisions, 5 * 250);
        assert!(metrics.kind(PolicyKind::SmartExp3).unwrap().mean_gain() > 0.0);
    }

    #[test]
    fn dynamic_bandwidth_schedules_two_events_per_area() {
        let scenario = dynamic_bandwidth(
            150,
            PolicyKind::Greedy,
            FleetConfig::with_root_seed(3),
            10,
            20,
        )
        .unwrap();
        assert_eq!(scenario.sessions(), 150);
        assert_eq!(scenario.name, "dynamic_bandwidth");
    }

    #[test]
    fn area_mobility_builds_partial_final_maps() {
        let mut scenario = area_mobility(
            30,
            PolicyKind::SmartExp3,
            FleetConfig::with_root_seed(5),
            4,
            8,
        )
        .unwrap();
        assert_eq!(scenario.sessions(), 30);
        scenario.run(12);
        assert_eq!(scenario.fleet.metrics().decisions, 12 * 30);
    }

    #[test]
    fn cooperative_sessions_hear_their_area_gossip() {
        let mut scenario = cooperative(
            120,
            PolicyKind::SmartExp3,
            FleetConfig::with_root_seed(13),
            GossipConfig::broadcast(),
        )
        .unwrap();
        scenario.run(20);
        let metrics = scenario.fleet.metrics();
        assert_eq!(metrics.decisions, 20 * 120);
        let smart = metrics.kind(PolicyKind::SmartExp3).unwrap();
        assert!(
            smart.policy.shared_observations > 0,
            "broadcast gossip must reach the policies"
        );
        // An isolated fleet on the same world hears nothing.
        let mut isolated =
            equal_share(120, PolicyKind::SmartExp3, FleetConfig::with_root_seed(13)).unwrap();
        isolated.run(20);
        let isolated_metrics = isolated.fleet.metrics();
        assert_eq!(
            isolated_metrics
                .kind(PolicyKind::SmartExp3)
                .unwrap()
                .policy
                .shared_observations,
            0
        );
    }

    #[test]
    fn dense_urban_builds_sorted_large_catalogs() {
        let dense = DenseUrbanConfig {
            networks_per_area: 64,
            devices_per_area: 8,
            ..DenseUrbanConfig::default()
        };
        let mut scenario =
            dense_urban(20, PolicyKind::Exp3, FleetConfig::with_root_seed(17), dense).unwrap();
        assert_eq!(scenario.sessions(), 20);
        assert_eq!(scenario.name, "dense_urban");
        scenario.run(4);
        assert_eq!(scenario.fleet.metrics().decisions, 4 * 20);
        assert!(scenario.fleet.metrics().kind(PolicyKind::Exp3).is_some());
    }

    #[test]
    fn duty_cycle_world_steps_event_driven() {
        let mut scenario = duty_cycle(
            120,
            PolicyKind::SmartExp3,
            FleetConfig::with_root_seed(23),
            DutyCycleConfig {
                cadences: vec![1, 2, 4],
                burst_period: 8,
                horizon_slots: 32,
                ..DutyCycleConfig::default()
            },
        )
        .unwrap();
        assert_eq!(scenario.name, "duty_cycle");
        assert_eq!(scenario.sessions(), 120);
        // Bursts materialise as env events even between wakes.
        assert_eq!(scenario.environment.next_env_event(0), Some(8));
        scenario.fleet.run_until(scenario.environment.as_mut(), 16);
        assert_eq!(scenario.fleet.slot(), 16);
        // 40 cadence-1 sessions decide 16×, 40 cadence-2 decide 8×, 40
        // cadence-4 decide 4×.
        assert_eq!(
            scenario.fleet.metrics().decisions,
            40 * 16 + 40 * 8 + 40 * 4
        );
        assert!(scenario.fleet.last_wake_latency().is_some());
    }

    #[test]
    fn dense_duty_cycle_world_steps_event_driven_with_alias() {
        let dense = DenseUrbanConfig {
            networks_per_area: 64,
            devices_per_area: 10,
            sampler: SamplerStrategy::Alias,
        };
        let mut scenario = dense_duty_cycle(
            30,
            PolicyKind::Exp3,
            FleetConfig::with_root_seed(29),
            dense,
            DutyCycleConfig {
                cadences: vec![2, 4],
                burst_period: 8,
                horizon_slots: 32,
                ..DutyCycleConfig::default()
            },
        )
        .unwrap();
        assert_eq!(scenario.name, "dense_duty_cycle");
        assert_eq!(scenario.sessions(), 30);
        // Macro-cell bursts materialise as env events even between wakes.
        assert_eq!(scenario.environment.next_env_event(0), Some(8));
        scenario.fleet.run_until(scenario.environment.as_mut(), 16);
        assert_eq!(scenario.fleet.slot(), 16);
        // 15 cadence-2 sessions decide 8×, 15 cadence-4 decide 4×.
        assert_eq!(scenario.fleet.metrics().decisions, 15 * 8 + 15 * 4);
        // The alias path actually ran: tables were frozen at least once.
        let metrics = scenario.fleet.metrics();
        let exp3 = metrics.kind(PolicyKind::Exp3).unwrap();
        assert!(exp3.policy.sampler_rebuilds > 0);
    }

    #[test]
    fn builders_reject_degenerate_worlds_with_typed_errors() {
        let config = || FleetConfig::with_root_seed(1);
        let kind = PolicyKind::SmartExp3;
        let duty = DutyCycleConfig::default;
        let dense = |networks_per_area, devices_per_area| DenseUrbanConfig {
            networks_per_area,
            devices_per_area,
            ..DenseUrbanConfig::default()
        };
        let out_of_range = |result: Result<Scenario, ConfigError>, parameter: &str| match result {
            Err(ConfigError::ParameterOutOfRange { parameter: got, .. }) => {
                assert_eq!(got, parameter);
            }
            Err(other) => panic!("{parameter}: unexpected error {other}"),
            Ok(scenario) => panic!("{parameter}: built {}", scenario.name),
        };
        out_of_range(equal_share(0, kind, config()), "sessions");
        out_of_range(dynamic_bandwidth(0, kind, config(), 4, 8), "sessions");
        out_of_range(
            cooperative(0, kind, config(), GossipConfig::broadcast()),
            "sessions",
        );
        out_of_range(duty_cycle(0, kind, config(), duty()), "sessions");
        out_of_range(area_mobility(0, kind, config(), 4, 8), "sessions");
        out_of_range(trace_driven(0, kind, config(), 20), "sessions");
        out_of_range(trace_driven(4, kind, config(), 0), "trace_slots");
        for (sessions, networks, devices, parameter) in [
            (0, 8, 4, "sessions"),
            (8, 1, 4, "networks_per_area"),
            (8, 0, 4, "networks_per_area"),
            (8, 8, 0, "devices_per_area"),
        ] {
            let shape = dense(networks, devices);
            out_of_range(dense_urban(sessions, kind, config(), shape), parameter);
            out_of_range(
                dense_duty_cycle(sessions, kind, config(), shape, duty()),
                parameter,
            );
        }
    }

    #[test]
    fn trace_driven_feeds_every_session() {
        let mut scenario = trace_driven(
            40,
            PolicyKind::SmartExp3,
            FleetConfig::with_root_seed(11),
            60,
        )
        .unwrap();
        scenario.run(20);
        assert_eq!(scenario.fleet.metrics().decisions, 20 * 40);
    }
}
