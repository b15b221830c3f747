//! The congestion world as a first-class [`Environment`].
//!
//! [`CongestionEnvironment`] owns everything the old 578-line
//! `Simulation::run` slot loop used to interleave with policy calls:
//! network capacities and their scheduled [`BandwidthEvent`]s, the
//! service-area [`Topology`] and per-device visibility, mobility walks and
//! activity windows, bandwidth sharing, switching-delay sampling, goodput
//! accounting, counterfactual full-information gains and the optional
//! [`RunRecorder`].
//!
//! It is driven three ways by the same grading core:
//!
//! * **sequential, legacy-exact** — [`Simulation::run`](crate::Simulation)
//!   is a thin driver that calls the phase methods with the run's shared RNG
//!   in the historical order, so trajectories are bit-identical to the
//!   pre-refactor simulator;
//! * **fleet-scale, sequential** — the [`Environment::feedback`]
//!   implementation grades every partition in order on the calling thread;
//! * **fleet-scale, partitioned** — worlds that are unions of independent
//!   areas advertise [`Environment::feedback_partitions`], and
//!   [`Environment::feedback_partitioned`] fans one job per partition out
//!   over the driver's workers.
//!
//! # Feedback partitions
//!
//! At construction the environment computes the connected components of its
//! network/area graph (areas sharing a network merge, and a walking device
//! merges every area on its route) and checks that each component's sessions
//! form one contiguous index range. When they do — the scenario library's
//! replicated worlds are built that way — each component becomes one
//! [`SessionRange`] partition owning its networks' load/share buffers and
//! goodput accounting, plus **its own RNG stream** advanced in canonical
//! session order, so grading partitions concurrently is bit-identical to
//! grading them sequentially. Worlds that do not split (shared networks with
//! interleaved sessions) collapse to a single partition covering every
//! session; partition 0 always keeps the historical single-stream seed
//! derivation, so single-partition worlds reproduce the pre-sharding
//! fleet-path trajectories exactly.

use crate::delay::DelayModel;
use crate::device::{DeviceId, DeviceOutcome, DeviceSetup};
use crate::event::{BandwidthEvent, EventSchedule};
use crate::network::NetworkSpec;
use crate::recorder::{RunRecorder, RunResult, SelectionRecord};
use crate::topology::{AreaId, Topology};
use crate::SimulationConfig;
use congestion_game::ResourceSelectionGame;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use smartexp3_core::{
    splitmix64, EnvStateError, Environment, NetworkId, Observation, PartitionExecutor,
    PartitionJob, SequentialExecutor, SessionRange, SessionView, SlotIndex, SlotMetrics,
};
use std::collections::BTreeMap;

/// Everything the environment needs to know about one session except its
/// policy (which lives in the driver — the simulation or the fleet engine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Identifier used in records and outcomes.
    pub id: DeviceId,
    /// Service area the device starts in.
    pub area: AreaId,
    /// First slot (inclusive) in which the device participates.
    pub active_from: usize,
    /// Slot (exclusive) after which the device leaves (`None` = stays).
    pub active_until: Option<usize>,
    /// Scheduled moves: at the start of slot `.0` the device relocates to
    /// area `.1` (sorted by slot).
    pub moves: Vec<(usize, AreaId)>,
    /// Whether observations should carry counterfactual per-network gains.
    pub needs_full_information: bool,
    /// The networks the session's policy was constructed over, used to
    /// decide whether its first activation needs a visibility notification
    /// (the fleet-engine analogue of the legacy policy introspection).
    pub home_networks: Vec<NetworkId>,
}

impl DeviceProfile {
    /// A device active for the whole run in `area`, with its policy built
    /// over `home_networks`.
    #[must_use]
    pub fn new(id: u32, area: AreaId, home_networks: Vec<NetworkId>) -> Self {
        DeviceProfile {
            id: DeviceId(id),
            area,
            active_from: 0,
            active_until: None,
            moves: Vec::new(),
            needs_full_information: false,
            home_networks,
        }
    }

    /// Restricts activity to the slot range `[from, until)`.
    #[must_use]
    pub fn active_between(mut self, from: usize, until: Option<usize>) -> Self {
        self.active_from = from;
        self.active_until = until;
        self
    }

    /// Schedules a move to `area` at the start of slot `slot`.
    #[must_use]
    pub fn moving_to(mut self, slot: usize, area: AreaId) -> Self {
        self.moves.push((slot, area));
        self.moves.sort_by_key(|&(s, _)| s);
        self
    }

    /// Requests counterfactual (full-information) feedback.
    #[must_use]
    pub fn with_full_information(mut self) -> Self {
        self.needs_full_information = true;
        self
    }

    /// Builds the driver-side twin of this profile around `policy` — the
    /// [`DeviceSetup`] describing the same device for the sequential
    /// [`Simulation`](crate::Simulation) path. Scenario definitions can thus
    /// be written once as profiles and drive either path.
    #[must_use]
    pub fn build_setup(&self, policy: Box<dyn smartexp3_core::Policy>) -> DeviceSetup {
        let mut setup = DeviceSetup::new(self.id.0, policy)
            .in_area(self.area)
            .active_between(self.active_from, self.active_until);
        for &(slot, area) in &self.moves {
            setup = setup.moving_to(slot, area);
        }
        if self.needs_full_information {
            setup = setup.with_full_information();
        }
        setup
    }

    /// The environment-side half of a [`DeviceSetup`] (the policy stays with
    /// the driver). `home_networks` is read off the policy's distribution.
    #[must_use]
    pub fn from_setup(setup: &DeviceSetup) -> Self {
        DeviceProfile {
            id: setup.id,
            area: setup.area,
            active_from: setup.active_from,
            active_until: setup.active_until,
            moves: setup.moves.clone(),
            needs_full_information: setup.needs_full_information,
            home_networks: setup
                .policy
                .probabilities()
                .iter()
                .map(|(n, _)| *n)
                .collect(),
        }
    }

    /// `true` if the device participates in slot `slot`.
    #[must_use]
    pub fn is_active_at(&self, slot: usize) -> bool {
        slot >= self.active_from && self.active_until.is_none_or(|until| slot < until)
    }

    /// The area the device is in at slot `slot`, accounting for moves.
    #[must_use]
    pub fn area_at(&self, slot: usize) -> AreaId {
        let mut area = self.area;
        for &(move_slot, destination) in &self.moves {
            if slot >= move_slot {
                area = destination;
            } else {
                break;
            }
        }
        area
    }
}

/// What [`CongestionEnvironment::refresh_visibility`] found for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VisibilityUpdate {
    /// The device sits this slot out.
    Inactive,
    /// Active, same visible networks as before.
    Unchanged,
    /// Active and the visible set changed (mobility, topology).
    Changed,
    /// Active for the first time (or after its visible set was never
    /// initialised); the driver decides whether the policy needs to hear
    /// about it.
    FirstActivation,
}

/// Per-device dynamic state (runtime, not configuration).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct DeviceDyn {
    available: Vec<NetworkId>,
    current: Option<NetworkId>,
    was_active: bool,
    active_now: bool,
    pending_change: bool,
    download_megabits: f64,
    active_slots: usize,
    switches: u64,
    total_delay_seconds: f64,
}

/// Per-device visibility bookkeeping derived from [`DeviceDyn`] — *not*
/// serialized (a restore resets it and the next refresh falls back to the
/// full vector comparison, which is the historical behaviour).
///
/// `area` caches the service area the device's `available` list was copied
/// from, so a device that stays put skips the O(K) list comparison every
/// slot — the difference between O(1) and O(K) per session per slot in
/// dense-urban worlds with hundreds of visible networks. `sorted` records
/// whether `available` is ascending, letting membership checks on the hot
/// grading path binary-search instead of scanning.
#[derive(Debug, Clone, Copy, Default)]
struct VisibilityCache {
    /// The area whose network list `available` currently mirrors, or `None`
    /// when unknown (never refreshed, or just restored from a checkpoint).
    area: Option<AreaId>,
    /// Whether `available` is ascending (computed when the list changes).
    sorted: bool,
}

/// `true` when `list` is ascending (duplicates allowed) — the precondition
/// for binary-searching it.
fn is_ascending(list: &[NetworkId]) -> bool {
    list.windows(2).all(|pair| pair[0] <= pair[1])
}

/// Membership check on a visible-network list: binary search when the list
/// is known to be sorted (every topology built from ascending ids — all the
/// stock worlds), linear scan otherwise. Semantically identical either way.
fn sees(available: &[NetworkId], sorted: bool, network: NetworkId) -> bool {
    if sorted {
        available.binary_search(&network).is_ok()
    } else {
        available.contains(&network)
    }
}

/// Serialized dynamic state (see [`Environment::state`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CongestionEnvState {
    bandwidths: Vec<(NetworkId, f64)>,
    cursor: usize,
    /// One RNG stream per feedback partition, in partition order.
    rngs: Vec<[u64; 4]>,
    devices: Vec<DeviceDyn>,
}

/// Derives feedback partition `partition`'s RNG stream from the environment
/// seed. Partition 0 keeps the historical single-stream derivation
/// (`seed_from_u64(env_seed)`), so worlds that collapse to one partition
/// reproduce the pre-sharding fleet-path trajectories bit-for-bit; higher
/// partitions get streams decorrelated by an odd-multiplier avalanche.
fn partition_rng(env_seed: u64, partition: usize) -> StdRng {
    if partition == 0 {
        return StdRng::seed_from_u64(env_seed);
    }
    let mixed = splitmix64(env_seed ^ 0x6C62_272E_07BB_0142)
        ^ (partition as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    StdRng::seed_from_u64(splitmix64(mixed))
}

/// Union-find over dense network indices, used once at construction to
/// compute the independent components of the network/area/mobility graph.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Per-network share state of one feedback partition, indexed by the
/// position of the network in the partition's owned-network list.
#[derive(Debug, Default)]
struct ShareState {
    load: Vec<usize>,
    shares: Vec<Vec<f64>>,
    next_share_index: Vec<usize>,
}

impl ShareState {
    fn new(networks: usize) -> Self {
        ShareState {
            load: vec![0; networks],
            shares: vec![Vec::new(); networks],
            next_share_index: vec![0; networks],
        }
    }
}

/// One independent feedback partition: a contiguous session range, the
/// networks only those sessions can ever load, and every per-slot buffer
/// grading them needs. All buffers persist across slots, so partitioned
/// grading allocates nothing in steady state.
struct FeedbackPartition {
    range: SessionRange,
    /// Dense universe indices of the networks this partition owns, ascending.
    networks: Vec<usize>,
    state: ShareState,
    /// `(global session index, chosen)` of this slot's graded choices and
    /// their queued selection records — populated only when a recorder is
    /// attached, then reduced into the global buffers in partition order.
    choices: Vec<(usize, NetworkId)>,
    records: Vec<SelectionRecord>,
    full_gains_pool: Vec<Vec<(NetworkId, f64)>>,
    /// Streaming telemetry accumulated while grading — filled only when the
    /// environment has telemetry enabled, then merged across partitions in
    /// canonical partition order by the sequential reduce.
    metrics: SlotMetrics,
}

/// The immutable world tables grading reads — split out so partition jobs
/// can share them while each owns its mutable state.
struct GradeTables<'a> {
    config: &'a SimulationConfig,
    universe: &'a [NetworkId],
    bandwidth_by_index: &'a [f64],
    delay_models: &'a BTreeMap<NetworkId, DelayModel>,
    gain_scale: f64,
}

/// Advances one device's life-cycle state (activity, mobility, visibility)
/// into `slot` — the canonical per-session slot refresh, shared by the
/// sequential [`refresh_visibility`](CongestionEnvironment::refresh_visibility)
/// wrapper and the partitioned `begin_slot` jobs (it touches only the
/// device's own state plus the immutable area tables, so partitions can run
/// it concurrently without an RNG or any cross-session coupling).
fn refresh_device(
    profile: &DeviceProfile,
    device: &mut DeviceDyn,
    cache: &mut VisibilityCache,
    area_index: &[(AreaId, usize)],
    area_networks: &[(AreaId, Vec<NetworkId>)],
    slot: usize,
) -> VisibilityUpdate {
    if !profile.is_active_at(slot) {
        device.was_active = false;
        device.active_now = false;
        return VisibilityUpdate::Inactive;
    }
    device.active_now = true;
    let area = profile.area_at(slot);
    if device.was_active && cache.area == Some(area) {
        // The device stayed in the area its visible list was copied from and
        // area lists are fixed for the environment's lifetime, so the O(K)
        // list comparison below is guaranteed to report Unchanged.
        return VisibilityUpdate::Unchanged;
    }
    let visible: &[NetworkId] = area_index
        .binary_search_by_key(&area, |&(a, _)| a)
        .ok()
        .map_or(&[], |found| area_networks[area_index[found].1].1.as_slice());
    let mut update = VisibilityUpdate::Unchanged;
    if device.available != visible {
        update = if device.available.is_empty() && !device.was_active {
            VisibilityUpdate::FirstActivation
        } else {
            VisibilityUpdate::Changed
        };
        device.available.clear();
        device.available.extend_from_slice(visible);
        cache.sorted = is_ascending(&device.available);
        if let Some(current) = device.current {
            if !sees(&device.available, cache.sorted, current) {
                device.current = None;
            }
        }
    }
    cache.area = Some(area);
    device.was_active = true;
    update
}

/// `true` when a device's visible set differs (as a set) from the networks
/// its policy was built over — the fleet-engine analogue of the legacy
/// first-activation policy introspection.
fn differs_from_home(profile: &DeviceProfile, device: &DeviceDyn) -> bool {
    let home = &profile.home_networks;
    let available = &device.available;
    if available.len() != home.len() {
        return true;
    }
    if is_ascending(home) {
        !available.iter().all(|n| home.binary_search(n).is_ok())
    } else {
        !available.iter().all(|n| home.contains(n))
    }
}

/// Returns a consumed observation's counterfactual-gain buffer to `pool`.
fn recycle_full_gains(observation: Observation, pool: &mut Vec<Vec<(NetworkId, f64)>>) {
    if let Some(mut gains) = observation.full_gains {
        gains.clear();
        pool.push(gains);
    }
}

/// Grades one session's chosen network: pulls its bandwidth share from the
/// partition's share queues, samples the switching delay from `rng`, updates
/// goodput accounting and attaches counterfactual gains for full-information
/// devices. The canonical feedback computation — the legacy shared-RNG
/// driver, the sequential fallback and the partitioned path all funnel
/// through here.
#[allow(clippy::too_many_arguments)]
fn grade_session(
    tables: &GradeTables<'_>,
    networks: &[usize],
    state: &mut ShareState,
    rng: &mut dyn RngCore,
    pool: &mut Vec<Vec<(NetworkId, f64)>>,
    profile: &DeviceProfile,
    device: &mut DeviceDyn,
    available_sorted: bool,
    chosen: NetworkId,
    slot: SlotIndex,
) -> Observation {
    let valid = sees(&device.available, available_sorted, chosen);
    let dense = tables.universe.binary_search(&chosen).ok();
    let local = dense.and_then(|d| networks.binary_search(&d).ok());
    let observed_rate = match local {
        Some(j) if valid => {
            let share = state.shares[j]
                .get(state.next_share_index[j])
                .copied()
                .unwrap_or(0.0);
            state.next_share_index[j] += 1;
            share
        }
        _ => 0.0,
    };

    let switched = match device.current {
        Some(previous) => previous != chosen,
        None => false,
    };
    let delay = if switched {
        let model = tables
            .delay_models
            .get(&chosen)
            .copied()
            .unwrap_or(DelayModel::None);
        model.sample(tables.config.slot_duration_s, rng)
    } else {
        0.0
    };
    if switched {
        device.switches += 1;
        device.total_delay_seconds += delay;
    }
    device.current = Some(chosen);
    device.active_slots += 1;
    device.download_megabits += observed_rate * (tables.config.slot_duration_s - delay).max(0.0);

    let scaled_gain = (observed_rate / tables.gain_scale).clamp(0.0, 1.0);
    let mut observation = Observation {
        slot,
        network: chosen,
        bit_rate_mbps: observed_rate,
        scaled_gain,
        switched,
        switching_delay_s: delay,
        full_gains: None,
    };
    if profile.needs_full_information {
        // Counterfactual scaled gains: the share the device *would* have
        // observed on each visible network this slot, given the other
        // devices' choices. Backing buffers are pooled across slots.
        let mut gains = pool.pop().unwrap_or_default();
        gains.clear();
        gains.extend(device.available.iter().map(|&network| {
            let dense = tables.universe.binary_search(&network).ok();
            let bandwidth = dense.map_or(0.0, |d| tables.bandwidth_by_index[d]);
            let local = dense.and_then(|d| networks.binary_search(&d).ok());
            let others = local.map_or(0, |j| state.load[j]) - usize::from(network == chosen);
            let rate = bandwidth / (others + 1) as f64;
            (network, (rate / tables.gain_scale).clamp(0.0, 1.0))
        }));
        observation.full_gains = Some(gains);
    }
    observation
}

impl FeedbackPartition {
    /// Runs one full feedback slot for this partition: load registration,
    /// share computation (owned networks in ascending dense order) and
    /// grading, all in canonical session order with `rng` as the partition's
    /// stream. `choices`, `profiles`, `devices` and `out` are this
    /// partition's slices of the fleet-wide buffers.
    #[allow(clippy::too_many_arguments)]
    fn run_slot(
        &mut self,
        tables: &GradeTables<'_>,
        rng: &mut StdRng,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        profiles: &[DeviceProfile],
        devices: &mut [DeviceDyn],
        visibility: &[VisibilityCache],
        out: &mut [Option<Observation>],
        record: bool,
        telemetry: bool,
    ) {
        self.choices.clear();
        self.records.clear();
        if telemetry {
            self.metrics.clear();
        }
        self.state.load.fill(0);
        let mut graded = 0usize;
        for (i, choice) in choices.iter().enumerate() {
            match choice {
                Some(chosen) => {
                    graded += 1;
                    if sees(&devices[i].available, visibility[i].sorted, *chosen) {
                        if let Ok(dense) = tables.universe.binary_search(chosen) {
                            if let Ok(local) = self.networks.binary_search(&dense) {
                                self.state.load[local] += 1;
                            }
                        }
                    }
                }
                None => {
                    if let Some(stale) = out[i].take() {
                        recycle_full_gains(stale, &mut self.full_gains_pool);
                    }
                }
            }
        }
        for j in 0..self.networks.len() {
            self.state.next_share_index[j] = 0;
            self.state.shares[j].clear();
            if self.state.load[j] > 0 {
                tables.config.sharing.shares_into(
                    tables.bandwidth_by_index[self.networks[j]],
                    self.state.load[j],
                    rng,
                    &mut self.state.shares[j],
                );
            }
        }
        // Definition-4 fair share for this partition's area: the bandwidth
        // the partition owns, split evenly over the sessions graded this
        // slot (the streaming analogue of the recorder's
        // `distance_from_average_bit_rate`).
        let fair_share = if telemetry && graded > 0 {
            let aggregate: f64 = self
                .networks
                .iter()
                .map(|&dense| tables.bandwidth_by_index[dense])
                .sum();
            aggregate / graded as f64
        } else {
            0.0
        };
        let mut shortfall_sum = 0.0;
        for (i, choice) in choices.iter().enumerate() {
            let Some(chosen) = *choice else { continue };
            if let Some(previous) = out[i].take() {
                recycle_full_gains(previous, &mut self.full_gains_pool);
            }
            let observation = grade_session(
                tables,
                &self.networks,
                &mut self.state,
                rng,
                &mut self.full_gains_pool,
                &profiles[i],
                &mut devices[i],
                visibility[i].sorted,
                chosen,
                slot,
            );
            if telemetry {
                self.metrics.record_session(
                    observation.bit_rate_mbps,
                    observation.scaled_gain,
                    observation.switched,
                );
                if fair_share > 0.0 {
                    shortfall_sum +=
                        (fair_share - observation.bit_rate_mbps).max(0.0) * 100.0 / fair_share;
                }
            }
            if record {
                self.choices.push((self.range.start + i, chosen));
                self.records.push(SelectionRecord {
                    device: profiles[i].id,
                    network: chosen,
                    rate_mbps: observation.bit_rate_mbps,
                    top_choice: (chosen, 1.0),
                });
            }
            out[i] = Some(observation);
        }
        if telemetry && graded > 0 {
            self.metrics.finish_area(shortfall_sum / graded as f64);
        }
    }
}

/// Derives the feedback partitions: session ranges plus each range's owned
/// dense network indices. Falls back to a single all-covering partition when
/// any component's sessions are not one contiguous range.
fn build_partitions(
    universe: &[NetworkId],
    area_networks: &[(AreaId, Vec<NetworkId>)],
    area_index: &[(AreaId, usize)],
    profiles: &[DeviceProfile],
) -> (Vec<SessionRange>, Vec<Vec<usize>>) {
    let sessions = profiles.len();
    let single = || {
        (
            vec![SessionRange::new(0, sessions)],
            vec![(0..universe.len()).collect::<Vec<usize>>()],
        )
    };

    let dense_of = |network: NetworkId| universe.binary_search(&network).ok();
    let networks_in = |area: AreaId| -> &[NetworkId] {
        area_index
            .binary_search_by_key(&area, |&(a, _)| a)
            .ok()
            .map_or(&[], |found| area_networks[area_index[found].1].1.as_slice())
    };

    // Components: areas merge their networks; a walking device merges every
    // area on its route.
    let mut components = UnionFind::new(universe.len());
    for (_, networks) in area_networks {
        let mut first = None;
        for &network in networks {
            let Some(dense) = dense_of(network) else {
                continue;
            };
            match first {
                None => first = Some(dense),
                Some(anchor) => components.union(anchor, dense),
            }
        }
    }
    let mut anchors = Vec::with_capacity(sessions);
    for profile in profiles {
        let mut anchor: Option<usize> = None;
        let areas = std::iter::once(profile.area).chain(profile.moves.iter().map(|&(_, a)| a));
        for area in areas {
            let Some(&network) = networks_in(area).first() else {
                continue;
            };
            let Some(dense) = dense_of(network) else {
                continue;
            };
            match anchor {
                None => anchor = Some(dense),
                Some(existing) => components.union(existing, dense),
            }
        }
        anchors.push(anchor);
    }
    // Canonical component per session (computed after all unions).
    let comps: Vec<Option<usize>> = anchors
        .into_iter()
        .map(|anchor| anchor.map(|dense| components.find(dense)))
        .collect();

    // Group sessions into contiguous runs of one component each. Sessions
    // seeing no network at all are wildcards: they join whatever run is open.
    let mut runs: Vec<(Option<usize>, usize)> = Vec::new();
    for (session, &comp) in comps.iter().enumerate() {
        match runs.last_mut() {
            None => runs.push((comp, session)),
            Some((owner, _)) => match (*owner, comp) {
                (_, None) => {}
                (None, Some(c)) => *owner = Some(c),
                (Some(a), Some(c)) if a == c => {}
                (Some(_), Some(c)) => runs.push((Some(c), session)),
            },
        }
    }
    if runs.is_empty() {
        runs.push((None, 0));
    }
    // A component split across non-adjacent runs would share network state
    // between partitions — fall back to the single covering partition.
    let mut seen: Vec<usize> = runs.iter().filter_map(|&(owner, _)| owner).collect();
    seen.sort_unstable();
    let distinct = {
        let before = seen.len();
        seen.dedup();
        seen.len() == before
    };
    if !distinct {
        return single();
    }

    let ranges: Vec<SessionRange> = runs
        .iter()
        .enumerate()
        .map(|(i, &(_, start))| {
            let end = runs.get(i + 1).map_or(sessions, |&(_, next)| next);
            SessionRange::new(start, end)
        })
        .collect();

    // Assign every network to its component's partition; components without
    // sessions (and event-only networks) land in partition 0 — they can
    // never be loaded, so ownership only has to be total, not meaningful.
    let owner_of: BTreeMap<usize, usize> = runs
        .iter()
        .enumerate()
        .filter_map(|(partition, &(owner, _))| owner.map(|component| (component, partition)))
        .collect();
    let mut networks: Vec<Vec<usize>> = vec![Vec::new(); ranges.len()];
    for dense in 0..universe.len() {
        let component = components.find(dense);
        let partition = owner_of.get(&component).copied().unwrap_or(0);
        networks[partition].push(dense);
    }
    (ranges, networks)
}

/// The shared-bandwidth congestion world of the paper, as an
/// [`Environment`]: topology-scoped visibility, mobility walks, activity
/// windows, scheduled bandwidth events, equal-share or noisy bandwidth
/// sharing, technology-dependent switching delays and per-device goodput
/// accounting — partitioned per independent area for the sharded feedback
/// path. See the `env` module documentation.
pub struct CongestionEnvironment {
    config: SimulationConfig,
    profiles: Vec<DeviceProfile>,
    devices: Vec<DeviceDyn>,
    /// Derived per-device visibility bookkeeping, parallel to `devices`
    /// (not serialized; see [`VisibilityCache`]).
    visibility: Vec<VisibilityCache>,
    schedule: EventSchedule,
    gain_scale: f64,
    /// Dense network index: every id the run can encounter, ascending.
    universe: Vec<NetworkId>,
    bandwidths: BTreeMap<NetworkId, f64>,
    bandwidth_by_index: Vec<f64>,
    delay_models: BTreeMap<NetworkId, DelayModel>,
    area_networks: Vec<(AreaId, Vec<NetworkId>)>,
    /// Sorted `(area id, index into area_networks)` lookup — visibility
    /// refresh runs per active device per slot, so it must not scan the
    /// (possibly tens-of-thousands-entry) area list linearly. Keeps the
    /// *first* entry per id, matching the linear `find` it replaces.
    area_index: Vec<(AreaId, usize)>,
    game: ResourceSelectionGame,
    recorder: Option<RunRecorder>,
    /// Independent feedback partitions (always at least one; a world that
    /// does not split has a single partition covering every session).
    partitions: Vec<FeedbackPartition>,
    /// One RNG stream per partition (share noise, switching delays on the
    /// fleet path), kept outside [`FeedbackPartition`] so the legacy driver
    /// can grade with its own shared RNG against the same share state.
    partition_rngs: Vec<StdRng>,
    /// The partitions' session ranges, in partition order (the
    /// [`Environment::feedback_partitions`] view).
    ranges: Vec<SessionRange>,
    /// Dense universe index → `(partition, local index)` — the legacy
    /// driver's global-network-order share pass routes through this.
    network_home: Vec<(u32, u32)>,
    // Global buffers for the legacy sequential driver and the recorder
    // reduce (cleared, never reallocated in steady state).
    choices: Vec<(usize, NetworkId)>,
    records: Vec<SelectionRecord>,
    full_gains_pool: Vec<Vec<(NetworkId, f64)>>,
    /// Every slot at which environment state changes independently of
    /// session wakes — bandwidth events, device activations/departures,
    /// scheduled moves — sorted ascending and deduplicated. Drives
    /// [`Environment::next_env_event`] so the event engine materialises
    /// these timestamps even when no session is due. Static (derived from
    /// the scenario definition), so not part of the checkpointable state.
    event_slots: Vec<usize>,
    /// Whether partitions accumulate streaming telemetry while grading.
    telemetry_enabled: bool,
    /// Last slot's fleet-level metrics: the per-partition accumulators merged
    /// in canonical partition order (so the series is identical at any
    /// thread count and with partitioning on or off).
    slot_metrics: SlotMetrics,
}

impl CongestionEnvironment {
    /// Builds the environment.
    ///
    /// `env_seed` seeds the environment's own per-partition RNG streams
    /// (used only on the fleet-engine path; the sequential driver supplies
    /// its shared RNG).
    ///
    /// # Panics
    ///
    /// Panics if `networks` is empty (a world without networks is a
    /// programming error in the scenario definition, not a data condition).
    #[must_use]
    pub fn new(
        networks: Vec<NetworkSpec>,
        topology: Topology,
        events: Vec<BandwidthEvent>,
        profiles: Vec<DeviceProfile>,
        config: SimulationConfig,
        env_seed: u64,
    ) -> Self {
        assert!(
            !networks.is_empty(),
            "a congestion environment needs at least one network"
        );
        let bandwidths: BTreeMap<NetworkId, f64> =
            networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
        let delay_models: BTreeMap<NetworkId, DelayModel> =
            networks.iter().map(|n| (n.id, n.delay_model())).collect();
        let gain_scale = config.gain_scale_mbps.unwrap_or_else(|| {
            networks
                .iter()
                .map(|n| n.bandwidth_mbps)
                .fold(1e-9, f64::max)
        });

        let mut universe: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
        universe.extend(events.iter().map(|e| e.network));
        for area in topology.areas() {
            universe.extend(topology.networks_in(area.id));
        }
        universe.sort_unstable();
        universe.dedup();

        let area_networks: Vec<(AreaId, Vec<NetworkId>)> = topology
            .areas()
            .iter()
            .map(|a| (a.id, topology.networks_in(a.id)))
            .collect();
        let mut area_index: Vec<(AreaId, usize)> = area_networks
            .iter()
            .enumerate()
            .map(|(index, (area, _))| (*area, index))
            .collect();
        area_index.sort_by_key(|&(area, _)| area);
        // On duplicate area ids, keep the first occurrence — the semantics
        // of the linear scan this index replaces.
        area_index.dedup_by_key(|&mut (area, _)| area);

        let game = ResourceSelectionGame::new(bandwidths.iter().map(|(&n, &r)| (n, r)));
        let network_count = universe.len();
        let mut bandwidth_by_index = vec![0.0; network_count];
        for (i, &network) in universe.iter().enumerate() {
            bandwidth_by_index[i] = bandwidths.get(&network).copied().unwrap_or(0.0);
        }
        let devices = vec![DeviceDyn::default(); profiles.len()];

        let (ranges, partition_networks) =
            build_partitions(&universe, &area_networks, &area_index, &profiles);
        let mut network_home = vec![(0u32, 0u32); network_count];
        for (partition, networks) in partition_networks.iter().enumerate() {
            for (local, &dense) in networks.iter().enumerate() {
                network_home[dense] = (partition as u32, local as u32);
            }
        }
        let partitions: Vec<FeedbackPartition> = ranges
            .iter()
            .zip(partition_networks)
            .map(|(&range, networks)| FeedbackPartition {
                range,
                state: ShareState::new(networks.len()),
                networks,
                choices: Vec::new(),
                records: Vec::new(),
                full_gains_pool: Vec::new(),
                metrics: SlotMetrics::new(),
            })
            .collect();
        let partition_rngs = (0..partitions.len())
            .map(|partition| partition_rng(env_seed, partition))
            .collect();

        let mut event_slots: Vec<usize> = events.iter().map(|e| e.at_slot).collect();
        for profile in &profiles {
            if profile.active_from > 0 {
                event_slots.push(profile.active_from);
            }
            if let Some(until) = profile.active_until {
                event_slots.push(until);
            }
            event_slots.extend(profile.moves.iter().map(|&(slot, _)| slot));
        }
        event_slots.sort_unstable();
        event_slots.dedup();

        CongestionEnvironment {
            config,
            visibility: vec![VisibilityCache::default(); profiles.len()],
            profiles,
            devices,
            schedule: EventSchedule::new(events),
            gain_scale,
            universe,
            bandwidths,
            bandwidth_by_index,
            delay_models,
            area_networks,
            area_index,
            game,
            recorder: None,
            partitions,
            partition_rngs,
            ranges,
            network_home,
            choices: Vec::new(),
            records: Vec::new(),
            full_gains_pool: Vec::new(),
            event_slots,
            telemetry_enabled: false,
            slot_metrics: SlotMetrics::new(),
        }
    }

    /// Enables the paper-metrics recorder (distance to Nash, stable-state
    /// detection, …). Recorded environments cannot be checkpointed — the
    /// recorder accumulates whole-run series — so fleet-scale scenarios
    /// leave it off and use streaming telemetry
    /// ([`Environment::set_telemetry`]) instead.
    ///
    /// # Panics
    ///
    /// Panics when the environment hosts more than
    /// [`DENSE_RECORDER_MAX_SESSIONS`](crate::DENSE_RECORDER_MAX_SESSIONS)
    /// sessions: the dense recorder keeps per-session, per-slot state, so
    /// attaching it to a fleet is a programming error, not a data condition.
    #[must_use]
    pub fn with_recorder(mut self) -> Self {
        assert!(
            self.profiles.len() <= crate::DENSE_RECORDER_MAX_SESSIONS,
            "dense recorder rejected: {} sessions exceeds DENSE_RECORDER_MAX_SESSIONS ({}); \
             use streaming telemetry (Environment::set_telemetry) for fleet-scale runs",
            self.profiles.len(),
            crate::DENSE_RECORDER_MAX_SESSIONS,
        );
        self.recorder = Some(RunRecorder::new(
            self.profiles.len(),
            self.config.slot_duration_s,
            self.config.stable_probability_threshold,
            self.config.epsilon_percent,
            self.config.keep_selections,
        ));
        self
    }

    /// The device profiles, in session order.
    #[must_use]
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// The current congestion game (capacities after the events fired so
    /// far).
    #[must_use]
    pub fn game(&self) -> &ResourceSelectionGame {
        &self.game
    }

    /// The gain scale (bit rate mapping to a scaled gain of 1.0).
    #[must_use]
    pub fn gain_scale(&self) -> f64 {
        self.gain_scale
    }

    /// The networks session `index` can currently see.
    #[must_use]
    pub fn available(&self, index: usize) -> &[NetworkId] {
        &self.devices[index].available
    }

    /// Builds the [`DeviceOutcome`] of session `index` from the
    /// environment's accounting plus the driver-known policy identity.
    #[must_use]
    pub fn outcome(&self, index: usize, policy_name: String, resets: u64) -> DeviceOutcome {
        let device = &self.devices[index];
        DeviceOutcome {
            id: self.profiles[index].id,
            policy_name,
            download_megabits: device.download_megabits,
            switches: device.switches,
            resets,
            active_slots: device.active_slots,
            total_delay_seconds: device.total_delay_seconds,
        }
    }

    /// Finalises the recorder into a [`RunResult`], or `None` when the
    /// environment was built without one.
    #[must_use]
    pub fn into_result(mut self, outcomes: Vec<DeviceOutcome>) -> Option<RunResult> {
        self.recorder
            .take()
            .map(|recorder| recorder.finish(&self.game, outcomes))
    }

    /// The partition owning session `index` (ranges tile the session space,
    /// so the lookup is a binary search over range ends).
    fn partition_of(&self, index: usize) -> usize {
        self.ranges.partition_point(|range| range.end <= index)
    }

    // ------------------------------------------------------------------
    // Phase methods, shared by the sequential driver and the trait impl.
    // ------------------------------------------------------------------

    /// Applies the bandwidth events due at `slot`; the game and the dense
    /// capacity table are only rebuilt when one fired.
    pub(crate) fn apply_due_events(&mut self, slot: usize) {
        let due = self.schedule.due(slot);
        if due.is_empty() {
            return;
        }
        for event in due {
            self.bandwidths
                .insert(event.network, event.new_bandwidth_mbps);
        }
        self.game = ResourceSelectionGame::new(self.bandwidths.iter().map(|(&n, &r)| (n, r)));
        for (i, &network) in self.universe.iter().enumerate() {
            self.bandwidth_by_index[i] = self.bandwidths.get(&network).copied().unwrap_or(0.0);
        }
    }

    /// Advances device `index`'s life-cycle state (activity, mobility,
    /// visibility) into `slot` and reports what changed. After a `Changed` /
    /// `FirstActivation` the new visible set is [`available`](Self::available).
    pub(crate) fn refresh_visibility(&mut self, index: usize, slot: usize) -> VisibilityUpdate {
        refresh_device(
            &self.profiles[index],
            &mut self.devices[index],
            &mut self.visibility[index],
            &self.area_index,
            &self.area_networks,
            slot,
        )
    }

    /// Opens the selection phase of a slot.
    pub(crate) fn begin_choices(&mut self) {
        self.choices.clear();
        self.records.clear();
        for partition in &mut self.partitions {
            partition.state.load.fill(0);
        }
    }

    /// Registers the choice of active device `index` (valid or not) and
    /// accounts its load.
    pub(crate) fn register_choice(&mut self, index: usize, chosen: NetworkId) {
        if sees(
            &self.devices[index].available,
            self.visibility[index].sorted,
            chosen,
        ) {
            if let Ok(dense) = self.universe.binary_search(&chosen) {
                let (partition, local) = self.network_home[dense];
                self.partitions[partition as usize].state.load[local as usize] += 1;
            }
        }
        self.choices.push((index, chosen));
    }

    /// Splits every loaded network's bandwidth among its devices (ascending
    /// network id, matching the historical RNG draw order — the legacy
    /// driver's one shared stream walks the whole universe, regardless of
    /// which partition owns each network).
    pub(crate) fn compute_shares(&mut self, rng: &mut dyn RngCore) {
        for dense in 0..self.universe.len() {
            let (partition, local) = self.network_home[dense];
            let state = &mut self.partitions[partition as usize].state;
            let local = local as usize;
            state.next_share_index[local] = 0;
            state.shares[local].clear();
            if state.load[local] > 0 {
                self.config.sharing.shares_into(
                    self.bandwidth_by_index[dense],
                    state.load[local],
                    rng,
                    &mut state.shares[local],
                );
            }
        }
    }

    /// Number of choices registered this slot.
    pub(crate) fn choice_count(&self) -> usize {
        self.choices.len()
    }

    /// The `k`-th registered choice: `(session index, chosen network)`.
    pub(crate) fn choice_at(&self, k: usize) -> (usize, NetworkId) {
        self.choices[k]
    }

    /// Grades the `k`-th registered choice: bandwidth share, switching delay
    /// (sampled from `rng`), goodput accounting and — for full-information
    /// devices — counterfactual gains. Also queues the selection record when
    /// a recorder is attached (its `top_choice` is a placeholder until
    /// [`record_top`](Self::record_top) / the end-of-slot hook fills it).
    pub(crate) fn grade(
        &mut self,
        k: usize,
        slot: SlotIndex,
        rng: &mut dyn RngCore,
    ) -> Observation {
        let (index, chosen) = self.choices[k];
        let partition = self.partition_of(index);
        let tables = GradeTables {
            config: &self.config,
            universe: &self.universe,
            bandwidth_by_index: &self.bandwidth_by_index,
            delay_models: &self.delay_models,
            gain_scale: self.gain_scale,
        };
        let partition = &mut self.partitions[partition];
        let observation = grade_session(
            &tables,
            &partition.networks,
            &mut partition.state,
            rng,
            &mut self.full_gains_pool,
            &self.profiles[index],
            &mut self.devices[index],
            self.visibility[index].sorted,
            chosen,
            slot,
        );
        if self.recorder.is_some() {
            self.records.push(SelectionRecord {
                device: self.profiles[index].id,
                network: chosen,
                rate_mbps: observation.bit_rate_mbps,
                top_choice: (chosen, 1.0),
            });
        }
        observation
    }

    /// Reclaims the pooled allocations of a consumed observation.
    pub(crate) fn recycle_observation(&mut self, observation: Observation) {
        recycle_full_gains(observation, &mut self.full_gains_pool);
    }

    /// Fills the `k`-th selection record's most-probable-network field
    /// (stable-state detection input).
    pub(crate) fn record_top(&mut self, k: usize, top: (NetworkId, f64)) {
        if let Some(record) = self.records.get_mut(k) {
            record.top_choice = top;
        }
    }

    /// Closes the slot: feeds the queued records to the recorder.
    pub(crate) fn finish_slot(&mut self) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record_slot(&self.game, &self.records);
        }
    }
}

impl Environment for CongestionEnvironment {
    fn sessions(&self) -> usize {
        self.profiles.len()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        // The sequential path is the partitioned computation run in
        // partition order on the calling thread — bit-identical to any
        // parallel execution because the refresh is RNG-free and touches
        // only per-session state.
        self.begin_slot_partitioned(slot, &SequentialExecutor);
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        self.apply_due_events(slot);
        let CongestionEnvironment {
            profiles,
            devices,
            visibility,
            area_index,
            area_networks,
            ranges,
            ..
        } = self;
        let area_index: &[(AreaId, usize)] = area_index;
        let area_networks: &[(AreaId, Vec<NetworkId>)] = area_networks;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(ranges.len());
        let mut devices_rest: &mut [DeviceDyn] = devices;
        let mut visibility_rest: &mut [VisibilityCache] = visibility;
        let mut profiles_rest: &[DeviceProfile] = profiles;
        for range in ranges.iter() {
            let len = range.len();
            let (job_devices, rest) = devices_rest.split_at_mut(len);
            devices_rest = rest;
            let (job_visibility, rest) = visibility_rest.split_at_mut(len);
            visibility_rest = rest;
            let (job_profiles, rest) = profiles_rest.split_at(len);
            profiles_rest = rest;
            jobs.push(Box::new(move || {
                for ((profile, device), cache) in job_profiles
                    .iter()
                    .zip(job_devices.iter_mut())
                    .zip(job_visibility.iter_mut())
                {
                    let pending = match refresh_device(
                        profile,
                        device,
                        cache,
                        area_index,
                        area_networks,
                        slot,
                    ) {
                        VisibilityUpdate::Inactive | VisibilityUpdate::Unchanged => false,
                        VisibilityUpdate::Changed => true,
                        VisibilityUpdate::FirstActivation => differs_from_home(profile, device),
                    };
                    device.pending_change = pending;
                }
            }));
        }
        executor.run(jobs);
    }

    fn session_view(&self, session: usize, _slot: SlotIndex) -> SessionView<'_> {
        let device = &self.devices[session];
        SessionView {
            active: device.active_now,
            networks_changed: device.pending_change.then_some(device.available.as_slice()),
        }
    }

    fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
        let index = self.event_slots.partition_point(|&slot| slot < from);
        self.event_slots.get(index).copied()
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        // The sequential fallback is the partitioned computation run in
        // partition order on the calling thread — decision-for-decision
        // identical to any parallel execution by construction.
        self.feedback_partitioned(slot, choices, out, &SequentialExecutor);
    }

    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        Some(&self.ranges)
    }

    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        let record = self.recorder.is_some();
        let telemetry = self.telemetry_enabled;
        let CongestionEnvironment {
            partitions,
            partition_rngs,
            devices,
            visibility,
            profiles,
            config,
            universe,
            bandwidth_by_index,
            delay_models,
            gain_scale,
            choices: global_choices,
            records: global_records,
            slot_metrics,
            ..
        } = self;
        let tables = GradeTables {
            config,
            universe,
            bandwidth_by_index,
            delay_models,
            gain_scale: *gain_scale,
        };
        let tables = &tables;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(partitions.len());
        let mut devices_rest: &mut [DeviceDyn] = devices;
        let mut out_rest: &mut [Option<Observation>] = out;
        let mut choices_rest: &[Option<NetworkId>] = choices;
        let mut profiles_rest: &[DeviceProfile] = profiles;
        let mut visibility_rest: &[VisibilityCache] = visibility;
        for (partition, rng) in partitions.iter_mut().zip(partition_rngs.iter_mut()) {
            let len = partition.range.len();
            let (job_devices, rest) = devices_rest.split_at_mut(len);
            devices_rest = rest;
            let (job_out, rest) = out_rest.split_at_mut(len);
            out_rest = rest;
            let (job_choices, rest) = choices_rest.split_at(len);
            choices_rest = rest;
            let (job_profiles, rest) = profiles_rest.split_at(len);
            profiles_rest = rest;
            let (job_visibility, rest) = visibility_rest.split_at(len);
            visibility_rest = rest;
            jobs.push(Box::new(move || {
                partition.run_slot(
                    tables,
                    rng,
                    slot,
                    job_choices,
                    job_profiles,
                    job_devices,
                    job_visibility,
                    job_out,
                    record,
                    telemetry,
                );
            }));
        }
        executor.run(jobs);

        // Sequential cross-partition reduce: the recorder consumes selection
        // records in global session order, which is partition order by
        // construction (ranges tile the session space ascending).
        global_choices.clear();
        global_records.clear();
        if record {
            for partition in partitions.iter() {
                global_choices.extend_from_slice(&partition.choices);
                global_records.extend_from_slice(&partition.records);
            }
        }
        // Telemetry merge runs in the same canonical partition order, so the
        // f64 sums (and hence the exported series) are independent of which
        // worker graded which partition.
        if telemetry {
            slot_metrics.clear();
            for partition in partitions.iter() {
                slot_metrics.merge(&partition.metrics);
            }
        }
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        self.telemetry_enabled = enabled;
        if !enabled {
            self.slot_metrics.clear();
        }
        true
    }

    fn telemetry(&self) -> Option<&SlotMetrics> {
        self.telemetry_enabled.then_some(&self.slot_metrics)
    }

    fn wants_top_choices(&self) -> bool {
        self.recorder.is_some()
    }

    fn end_slot(
        &mut self,
        _slot: SlotIndex,
        _choices: &[Option<NetworkId>],
        tops: &[Option<(NetworkId, f64)>],
    ) {
        if self.recorder.is_some() {
            for k in 0..self.records.len() {
                let (index, chosen) = self.choices[k];
                let top = tops.get(index).copied().flatten().unwrap_or((chosen, 1.0));
                self.records[k].top_choice = top;
            }
        }
        self.finish_slot();
    }

    fn state(&self) -> Option<String> {
        if self.recorder.is_some() {
            // The recorder accumulates whole-run series; checkpointing is a
            // fleet-scale (recorder-less) feature.
            return None;
        }
        let state = CongestionEnvState {
            bandwidths: self.bandwidths.iter().map(|(&n, &b)| (n, b)).collect(),
            cursor: self.schedule.cursor(),
            rngs: self.partition_rngs.iter().map(StdRng::state).collect(),
            devices: self.devices.clone(),
        };
        serde_json::to_string(&state).ok()
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        if self.recorder.is_some() {
            // Symmetric with `state()`: a recorder only saw the slots since
            // the restore point, so its whole-run metrics would silently
            // misreport the resumed run.
            return Err(EnvStateError(
                "recorder-equipped environments cannot be restored (the recorder \
                 cannot reconstruct the slots before the checkpoint)"
                    .to_string(),
            ));
        }
        let state: CongestionEnvState = serde_json::from_str(state)
            .map_err(|error| EnvStateError(format!("unparseable congestion state: {error}")))?;
        if state.devices.len() != self.profiles.len() {
            return Err(EnvStateError(format!(
                "state describes {} devices, environment hosts {}",
                state.devices.len(),
                self.profiles.len()
            )));
        }
        if state.rngs.len() != self.partitions.len() {
            return Err(EnvStateError(format!(
                "state carries {} partition RNG streams, environment has {} partitions",
                state.rngs.len(),
                self.partitions.len()
            )));
        }
        if state.cursor > self.schedule.len() {
            return Err(EnvStateError(format!(
                "event cursor {} exceeds schedule of {} events",
                state.cursor,
                self.schedule.len()
            )));
        }
        self.bandwidths = state.bandwidths.into_iter().collect();
        self.schedule.set_cursor(state.cursor);
        self.partition_rngs = state.rngs.into_iter().map(StdRng::from_state).collect();
        self.devices = state.devices;
        // The visibility cache is derived data: recompute sortedness from the
        // restored lists and drop the area memo, so the next refresh falls
        // back to the (historical) full list comparison.
        self.visibility = self
            .devices
            .iter()
            .map(|device| VisibilityCache {
                area: None,
                sorted: is_ascending(&device.available),
            })
            .collect();
        self.game = ResourceSelectionGame::new(self.bandwidths.iter().map(|(&n, &r)| (n, r)));
        for (i, &network) in self.universe.iter().enumerate() {
            self.bandwidth_by_index[i] = self.bandwidths.get(&network).copied().unwrap_or(0.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::setting1_networks;
    use crate::topology::ServiceArea;

    fn profiles(count: usize) -> Vec<DeviceProfile> {
        let home: Vec<NetworkId> = setting1_networks().iter().map(|n| n.id).collect();
        (0..count)
            .map(|id| DeviceProfile::new(id as u32, AreaId(0), home.clone()))
            .collect()
    }

    fn environment(devices: usize, events: Vec<BandwidthEvent>) -> CongestionEnvironment {
        let networks = setting1_networks();
        let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
        CongestionEnvironment::new(
            networks,
            Topology::single_area(&ids),
            events,
            profiles(devices),
            SimulationConfig::quick(50),
            9,
        )
    }

    #[test]
    fn profile_schedule_mirrors_device_setup_semantics() {
        let profile = DeviceProfile::new(0, AreaId(0), vec![NetworkId(0)])
            .active_between(10, Some(20))
            .moving_to(15, AreaId(1));
        assert!(!profile.is_active_at(9));
        assert!(profile.is_active_at(10));
        assert!(!profile.is_active_at(20));
        assert_eq!(profile.area_at(14), AreaId(0));
        assert_eq!(profile.area_at(15), AreaId(1));
    }

    #[test]
    fn equal_share_feedback_splits_bandwidth() {
        let mut env = environment(2, Vec::new());
        env.begin_slot(0);
        for session in 0..2 {
            assert!(env.session_view(session, 0).active);
        }
        let choices = vec![Some(NetworkId(2)), Some(NetworkId(2))];
        let mut out = vec![None, None];
        env.feedback(0, &choices, &mut out);
        for observation in out.iter().flatten() {
            assert!((observation.bit_rate_mbps - 11.0).abs() < 1e-12);
            assert!((observation.scaled_gain - 0.5).abs() < 1e-12);
            assert!(!observation.switched);
        }
        env.end_slot(0, &choices, &[]);
    }

    #[test]
    fn first_activation_into_home_networks_is_silent() {
        let mut env = environment(1, Vec::new());
        env.begin_slot(0);
        let view = env.session_view(0, 0);
        assert!(view.active);
        assert!(
            view.networks_changed.is_none(),
            "policy already knows its home networks"
        );
    }

    #[test]
    fn bandwidth_events_apply_and_survive_snapshots() {
        let mut env = environment(1, vec![BandwidthEvent::new(3, NetworkId(2), 1.0)]);
        env.begin_slot(0);
        let mut out = vec![None];
        env.feedback(0, &[Some(NetworkId(2))], &mut out);
        assert!((out[0].as_ref().unwrap().bit_rate_mbps - 22.0).abs() < 1e-12);

        let state = env.state().expect("recorder-less environments checkpoint");
        for slot in 1..5 {
            env.begin_slot(slot);
            env.feedback(slot, &[Some(NetworkId(2))], &mut out);
        }
        assert!(
            (out[0].as_ref().unwrap().bit_rate_mbps - 1.0).abs() < 1e-12,
            "the collapse fired"
        );

        // Restore to the pre-event checkpoint: the event must be pending
        // again and fire at slot 3.
        let mut restored = environment(1, vec![BandwidthEvent::new(3, NetworkId(2), 1.0)]);
        restored.restore(&state).unwrap();
        for slot in 1..5 {
            restored.begin_slot(slot);
            restored.feedback(slot, &[Some(NetworkId(2))], &mut out);
            let expected = if slot < 3 { 22.0 } else { 1.0 };
            assert!(
                (out[0].as_ref().unwrap().bit_rate_mbps - expected).abs() < 1e-12,
                "slot {slot}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dense recorder rejected")]
    fn dense_recorder_refuses_fleet_scale_populations() {
        let _ = environment(crate::DENSE_RECORDER_MAX_SESSIONS + 1, Vec::new()).with_recorder();
    }

    #[test]
    fn recorder_environments_refuse_to_checkpoint() {
        let env = environment(1, Vec::new()).with_recorder();
        assert!(env.state().is_none());
        assert!(env.wants_top_choices());
        // Symmetric guard: a recorder cannot reconstruct pre-checkpoint
        // slots, so restoring into a recorded environment must fail too.
        let donor_state = environment(1, Vec::new()).state().unwrap();
        let mut recorded = environment(1, Vec::new()).with_recorder();
        assert!(recorded.restore(&donor_state).is_err());
    }

    #[test]
    fn restore_rejects_mismatched_populations() {
        let mut env = environment(2, Vec::new());
        let donor = environment(1, Vec::new());
        let state = donor.state().unwrap();
        assert!(env.restore(&state).is_err());
        assert!(env.restore("{broken").is_err());
    }

    /// A replicated multi-area world: `areas` areas of `per_area` devices,
    /// each area its own network triple (the scenario-library shape).
    fn replicated(areas: usize, per_area: usize) -> CongestionEnvironment {
        let mut networks = Vec::new();
        let mut service_areas = Vec::new();
        let mut profiles = Vec::new();
        for area in 0..areas {
            let base = (area * 3) as u32;
            let specs = vec![
                NetworkSpec::wifi(base, 4.0),
                NetworkSpec::wifi(base + 1, 7.0),
                NetworkSpec::cellular(base + 2, 22.0),
            ];
            let ids: Vec<NetworkId> = specs.iter().map(|n| n.id).collect();
            service_areas.push(ServiceArea {
                id: AreaId(area as u32),
                name: format!("area {area}"),
                networks: ids.clone(),
            });
            networks.extend(specs);
            for device in 0..per_area {
                profiles.push(DeviceProfile::new(
                    (area * per_area + device) as u32,
                    AreaId(area as u32),
                    ids.clone(),
                ));
            }
        }
        CongestionEnvironment::new(
            networks,
            Topology::new(service_areas),
            Vec::new(),
            profiles,
            SimulationConfig::quick(50),
            21,
        )
    }

    #[test]
    fn replicated_areas_partition_per_area() {
        let env = replicated(4, 5);
        let ranges = env.feedback_partitions().expect("congestion worlds split");
        assert_eq!(ranges.len(), 4);
        assert!(SessionRange::tile(ranges, 20));
        for (area, range) in ranges.iter().enumerate() {
            assert_eq!(range.start, area * 5);
            assert_eq!(range.len(), 5);
        }
        // Each partition owns exactly its area's network triple.
        for (area, partition) in env.partitions.iter().enumerate() {
            assert_eq!(
                partition.networks,
                vec![area * 3, area * 3 + 1, area * 3 + 2]
            );
        }
    }

    #[test]
    fn shared_networks_collapse_to_one_partition() {
        // All devices in one area sharing all networks: one partition.
        let env = environment(6, Vec::new());
        let ranges = env.feedback_partitions().unwrap();
        assert_eq!(ranges, &[SessionRange::new(0, 6)]);

        // A walker connects two otherwise-independent areas: their sessions
        // are interleaved (area 0, area 1, then the walker back in area 0's
        // component), so the component split is rejected and the world
        // collapses to a single covering partition.
        let networks = vec![
            NetworkSpec::wifi(0, 4.0),
            NetworkSpec::wifi(1, 7.0),
            NetworkSpec::cellular(2, 22.0),
            NetworkSpec::cellular(3, 11.0),
        ];
        let service_areas = vec![
            ServiceArea {
                id: AreaId(0),
                name: "a".to_string(),
                networks: vec![NetworkId(0), NetworkId(1)],
            },
            ServiceArea {
                id: AreaId(1),
                name: "b".to_string(),
                networks: vec![NetworkId(2), NetworkId(3)],
            },
        ];
        let profiles = vec![
            DeviceProfile::new(0, AreaId(0), vec![NetworkId(0), NetworkId(1)]),
            DeviceProfile::new(1, AreaId(1), vec![NetworkId(2), NetworkId(3)]),
            DeviceProfile::new(2, AreaId(0), vec![NetworkId(0), NetworkId(1)])
                .moving_to(5, AreaId(1)),
        ];
        let env = CongestionEnvironment::new(
            networks,
            Topology::new(service_areas),
            Vec::new(),
            profiles,
            SimulationConfig::quick(50),
            3,
        );
        let ranges = env.feedback_partitions().unwrap();
        assert_eq!(ranges, &[SessionRange::new(0, 3)]);
    }

    /// Runs partition jobs in *reverse* order — any cross-partition state
    /// leak or shared RNG stream would diverge from the sequential result.
    struct ReverseExecutor;

    impl PartitionExecutor for ReverseExecutor {
        fn run(&self, jobs: Vec<PartitionJob<'_>>) {
            for job in jobs.into_iter().rev() {
                job();
            }
        }
    }

    #[test]
    fn partition_execution_order_never_changes_the_feedback() {
        // Noisy sharing consumes partition RNG draws for every loaded
        // network, so any divergence in stream routing shows up immediately.
        let build = || {
            let mut env = replicated(3, 4);
            env.config.sharing = crate::sharing::SharingModel::testbed();
            env
        };
        let mut forward = build();
        let mut reversed = build();
        let sessions = 12usize;
        let mut out_forward: Vec<Option<Observation>> = vec![None; sessions];
        let mut out_reversed: Vec<Option<Observation>> = vec![None; sessions];
        for slot in 0..25 {
            let choices: Vec<Option<NetworkId>> = (0..sessions)
                .map(|i| {
                    // A churning pattern: some sessions sit out, the rest
                    // rotate through their area's three networks (switching
                    // costs delay draws from the partition streams).
                    ((i + slot) % 5 != 4).then(|| NetworkId(((i / 4) * 3 + (i + slot) % 3) as u32))
                })
                .collect();
            forward.begin_slot(slot);
            reversed.begin_slot(slot);
            forward.feedback(slot, &choices, &mut out_forward);
            reversed.feedback_partitioned(slot, &choices, &mut out_reversed, &ReverseExecutor);
            for (a, b) in out_forward.iter().zip(out_reversed.iter()) {
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.network, b.network, "slot {slot}");
                        assert_eq!(
                            a.bit_rate_mbps.to_bits(),
                            b.bit_rate_mbps.to_bits(),
                            "share bits diverged at slot {slot}"
                        );
                        assert_eq!(
                            a.switching_delay_s.to_bits(),
                            b.switching_delay_s.to_bits(),
                            "delay bits diverged at slot {slot}"
                        );
                    }
                    other => panic!("presence diverged at slot {slot}: {other:?}"),
                }
            }
        }
        // The serialized states (per-partition RNG positions included) must
        // agree exactly afterwards.
        assert_eq!(forward.state(), reversed.state());
    }
}
