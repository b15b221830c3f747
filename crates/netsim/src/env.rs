//! The congestion world as a first-class [`Environment`].
//!
//! [`CongestionEnvironment`] owns the whole world of the paper's
//! simulations: network capacities and their scheduled [`BandwidthEvent`]s,
//! the service-area [`Topology`] and per-device visibility, mobility walks
//! and activity windows, bandwidth sharing, switching-delay sampling,
//! goodput accounting, counterfactual full-information gains and the
//! optional [`RunRecorder`]. The fleet engine steps it through the
//! [`Environment`] trait in one of two ways, with the same grading code:
//!
//! * **sequential** — [`Environment::feedback`] grades every partition in
//!   order on the calling thread;
//! * **partitioned** — worlds that are unions of independent areas
//!   advertise [`Environment::feedback_partitions`], and
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
//!
//! # Grading cost
//!
//! Grading a choice touches shared tables and no network nobody loaded:
//!
//! * every area's network list carries a table, built once, of each entry's
//!   partition-local index. A device holds no list of its own: it names the
//!   area it stands in, so a choice costs one search of that area's shared
//!   (cache-hot) list; the dense index is read back from the partition's
//!   network list. The full-information counterfactuals walk the same table.
//!   A checkpoint writes the area, and restore refuses one off the device's
//!   route, whose table would index another partition's share queues;
//! * a partition resets only the share queues it loaded in the previous
//!   slot, and computes shares only for the networks loaded in this one;
//! * a bandwidth event updates its network's entries in the capacity map,
//!   the dense table and the game, and re-sums its partition's owned
//!   bandwidth — O(events), not a rebuild over the whole universe.

use crate::delay::DelayModel;
use crate::device::{DeviceId, DeviceOutcome};
use crate::event::{usable_capacity, BandwidthEvent, EventSchedule};
use crate::network::NetworkSpec;
use crate::recorder::{RunRecorder, RunResult, SelectionRecord};
use crate::sharing::SharingModel;
use crate::topology::{AreaId, Topology};
use congestion_game::ResourceSelectionGame;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use smartexp3_core::{
    splitmix64, EnvStateError, Environment, NetworkId, Observation, PartitionExecutor,
    PartitionJob, SequentialExecutor, SessionRange, SessionView, SlotIndex, SlotMetrics,
};
use std::collections::BTreeMap;

/// Length of one slot in seconds (paper: 15 s, longer than the largest
/// observed switching delay).
pub(crate) const SLOT_DURATION_S: f64 = 15.0;

/// What a caller chooses about the congestion world. The run length is not
/// one of them (whoever steps the world decides how many slots to run),
/// nor are the paper's fixed values: a 15 s slot, and for the recorder the
/// Definition 2 probability threshold 0.75 and the ε = 7.5 % of the
/// ε-equilibrium accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// How network bandwidth is split among devices.
    pub sharing: SharingModel,
    /// Keep the raw per-slot selections in the [`RunResult`] (needed by the
    /// mobility and mixed-population experiments; costs memory).
    pub keep_selections: bool,
}

/// Everything the environment needs to know about one session except its
/// policy (which lives in the fleet engine).
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
    /// decide whether its first activation needs a visibility notification.
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

/// Per-device dynamic state (runtime, not configuration).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct DeviceDyn {
    /// The area of the device's last active refresh (`None` before its
    /// first). The device sees that area's networks.
    area: Option<AreaId>,
    /// Index of `area`'s [`AreaNetworks`] (`None` without an area, or when
    /// the topology lists no such area). Derived from `area` through the
    /// area index: not written, rebuilt by `restore`.
    #[serde(skip)]
    list: Option<usize>,
    current: Option<NetworkId>,
    /// Whether the device was active at its last refresh: in the slot being
    /// stepped once `begin_slot` has run.
    was_active: bool,
    pending_change: bool,
    download_megabits: f64,
    active_slots: usize,
    switches: u64,
    total_delay_seconds: f64,
}

impl DeviceDyn {
    /// The networks the device sees: its area's list, empty before its
    /// first activation and in an area the topology does not list.
    fn visible<'a>(&self, areas: &'a [AreaNetworks]) -> &'a [NetworkId] {
        self.list
            .map_or(&[], |list| areas[list].networks.as_slice())
    }
}

/// `true` when `list` is ascending (duplicates allowed) — the precondition
/// for binary-searching it.
fn is_ascending(list: &[NetworkId]) -> bool {
    list.windows(2).all(|pair| pair[0] <= pair[1])
}

/// Index into the area lists of `area`'s entry, through the sorted
/// `area_index`, or `None` when the topology lists no such area.
fn area_list(area_index: &[(AreaId, usize)], area: AreaId) -> Option<usize> {
    area_index
        .binary_search_by_key(&area, |&(a, _)| a)
        .ok()
        .map(|found| area_index[found].1)
}

/// One service area's visible networks plus the grading table built over
/// them once at construction. The area's devices share this list: each
/// names its area, and grading resolves its choices here.
#[derive(Debug)]
struct AreaNetworks {
    /// The area's networks, in topology order.
    networks: Vec<NetworkId>,
    /// Whether `networks` is ascending (true of every stock world), so
    /// lookups binary-search it.
    ascending: bool,
    /// The owning partition's local index of every entry of `networks`.
    /// `build_partitions` puts an area's networks and every device that can
    /// enter the area in one partition, so this indexes the grading
    /// device's own partition.
    local: Vec<usize>,
}

impl AreaNetworks {
    /// Position of `network` in the list, if the area sees it.
    fn position(&self, network: NetworkId) -> Option<usize> {
        if self.ascending {
            self.networks.binary_search(&network).ok()
        } else {
            self.networks.iter().position(|&n| n == network)
        }
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
/// position of the network in the partition's owned-network list. Every
/// entry outside `loaded` is zero or empty, so a slot resets only the
/// networks the previous slot loaded.
#[derive(Debug, Default)]
struct ShareState {
    load: Vec<usize>,
    shares: Vec<Vec<f64>>,
    next_share_index: Vec<usize>,
    /// Local indices with a non-zero `load` this slot, in first-load order.
    loaded: Vec<usize>,
}

impl ShareState {
    fn new(networks: usize) -> Self {
        ShareState {
            load: vec![0; networks],
            shares: vec![Vec::new(); networks],
            next_share_index: vec![0; networks],
            loaded: Vec::new(),
        }
    }

    /// Clears the entries the last slot loaded.
    fn reset(&mut self) {
        for j in self.loaded.drain(..) {
            self.load[j] = 0;
            self.shares[j].clear();
            self.next_share_index[j] = 0;
        }
    }

    /// Counts one more session on local network `j`.
    fn add_load(&mut self, j: usize) {
        if self.load[j] == 0 {
            self.loaded.push(j);
        }
        self.load[j] += 1;
    }
}

/// One graded choice resolved against the world tables once per slot, for
/// both the load and the grading pass. A visible choice costs one search of
/// the shared list of the device's area: the area's table gives the
/// partition-local index, and the partition's network list the dense index.
/// A choice the device cannot see falls back to a universe search, because
/// its switching-delay model still applies.
#[derive(Debug, Clone, Copy)]
struct ResolvedChoice {
    /// Dense universe index of the chosen network (`None` for an id the
    /// world does not know).
    dense: Option<usize>,
    /// Partition-local index of the chosen network when the session can see
    /// it: the share queue it draws from.
    local: Option<usize>,
}

impl ResolvedChoice {
    fn new(
        tables: &GradeTables<'_>,
        networks: &[usize],
        device: &DeviceDyn,
        chosen: NetworkId,
    ) -> Self {
        let local = device.list.and_then(|list| {
            let area = &tables.areas[list];
            area.position(chosen).map(|position| area.local[position])
        });
        let dense = match local {
            Some(local) => Some(networks[local]),
            None => tables.universe.binary_search(&chosen).ok(),
        };
        ResolvedChoice { dense, local }
    }
}

/// One independent feedback partition: a contiguous session range, the
/// networks only those sessions can ever load, and every per-slot buffer
/// grading them needs. All buffers persist across slots, so partitioned
/// grading allocates nothing in steady state, and a slot touches only the
/// share queues it (or the slot before) loaded.
struct FeedbackPartition {
    range: SessionRange,
    /// Dense universe indices of the networks this partition owns, ascending.
    networks: Vec<usize>,
    state: ShareState,
    /// Bandwidth of `networks`, summed in ascending order: the telemetry
    /// fair share's numerator. Re-summed whenever a capacity changes, never
    /// patched by the delta, so its rounding does not depend on history.
    owned_bandwidth: f64,
    /// The partition's RNG stream (share noise, switching delays), advanced
    /// in canonical session order.
    rng: StdRng,
    /// This slot's graded choices resolved in the load pass, in session
    /// order, for the grading pass.
    resolved: Vec<ResolvedChoice>,
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
    areas: &'a [AreaNetworks],
    bandwidth_by_index: &'a [f64],
    /// Switching-delay model per dense universe index.
    delay_by_index: &'a [DelayModel],
    gain_scale: f64,
}

/// Advances one device's life-cycle state (activity, mobility, visibility)
/// into `slot` — the per-session slot refresh the `begin_slot` jobs run (it
/// touches only the device's own state plus the immutable area tables, so
/// partitions can run it concurrently without an RNG or any cross-session
/// coupling). An active device records the area it stands in.
///
/// Returns whether the device's policy must hear of a new visible set: its
/// area's list differs from the list it saw before (a `current` network the
/// new list lacks is dropped), unless the device activates from seeing
/// nothing into exactly the home networks its policy was built over.
fn refresh_device(
    profile: &DeviceProfile,
    device: &mut DeviceDyn,
    area_index: &[(AreaId, usize)],
    areas: &[AreaNetworks],
    slot: usize,
) -> bool {
    if !profile.is_active_at(slot) {
        device.was_active = false;
        return false;
    }
    let area = profile.area_at(slot);
    let was_active = std::mem::replace(&mut device.was_active, true);
    if was_active && device.area == Some(area) {
        // Area lists are fixed for the environment's lifetime, so a device
        // that stayed put sees what it saw: no O(K) list comparison.
        return false;
    }
    let before = device.visible(areas);
    device.area = Some(area);
    device.list = area_list(area_index, area);
    let visible = device.visible(areas);
    // Compared as lists: a move between two areas that see the same
    // networks is no news.
    if before == visible {
        return false;
    }
    if device
        .current
        .is_some_and(|current| !visible.contains(&current))
    {
        device.current = None;
    }
    !before.is_empty() || was_active || differs_from_home(profile, visible)
}

/// `true` when the networks a device sees differ (as a set) from the
/// networks its policy was built over, so its first activation must be
/// announced.
fn differs_from_home(profile: &DeviceProfile, visible: &[NetworkId]) -> bool {
    let home = &profile.home_networks;
    if visible.len() != home.len() {
        return true;
    }
    if is_ascending(home) {
        !visible.iter().all(|n| home.binary_search(n).is_ok())
    } else {
        !visible.iter().all(|n| home.contains(n))
    }
}

/// Returns a consumed observation's counterfactual-gain buffer to `pool`.
fn recycle_full_gains(observation: Observation, pool: &mut Vec<Vec<(NetworkId, f64)>>) {
    if let Some(mut gains) = observation.full_gains {
        gains.clear();
        pool.push(gains);
    }
}

/// Grades one session's chosen network, `resolved` against the world
/// tables: pulls its bandwidth share from the partition's share queues,
/// samples the switching delay from `rng`, updates goodput accounting and
/// attaches counterfactual gains for full-information devices. The
/// sequential and the partitioned feedback paths both funnel through here.
#[allow(clippy::too_many_arguments)]
fn grade_session(
    tables: &GradeTables<'_>,
    networks: &[usize],
    state: &mut ShareState,
    rng: &mut dyn RngCore,
    pool: &mut Vec<Vec<(NetworkId, f64)>>,
    profile: &DeviceProfile,
    device: &mut DeviceDyn,
    chosen: NetworkId,
    resolved: ResolvedChoice,
    slot: SlotIndex,
) -> Observation {
    let observed_rate = match resolved.local {
        Some(j) => {
            let share = state.shares[j]
                .get(state.next_share_index[j])
                .copied()
                .unwrap_or(0.0);
            state.next_share_index[j] += 1;
            share
        }
        None => 0.0,
    };

    let switched = match device.current {
        Some(previous) => previous != chosen,
        None => false,
    };
    let delay = if switched {
        let model = resolved
            .dense
            .map_or(DelayModel::None, |d| tables.delay_by_index[d]);
        model.sample(SLOT_DURATION_S, rng)
    } else {
        0.0
    };
    if switched {
        device.switches += 1;
        device.total_delay_seconds += delay;
    }
    device.current = Some(chosen);
    device.active_slots += 1;
    device.download_megabits += observed_rate * (SLOT_DURATION_S - delay).max(0.0);

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
        if let Some(list) = device.list {
            let area = &tables.areas[list];
            gains.extend(area.networks.iter().zip(&area.local).map(|(&network, &j)| {
                let others = state.load[j] - usize::from(network == chosen);
                let rate = tables.bandwidth_by_index[networks[j]] / (others + 1) as f64;
                (network, (rate / tables.gain_scale).clamp(0.0, 1.0))
            }));
        }
        observation.full_gains = Some(gains);
    }
    observation
}

impl FeedbackPartition {
    /// Re-sums [`owned_bandwidth`](Self::owned_bandwidth) from the dense
    /// capacity table, in ascending dense order.
    fn sum_owned_bandwidth(&mut self, bandwidth_by_index: &[f64]) {
        self.owned_bandwidth = self
            .networks
            .iter()
            .map(|&dense| bandwidth_by_index[dense])
            .sum();
    }

    /// Runs one full feedback slot for this partition: load registration,
    /// share computation (loaded networks in ascending dense order, the
    /// order noisy sharing draws from the stream in) and grading, all in
    /// canonical session order on the partition's stream. `choices`,
    /// `profiles`, `devices` and `out` are this partition's slices of the
    /// fleet-wide buffers.
    #[allow(clippy::too_many_arguments)]
    fn run_slot(
        &mut self,
        tables: &GradeTables<'_>,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        profiles: &[DeviceProfile],
        devices: &mut [DeviceDyn],
        out: &mut [Option<Observation>],
        record: bool,
        telemetry: bool,
    ) {
        self.choices.clear();
        self.records.clear();
        if telemetry {
            self.metrics.clear();
        }
        self.state.reset();
        self.resolved.clear();
        for (i, choice) in choices.iter().enumerate() {
            match *choice {
                Some(chosen) => {
                    let resolved = ResolvedChoice::new(tables, &self.networks, &devices[i], chosen);
                    if let Some(local) = resolved.local {
                        self.state.add_load(local);
                    }
                    self.resolved.push(resolved);
                }
                None => {
                    if let Some(stale) = out[i].take() {
                        recycle_full_gains(stale, &mut self.full_gains_pool);
                    }
                }
            }
        }
        self.state.loaded.sort_unstable();
        for &j in &self.state.loaded {
            tables.config.sharing.shares_into(
                tables.bandwidth_by_index[self.networks[j]],
                self.state.load[j],
                &mut self.rng,
                &mut self.state.shares[j],
            );
        }
        // Definition-4 fair share for this partition's area: the bandwidth
        // the partition owns, split evenly over the sessions graded this
        // slot (the streaming analogue of the recorder's
        // `distance_from_average_bit_rate`).
        let graded = self.resolved.len();
        let fair_share = if telemetry && graded > 0 {
            self.owned_bandwidth / graded as f64
        } else {
            0.0
        };
        let mut shortfall_sum = 0.0;
        let chosen = choices
            .iter()
            .enumerate()
            .filter_map(|(i, choice)| choice.map(|chosen| (i, chosen)));
        for ((i, chosen), &resolved) in chosen.zip(&self.resolved) {
            if let Some(previous) = out[i].take() {
                recycle_full_gains(previous, &mut self.full_gains_pool);
            }
            let observation = grade_session(
                tables,
                &self.networks,
                &mut self.state,
                &mut self.rng,
                &mut self.full_gains_pool,
                &profiles[i],
                &mut devices[i],
                chosen,
                resolved,
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
        area_list(area_index, area).map_or(&[], |list| area_networks[list].1.as_slice())
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
    schedule: EventSchedule,
    gain_scale: f64,
    /// Dense network index: every id the run can encounter, ascending.
    universe: Vec<NetworkId>,
    bandwidths: BTreeMap<NetworkId, f64>,
    bandwidth_by_index: Vec<f64>,
    /// Switching-delay model per dense universe index (`DelayModel::None`
    /// for ids without a network spec), parallel to `bandwidth_by_index`.
    delay_by_index: Vec<DelayModel>,
    /// Owning feedback partition per dense universe index, parallel to
    /// `bandwidth_by_index`: the partition whose cached bandwidth sum an
    /// event on that network invalidates.
    partition_by_index: Vec<usize>,
    /// Every service area's network list and grading table, in topology
    /// order.
    areas: Vec<AreaNetworks>,
    /// Sorted `(area id, index into areas)` lookup — visibility refresh runs
    /// per active device per slot, so it must not scan the (possibly
    /// tens-of-thousands-entry) area list linearly. Keeps the *first* entry
    /// per id, matching the linear `find` it replaces.
    area_index: Vec<(AreaId, usize)>,
    game: ResourceSelectionGame,
    recorder: Option<RunRecorder>,
    /// Independent feedback partitions (always at least one; a world that
    /// does not split has a single partition covering every session).
    partitions: Vec<FeedbackPartition>,
    /// The partitions' session ranges, in partition order (the
    /// [`Environment::feedback_partitions`] view).
    ranges: Vec<SessionRange>,
    // The recorder reduce's buffers: this slot's graded choices and their
    // selection records in session order (cleared, never reallocated in
    // steady state).
    choices: Vec<(usize, NetworkId)>,
    records: Vec<SelectionRecord>,
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
    /// `env_seed` seeds the environment's own per-partition RNG streams.
    /// A capacity that is not a finite rate of at least 0 (negative, NaN or
    /// infinite), of a spec or an event, enters the world as 0 (as
    /// [`BandwidthEvent::new`] clamps it), so every capacity the world
    /// writes is one [`restore`](Environment::restore) accepts, and the gain
    /// scale is the largest capacity left.
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
        let bandwidths: BTreeMap<NetworkId, f64> = networks
            .iter()
            .map(|n| (n.id, usable_capacity(n.bandwidth_mbps)))
            .collect();
        let events: Vec<BandwidthEvent> = events
            .into_iter()
            .map(|e| BandwidthEvent::new(e.at_slot, e.network, e.new_bandwidth_mbps))
            .collect();
        let gain_scale = networks
            .iter()
            .map(|n| usable_capacity(n.bandwidth_mbps))
            .fold(1e-9, f64::max);

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

        let network_count = universe.len();
        // Later specs of a repeated id win, as in `bandwidths`.
        let mut delay_by_index = vec![DelayModel::None; network_count];
        for spec in &networks {
            if let Ok(dense) = universe.binary_search(&spec.id) {
                delay_by_index[dense] = spec.delay_model();
            }
        }
        let devices = vec![DeviceDyn::default(); profiles.len()];

        let (ranges, partition_networks) =
            build_partitions(&universe, &area_networks, &area_index, &profiles);
        let mut partition_by_index = vec![0; network_count];
        let mut local_by_index = vec![0; network_count];
        for (partition, networks) in partition_networks.iter().enumerate() {
            for (local, &dense) in networks.iter().enumerate() {
                partition_by_index[dense] = partition;
                local_by_index[dense] = local;
            }
        }
        let areas: Vec<AreaNetworks> = area_networks
            .into_iter()
            .map(|(_, networks)| AreaNetworks {
                ascending: is_ascending(&networks),
                local: networks
                    .iter()
                    .map(|network| {
                        let dense = universe
                            .binary_search(network)
                            .expect("the universe holds every area's networks");
                        local_by_index[dense]
                    })
                    .collect(),
                networks,
            })
            .collect();
        let partitions: Vec<FeedbackPartition> = ranges
            .iter()
            .zip(partition_networks)
            .enumerate()
            .map(|(partition, (&range, networks))| FeedbackPartition {
                range,
                state: ShareState::new(networks.len()),
                networks,
                owned_bandwidth: 0.0,
                rng: partition_rng(env_seed, partition),
                resolved: Vec::new(),
                choices: Vec::new(),
                records: Vec::new(),
                full_gains_pool: Vec::new(),
                metrics: SlotMetrics::new(),
            })
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

        let mut environment = CongestionEnvironment {
            config,
            profiles,
            devices,
            schedule: EventSchedule::new(events),
            gain_scale,
            universe,
            bandwidths,
            bandwidth_by_index: vec![0.0; network_count],
            delay_by_index,
            partition_by_index,
            areas,
            area_index,
            game: ResourceSelectionGame::new(std::iter::empty()),
            recorder: None,
            partitions,
            ranges,
            choices: Vec::new(),
            records: Vec::new(),
            event_slots,
            telemetry_enabled: false,
            slot_metrics: SlotMetrics::new(),
        };
        environment.rebuild_capacities();
        environment
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

    /// The gain scale: the bit rate mapping to a scaled gain of 1.0, the
    /// largest bandwidth among the world's network specs (each clamped as
    /// [`new`](Self::new) says).
    #[must_use]
    pub fn gain_scale(&self) -> f64 {
        self.gain_scale
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

    /// Rebuilds every table derived from `bandwidths` — the game, the dense
    /// capacity table and each partition's owned-bandwidth sum — from
    /// scratch. [`apply_due_events`](Self::apply_due_events) keeps them
    /// equal to this, one event at a time.
    fn rebuild_capacities(&mut self) {
        self.game = ResourceSelectionGame::new(self.bandwidths.iter().map(|(&n, &r)| (n, r)));
        for (bandwidth, network) in self.bandwidth_by_index.iter_mut().zip(&self.universe) {
            *bandwidth = self.bandwidths.get(network).copied().unwrap_or(0.0);
        }
        for partition in &mut self.partitions {
            partition.sum_owned_bandwidth(&self.bandwidth_by_index);
        }
    }

    /// Applies the bandwidth events due at `slot`, in schedule order. Each
    /// updates its own network in the capacity map, the dense table and the
    /// game, and re-sums the owning partition's bandwidth.
    fn apply_due_events(&mut self, slot: usize) {
        for event in self.schedule.due(slot) {
            let dense = self
                .universe
                .binary_search(&event.network)
                .expect("the universe holds every event's network");
            self.bandwidths
                .insert(event.network, event.new_bandwidth_mbps);
            self.bandwidth_by_index[dense] = event.new_bandwidth_mbps;
            self.game.set_rate(event.network, event.new_bandwidth_mbps);
            self.partitions[self.partition_by_index[dense]]
                .sum_owned_bandwidth(&self.bandwidth_by_index);
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
            area_index,
            areas,
            ranges,
            ..
        } = self;
        let area_index: &[(AreaId, usize)] = area_index;
        let areas: &[AreaNetworks] = areas;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(ranges.len());
        let mut devices_rest: &mut [DeviceDyn] = devices;
        let mut profiles_rest: &[DeviceProfile] = profiles;
        for range in ranges.iter() {
            let len = range.len();
            let (job_devices, rest) = devices_rest.split_at_mut(len);
            devices_rest = rest;
            let (job_profiles, rest) = profiles_rest.split_at(len);
            profiles_rest = rest;
            jobs.push(Box::new(move || {
                for (profile, device) in job_profiles.iter().zip(job_devices.iter_mut()) {
                    device.pending_change =
                        refresh_device(profile, device, area_index, areas, slot);
                }
            }));
        }
        executor.run(jobs);
    }

    fn session_view(&self, session: usize, _slot: SlotIndex) -> SessionView<'_> {
        let device = &self.devices[session];
        let visible = device.visible(&self.areas);
        SessionView {
            // A device in an area without networks has nothing to choose
            // from: it sits the slot out, but still hears that its set
            // changed (to empty, or back from empty).
            active: device.was_active && !visible.is_empty(),
            networks_changed: device.pending_change.then_some(visible),
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
            devices,
            profiles,
            config,
            universe,
            areas,
            bandwidth_by_index,
            delay_by_index,
            gain_scale,
            choices: global_choices,
            records: global_records,
            slot_metrics,
            ..
        } = self;
        let tables = GradeTables {
            config,
            universe,
            areas,
            bandwidth_by_index,
            delay_by_index,
            gain_scale: *gain_scale,
        };
        let tables = &tables;
        let mut jobs: Vec<PartitionJob<'_>> = Vec::with_capacity(partitions.len());
        let mut devices_rest: &mut [DeviceDyn] = devices;
        let mut out_rest: &mut [Option<Observation>] = out;
        let mut choices_rest: &[Option<NetworkId>] = choices;
        let mut profiles_rest: &[DeviceProfile] = profiles;
        for partition in partitions.iter_mut() {
            let len = partition.range.len();
            let (job_devices, rest) = devices_rest.split_at_mut(len);
            devices_rest = rest;
            let (job_out, rest) = out_rest.split_at_mut(len);
            out_rest = rest;
            let (job_choices, rest) = choices_rest.split_at(len);
            choices_rest = rest;
            let (job_profiles, rest) = profiles_rest.split_at(len);
            profiles_rest = rest;
            jobs.push(Box::new(move || {
                partition.run_slot(
                    tables,
                    slot,
                    job_choices,
                    job_profiles,
                    job_devices,
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
        if let Some(recorder) = &mut self.recorder {
            for (record, &(index, chosen)) in self.records.iter_mut().zip(&self.choices) {
                record.top_choice = tops.get(index).copied().flatten().unwrap_or((chosen, 1.0));
            }
            recorder.record_slot(&self.game, &self.records);
        }
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
            rngs: self
                .partitions
                .iter()
                .map(|partition| partition.rng.state())
                .collect(),
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
        // Grading reads a device's area table, whose entries index the
        // device's own partition: an area off its route would read another
        // partition's share queues.
        for (index, (profile, device)) in self.profiles.iter().zip(&state.devices).enumerate() {
            if let Some(area) = device.area {
                if area != profile.area && profile.moves.iter().all(|&(_, to)| to != area) {
                    return Err(EnvStateError(format!(
                        "device {index} stands in area {}, which is neither its start area \
                         nor a move destination",
                        area.0
                    )));
                }
            }
        }
        // Grading divides every capacity among the devices on it: a capacity
        // that is not a finite rate ≥ 0 would grade at an infinite or NaN
        // rate, and an id outside the universe has no capacity slot.
        let mut bandwidths = BTreeMap::new();
        for (network, capacity) in state.bandwidths {
            if self.universe.binary_search(&network).is_err() {
                return Err(EnvStateError(format!(
                    "network {} has a capacity but is not in this world",
                    network.0
                )));
            }
            if !(capacity.is_finite() && capacity >= 0.0) {
                return Err(EnvStateError(format!(
                    "network {} has capacity {capacity}, not a finite rate of at least 0",
                    network.0
                )));
            }
            if bandwidths.insert(network, capacity).is_some() {
                return Err(EnvStateError(format!(
                    "network {} has more than one capacity",
                    network.0
                )));
            }
        }
        self.bandwidths = bandwidths;
        self.schedule.set_cursor(state.cursor);
        for (partition, rng) in self.partitions.iter_mut().zip(state.rngs) {
            partition.rng = StdRng::from_state(rng);
        }
        self.devices = state.devices;
        for device in &mut self.devices {
            device.list = device
                .area
                .and_then(|area| area_list(&self.area_index, area));
        }
        self.rebuild_capacities();
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
            SimulationConfig::default(),
            9,
        )
    }

    #[test]
    fn profile_activity_is_half_open_and_moves_apply_in_order() {
        let profile = DeviceProfile::new(0, AreaId(0), vec![NetworkId(0)])
            .active_between(10, Some(20))
            .moving_to(800, AreaId(2))
            .moving_to(15, AreaId(1));
        assert!(!profile.is_active_at(9));
        assert!(profile.is_active_at(10));
        assert!(profile.is_active_at(19));
        assert!(!profile.is_active_at(20));
        assert_eq!(profile.area_at(14), AreaId(0));
        assert_eq!(profile.area_at(15), AreaId(1));
        assert_eq!(profile.area_at(801), AreaId(2));
        let forever = DeviceProfile::new(1, AreaId(0), vec![NetworkId(0)]);
        assert!(forever.is_active_at(0));
        assert!(forever.is_active_at(100_000));
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

    #[test]
    fn a_device_writes_the_area_it_stands_in_not_its_networks() {
        let mut env = environment(1, Vec::new());
        env.begin_slot(0);
        env.feedback(0, &[Some(NetworkId(2))], &mut [None]);
        assert_eq!(
            serde_json::to_string(&env.devices[0]).unwrap(),
            concat!(
                r#"{"area":0,"current":2,"was_active":true,"#,
                r#""pending_change":false,"download_megabits":330.0,"active_slots":1,"#,
                r#""switches":0,"total_delay_seconds":0.0}"#,
            )
        );
        // Texts written while devices also kept `active_now`, always equal
        // to `was_active`, restore to the same state.
        let state = env.state().unwrap();
        let legacy = state.replace(
            r#""was_active":true,"#,
            r#""was_active":true,"active_now":true,"#,
        );
        assert_ne!(legacy, state);
        let mut restored = environment(1, Vec::new());
        restored.restore(&legacy).unwrap();
        assert_eq!(restored.state(), Some(state));
    }

    #[test]
    fn restore_refuses_a_capacity_that_is_not_a_finite_rate_of_the_world() {
        let mut env = environment(2, Vec::new());
        env.begin_slot(0);
        let state = env.state().unwrap();
        let entry = "[2,22.0]";
        assert!(state.contains(entry), "{state}");
        // `1e999` parses as infinity.
        for (edit, network) in [
            ("[2,inf]", 2),
            ("[2,1e999]", 2),
            ("[2,NaN]", 2),
            ("[2,-1.0]", 2),
            ("[9,22.0]", 9),
            ("[2,22.0],[2,22.0]", 2),
        ] {
            let edited = state.replacen(entry, edit, 1);
            let mut restored = environment(2, Vec::new());
            let untouched = restored.state();
            let error = restored.restore(&edited).unwrap_err();
            assert!(
                error.0.starts_with(&format!("network {network} ")),
                "{edit}: {error}"
            );
            assert_eq!(restored.state(), untouched, "{edit} touched the world");
        }
        let mut restored = environment(2, Vec::new());
        restored.restore(&state).unwrap();
        assert_eq!(restored.state(), Some(state));
    }

    /// An infinite capacity, of a spec or an event, enters the world as 0.
    /// It used to set the gain scale to `inf`, so that every network graded
    /// at scaled gain 0, and the world's own `restore` refused its `state()`.
    #[test]
    fn an_infinite_capacity_enters_the_world_as_zero() {
        let mut networks = setting1_networks();
        networks[0] = NetworkSpec::wifi(0, f64::INFINITY);
        let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
        let event = BandwidthEvent {
            at_slot: 1,
            network: NetworkId(1),
            new_bandwidth_mbps: f64::INFINITY,
        };
        let mut env = CongestionEnvironment::new(
            networks,
            Topology::single_area(&ids),
            vec![event],
            profiles(1),
            SimulationConfig::default(),
            9,
        );
        assert_eq!(env.gain_scale(), 22.0);
        for slot in 0..2 {
            env.begin_slot(slot);
            let mut out = [None];
            env.feedback(slot, &[Some(NetworkId(2))], &mut out);
            let observation = out[0].as_ref().expect("the device is graded");
            assert_eq!(observation.bit_rate_mbps, 22.0, "slot {slot}");
            assert!(
                observation.scaled_gain > 0.0,
                "slot {slot}: {observation:?}"
            );
            let state = env.state().unwrap();
            env.restore(&state).unwrap();
            assert_eq!(env.state(), Some(state));
        }
        let state = env.state().unwrap();
        assert!(
            state.contains("[0,0.0]") && state.contains("[1,0.0]"),
            "{state}"
        );
    }

    #[test]
    fn a_device_state_without_an_area_is_refused() {
        let mut env = environment(1, Vec::new());
        env.begin_slot(0);
        let state = env.state().unwrap();
        // The shape written before devices named their area: a copy of the
        // area's networks and no area. Read with a default area, it would
        // restore a device that sees nothing.
        let copied = state.replacen(r#""area":0"#, r#""available":[0,1,2]"#, 1);
        assert_ne!(copied, state);
        let error = environment(1, Vec::new()).restore(&copied).unwrap_err();
        assert!(error.0.contains("missing field `area`"), "{error}");
    }

    /// A replicated multi-area world: `areas` areas of `per_area` devices,
    /// each area its own network triple (the scenario-library shape).
    fn replicated(areas: usize, per_area: usize) -> CongestionEnvironment {
        replicated_with_events(areas, per_area, Vec::new())
    }

    /// [`replicated`] with a bandwidth event schedule.
    fn replicated_with_events(
        areas: usize,
        per_area: usize,
        events: Vec<BandwidthEvent>,
    ) -> CongestionEnvironment {
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
            events,
            profiles,
            SimulationConfig::default(),
            21,
        )
    }

    #[test]
    fn restore_refuses_a_device_in_an_area_off_its_route() {
        let mut env = replicated(2, 2);
        env.begin_slot(0);
        let state = env.state().unwrap();
        // Device 0 stands in area 0; area 1's table indexes partition 1.
        let moved = state.replacen(r#""area":0"#, r#""area":1"#, 1);
        assert_ne!(moved, state);
        let mut restored = replicated(2, 2);
        let error = restored.restore(&moved).unwrap_err();
        assert!(error.0.starts_with("device 0 stands in area 1"), "{error}");
        assert_eq!(
            restored.state(),
            replicated(2, 2).state(),
            "a refused state leaves the world untouched"
        );
        restored.restore(&state).unwrap();
        assert_eq!(restored.state(), Some(state));
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
            SimulationConfig::default(),
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

    /// An observation with every float as its bit pattern, so comparisons
    /// are bit-exact.
    type ObservationBits = (
        usize,
        NetworkId,
        u64,
        u64,
        bool,
        u64,
        Option<Vec<(NetworkId, u64)>>,
    );

    fn observation_bits(observations: &[Option<Observation>]) -> Vec<Option<ObservationBits>> {
        observations
            .iter()
            .map(|observation| {
                observation.as_ref().map(|o| {
                    (
                        o.slot,
                        o.network,
                        o.bit_rate_mbps.to_bits(),
                        o.scaled_gain.to_bits(),
                        o.switched,
                        o.switching_delay_s.to_bits(),
                        o.full_gains
                            .as_ref()
                            .map(|gains| gains.iter().map(|&(n, g)| (n, g.to_bits())).collect()),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn incremental_bandwidth_updates_equal_a_rebuild() {
        // Slot 2 fires two events on network 4, one on network 100 (an
        // event-only network without a spec, owned by partition 0) and a
        // negative rate (`BandwidthEvent::new` would clamp it); slot 5
        // recovers two of them.
        let events = vec![
            BandwidthEvent::new(2, NetworkId(4), 5.0),
            BandwidthEvent::new(2, NetworkId(100), 40.0),
            BandwidthEvent {
                at_slot: 2,
                network: NetworkId(8),
                new_bandwidth_mbps: -3.0,
            },
            BandwidthEvent::new(2, NetworkId(4), 9.0),
            BandwidthEvent::new(5, NetworkId(4), 7.0),
            BandwidthEvent::new(5, NetworkId(8), 22.0),
        ];
        let build = || {
            let mut env = replicated_with_events(3, 4, events.clone());
            env.config.sharing = crate::sharing::SharingModel::testbed();
            for profile in env.profiles.iter_mut().step_by(3) {
                profile.needs_full_information = true;
            }
            assert!(env.set_telemetry(true));
            env
        };
        let mut env = build();
        let sessions = 12usize;
        let mut out: Vec<Option<Observation>> = vec![None; sessions];
        let mut out_twin: Vec<Option<Observation>> = vec![None; sessions];
        for slot in 0..8 {
            env.begin_slot(slot);
            // The twin rebuilds every capacity table from the state text.
            let mut twin = build();
            twin.restore(&env.state().unwrap()).unwrap();
            assert_eq!(env.game(), twin.game(), "slot {slot}");
            let bits = |table: &[f64]| table.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&env.bandwidth_by_index),
                bits(&twin.bandwidth_by_index),
                "slot {slot}"
            );
            let sums = |env: &CongestionEnvironment| {
                env.partitions
                    .iter()
                    .map(|p| p.owned_bandwidth.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(sums(&env), sums(&twin), "slot {slot}");

            let choices: Vec<Option<NetworkId>> = (0..sessions)
                .map(|i| {
                    ((i + slot) % 5 != 4).then(|| NetworkId(((i / 4) * 3 + (i + slot) % 3) as u32))
                })
                .collect();
            env.feedback(slot, &choices, &mut out);
            twin.feedback(slot, &choices, &mut out_twin);
            assert_eq!(
                observation_bits(&out),
                observation_bits(&out_twin),
                "slot {slot}"
            );
            assert_eq!(env.telemetry(), twin.telemetry(), "slot {slot}");
            assert_eq!(env.state(), twin.state(), "slot {slot}");
        }
        assert_eq!(env.game().rate(NetworkId(4)), Some(7.0));
        assert_eq!(env.game().rate(NetworkId(100)), Some(40.0));
    }

    #[test]
    fn a_choice_the_device_cannot_see_earns_nothing_but_pays_its_delay() {
        // Areas 0 (networks 0–2, sessions 0–1) and 1 (networks 3–5, sessions
        // 2–3). Network `d` switches in exactly 1 + d seconds.
        let build = || {
            let mut env = replicated(2, 2);
            env.delay_by_index = (0..6)
                .map(|dense| DelayModel::Constant(1.0 + dense as f64))
                .collect();
            env.profiles[0].needs_full_information = true;
            env
        };
        let mut sequential = build();
        let mut partitioned = build();
        let mut out: Vec<Option<Observation>> = vec![None; 4];
        let mut out_partitioned: Vec<Option<Observation>> = vec![None; 4];
        let slots = [
            [NetworkId(2), NetworkId(2), NetworkId(5), NetworkId(5)],
            // Session 0 picks area 1's network 4; session 2 an unknown id.
            [NetworkId(4), NetworkId(2), NetworkId(999), NetworkId(5)],
        ];
        for (slot, picks) in slots.iter().enumerate() {
            let choices: Vec<Option<NetworkId>> = picks.iter().copied().map(Some).collect();
            sequential.begin_slot(slot);
            partitioned.begin_slot(slot);
            sequential.feedback(slot, &choices, &mut out);
            partitioned.feedback_partitioned(
                slot,
                &choices,
                &mut out_partitioned,
                &ReverseExecutor,
            );
            assert_eq!(
                observation_bits(&out),
                observation_bits(&out_partitioned),
                "slot {slot}"
            );
        }
        assert_eq!(sequential.state(), partitioned.state());

        let invisible = out[0].as_ref().unwrap();
        assert_eq!(invisible.network, NetworkId(4));
        assert_eq!(invisible.bit_rate_mbps, 0.0);
        assert_eq!(invisible.scaled_gain, 0.0);
        assert!(invisible.switched);
        assert_eq!(invisible.switching_delay_s, 5.0, "network 4's delay model");
        let outcome = sequential.outcome(0, String::new(), 0);
        assert_eq!((outcome.switches, outcome.total_delay_seconds), (1, 5.0));
        // Counterfactuals cover exactly the visible networks; session 1 is
        // alone on network 2, and nobody loads network 4 in area 1.
        let scale = sequential.gain_scale();
        assert_eq!(
            invisible.full_gains.as_deref(),
            Some(
                &[
                    (NetworkId(0), 4.0 / scale),
                    (NetworkId(1), 7.0 / scale),
                    (NetworkId(2), 11.0 / scale),
                ][..]
            )
        );
        assert_eq!(out[1].as_ref().unwrap().bit_rate_mbps, 22.0);

        let unknown = out[2].as_ref().unwrap();
        assert_eq!(unknown.bit_rate_mbps, 0.0);
        assert!(unknown.switched);
        assert_eq!(
            unknown.switching_delay_s, 0.0,
            "unknown ids use DelayModel::None"
        );
        assert_eq!(sequential.outcome(2, String::new(), 0).switches, 1);
        assert_eq!(out[3].as_ref().unwrap().bit_rate_mbps, 22.0);
    }
}
