//! # netsim
//!
//! The slot-driven wireless network selection world used to evaluate Smart
//! EXP3 (replacing the SimPy setup of the paper):
//!
//! * [`NetworkSpec`] / [`Technology`] — WiFi and cellular networks with a
//!   shared bandwidth and technology-specific switching-delay models
//!   (Johnson's SU for WiFi, Student's t for cellular, sampled by
//!   [`stats`]);
//! * [`Topology`] / [`ServiceArea`] — the Figure 1 map: which networks are
//!   visible from where, and device mobility between areas;
//! * [`DeviceProfile`] — a device's starting area, activity window
//!   (join/leave) and scheduled moves;
//! * [`SharingModel`] — equal-share bandwidth division (simulation) or noisy,
//!   unequal shares (testbed emulation, [`testbed`]);
//! * [`CongestionEnvironment`] — the world as a
//!   [`smartexp3_core::Environment`]: per slot it splits bandwidth among the
//!   devices that picked each network, charges switching delays, grades
//!   every choice and, with a recorder attached, collects the paper's
//!   evaluation metrics into a [`RunResult`]. The fleet engine
//!   (`smartexp3-engine`) steps it; each device's policy is one session of
//!   the fleet.
//!
//! ```rust
//! use netsim::{
//!     setting1_networks, AreaId, CongestionEnvironment, DeviceProfile, SimulationConfig,
//!     Topology,
//! };
//! use smartexp3_core::{NetworkId, PolicyFactory, PolicyKind};
//! use smartexp3_engine::{FleetConfig, FleetEngine};
//!
//! # fn main() -> Result<(), smartexp3_core::ConfigError> {
//! let networks = setting1_networks();
//! let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
//! let mut factory =
//!     PolicyFactory::new(networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect())?;
//! let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(42));
//! fleet.add_fleet(&mut factory, PolicyKind::SmartExp3, 20)?;
//! let profiles = (0..20)
//!     .map(|id| DeviceProfile::new(id, AreaId(0), ids.clone()))
//!     .collect();
//! let seed = fleet.config().environment_seed();
//! let topology = Topology::single_area(&ids);
//! let config = SimulationConfig::default();
//! let mut env = CongestionEnvironment::new(networks, topology, Vec::new(), profiles, config, seed)
//!     .with_recorder();
//! fleet.run_env(&mut env, 200);
//! let outcomes = (0..fleet.len())
//!     .map(|index| env.outcome(index, "Smart EXP3".to_string(), 0))
//!     .collect();
//! let result = env.into_result(outcomes).expect("the recorder is attached");
//! assert!(result.total_download_megabits() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod device;
mod env;
mod event;
mod network;
mod recorder;
mod sharing;
pub mod stats;
pub mod testbed;
mod topology;

pub use delay::DelayModel;
pub use device::{DeviceId, DeviceOutcome};
pub use env::{CongestionEnvironment, DeviceProfile, SimulationConfig};
pub use event::{BandwidthEvent, EventSchedule};
pub use network::{
    figure1_networks, setting1_networks, setting2_networks, NetworkSpec, Technology,
};
pub use recorder::{RunRecorder, RunResult, SelectionRecord, DENSE_RECORDER_MAX_SESSIONS};
pub use sharing::SharingModel;
pub use topology::{AreaId, ServiceArea, Topology};
