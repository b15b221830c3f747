//! Device identity and per-device run outcomes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// Per-device results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceOutcome {
    /// Device identifier.
    pub id: DeviceId,
    /// Name of the policy the device ran.
    pub policy_name: String,
    /// Total download over the run, in megabits (goodput: switching delays
    /// subtracted from the usable slot time).
    pub download_megabits: f64,
    /// Number of network switches (simulator-observed).
    pub switches: u64,
    /// Number of resets reported by the policy.
    pub resets: u64,
    /// Number of slots in which the device was active.
    pub active_slots: usize,
    /// Total switching delay paid, in seconds.
    pub total_delay_seconds: f64,
}

impl DeviceOutcome {
    /// Download expressed in megabytes.
    #[must_use]
    pub fn download_megabytes(&self) -> f64 {
        self.download_megabits / 8.0
    }

    /// Download expressed in gigabytes.
    #[must_use]
    pub fn download_gigabytes(&self) -> f64 {
        self.download_megabits / 8000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_unit_conversions() {
        let outcome = DeviceOutcome {
            id: DeviceId(0),
            policy_name: "test".to_string(),
            download_megabits: 16_000.0,
            switches: 0,
            resets: 0,
            active_slots: 10,
            total_delay_seconds: 0.0,
        };
        assert_eq!(outcome.download_megabytes(), 2000.0);
        assert_eq!(outcome.download_gigabytes(), 2.0);
        assert_eq!(DeviceId(7).to_string(), "dev#7");
    }
}
