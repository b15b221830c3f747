//! Error types returned by policy constructors.

use std::error::Error;
use std::fmt;

/// Error returned when a policy is constructed with an invalid configuration.
///
/// All policy constructors validate their arguments (`C-VALIDATE`): at least
/// one network must be available, each listed once, and the centralized
/// oracle's rates must be finite and positive.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A numeric parameter was outside its documented range.
    ParameterOutOfRange {
        /// Name of the offending parameter (e.g. `"beta"`).
        parameter: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the accepted range.
        expected: &'static str,
    },
    /// The policy was constructed with an empty set of networks.
    NoNetworks,
    /// The same network identifier appeared more than once.
    DuplicateNetwork(crate::NetworkId),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ParameterOutOfRange {
                parameter,
                value,
                expected,
            } => write!(
                f,
                "parameter `{parameter}` = {value} is out of range (expected {expected})"
            ),
            ConfigError::NoNetworks => write!(f, "at least one network must be available"),
            ConfigError::DuplicateNetwork(id) => {
                write!(
                    f,
                    "network {id} appears more than once in the available set"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// Validates an arm list: non-empty and free of duplicates. A duplicate is
/// reported as the first network, in list order, that repeats an earlier
/// one.
///
/// One sort of `(network, position)` pairs rather than a set insert per
/// network: policies are built per session, and at hundreds of networks the
/// set's per-node allocations were most of a dense world's build time.
pub(crate) fn check_networks(networks: &[crate::NetworkId]) -> Result<(), ConfigError> {
    if networks.is_empty() {
        return Err(ConfigError::NoNetworks);
    }
    let mut positioned: Vec<(crate::NetworkId, usize)> =
        networks.iter().copied().zip(0..).collect();
    positioned.sort_unstable();
    // Within a run of equal networks the positions ascend, so each adjacent
    // equal pair's second position is a repeat; the earliest is the first.
    match positioned
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| pair[1].1)
        .min()
    {
        Some(repeat) => Err(ConfigError::DuplicateNetwork(networks[repeat])),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkId;

    #[test]
    fn networks_must_be_unique_and_nonempty() {
        assert_eq!(check_networks(&[]), Err(ConfigError::NoNetworks));
        assert_eq!(
            check_networks(&[NetworkId(1), NetworkId(1)]),
            Err(ConfigError::DuplicateNetwork(NetworkId(1)))
        );
        assert!(check_networks(&[NetworkId(0), NetworkId(1)]).is_ok());
        // The first repeat in list order is reported, not the smallest id.
        let ids = |raw: &[u32]| raw.iter().copied().map(NetworkId).collect::<Vec<_>>();
        assert_eq!(
            check_networks(&ids(&[5, 2, 9, 2, 5, 5])),
            Err(ConfigError::DuplicateNetwork(NetworkId(2)))
        );
        assert_eq!(
            check_networks(&ids(&[7, 3, 3, 7])),
            Err(ConfigError::DuplicateNetwork(NetworkId(3)))
        );
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = ConfigError::ParameterOutOfRange {
            parameter: "beta",
            value: 2.0,
            expected: "a finite value in (0, 1]",
        };
        let msg = err.to_string();
        assert!(msg.contains("beta"));
        assert!(msg.contains("2"));
    }
}
