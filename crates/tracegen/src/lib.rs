//! # tracegen
//!
//! Synthetic WiFi/cellular bit-rate traces for the trace-driven evaluation
//! of §VI-B of the Smart EXP3 paper.
//!
//! The paper's own traces (collected with speedtest downloads over a public
//! WiFi network and a cellular network) are not published; this crate
//! generates pairs with the same qualitative structure (see
//! [`paper_trace_pair`]). A pair's two networks are [`WIFI`] and
//! [`CELLULAR`]. The fleet engine replays policies against the pairs through
//! `smartexp3-env`'s `TraceEnvironment`, which produces the cumulative
//! download and switching-cost numbers of Table VI and the per-slot
//! selection overlay of Figure 12.
//!
//! ```rust
//! use tracegen::paper_trace_pair;
//!
//! let pair = paper_trace_pair(3, 100, 42);
//! assert_eq!(pair.len(), 100);
//! println!("an oracle downloads {:.1} MB", pair.oracle_megabytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod trace;

pub use generator::{paper_trace_pair, Regime, TracePair, TraceProfile, CELLULAR, WIFI};
pub use trace::{ParseTraceError, Trace};
