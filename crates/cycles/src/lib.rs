//! CPU-cycle measurement and statistics (§4.6 of the paper).
//!
//! The paper measures per-lookup CPU cycles "with the performance
//! monitoring counters (PMCs)" on a single-task OS, subtracting the
//! constant 83-cycle PMC read overhead, and reports distributions
//! (Figure 10's CDF, Figure 11's per-depth candlesticks, Table 4's
//! percentiles). PMCs and a single-task OS are not available here
//! (DESIGN.md substitution 4); instead:
//!
//! * [`tsc`] reads the time-stamp counter with serializing fences
//!   (`RDTSC` bracketed by `LFENCE`), the standard user-space equivalent,
//!   and [`tsc::overhead`] calibrates and exposes the constant measurement
//!   cost so harnesses can subtract it like the paper does; [`tsc::now`]
//!   is the one unfenced read, for cheap timestamps;
//! * [`stats`] computes the exact statistics the paper reports:
//!   [`stats::Percentiles`] (Table 4), [`stats::Cdf`] (Figure 10) and
//!   [`stats::Candlestick`] (Figure 11);
//! * [`heatmap`] renders the Figure 7 binary-radix-depth heat map as text
//!   with logarithmic intensity buckets.
//!
//! Absolute cycle counts will differ from the paper's 3.9 GHz Haswell;
//! the distribution *shapes* are the reproduction target.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod heatmap;
pub mod stats;
pub mod tsc;

pub use heatmap::Heatmap;
pub use stats::{Candlestick, Cdf, Percentiles};
pub use tsc::{cycles_per_second, measure_batch, overhead, rdtsc_serialized};

#[cfg(test)]
mod tests;
