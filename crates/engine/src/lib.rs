//! # poptrie-engine
//!
//! A sharded multi-core forwarding engine over the Poptrie FIB — the
//! software-router deployment shape the paper benchmarks in §4.8
//! (multi-core scaling, Figure 10), built on the workspace's
//! [`SharedFib`](poptrie::sync::SharedFib) RCU model:
//!
//! * **N forwarding workers**, optionally pinned one per core, each
//!   draining a private bounded queue of packet batches through
//!   `lookup_batch` against an epoch-consistent FIB snapshot that is
//!   re-acquired per batch;
//! * **one control-plane writer** consuming announce/withdraw events
//!   from a bounded channel, coalescing duplicate-prefix updates per
//!   burst, applying them through the §3.5 incremental update, and
//!   publishing exactly one RCU snapshot per burst — every worker reads
//!   the one `SharedFib` handed to [`Engine::start`];
//! * **bounded queues everywhere** with non-blocking producers and drop
//!   accounting (backpressure sheds load, it never blocks the feeder);
//! * **QoS** ([`QosPolicy`]): an optional deadline-drop policy —
//!   admitted batches whose queue wait exceeds the deadline are dropped
//!   at pop with exact accounting instead of served late;
//! * **tail latency**: per-worker queue-wait and service-time
//!   `Log2Histogram`s, summarized to p50/p99/p99.9 in the report
//!   ([`LatencySummary`]);
//! * **panic isolation**: a worker panic is caught and the worker
//!   respawned in place, with a respawn counter;
//! * **graceful shutdown**: close queues, drain, join with a deadline,
//!   report what happened ([`EngineReport`]);
//! * **telemetry**: every edge counted under `poptrie_engine_*` metric
//!   families ([`EngineTelemetry`]).
//!
//! ## Quick start
//!
//! ```
//! use poptrie_engine::prelude::*;
//! use std::sync::Arc;
//!
//! let cfg = PoptrieConfig::new().direct_bits(16).build()?;
//! let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::with_config(cfg));
//! fib.insert("10.0.0.0/8".parse()?, 1)?;
//!
//! let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(2));
//! let ingress = engine.ingress();
//! let control = engine.control();
//!
//! // Dataplane: submit a packet batch (round-robin over workers).
//! let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32, 0x0B00_0001]);
//! ingress.try_submit(batch).expect("queues are empty");
//!
//! // Control plane: announce a route; the writer publishes it.
//! control.announce("11.0.0.0/8".parse()?, 2).expect("channel is empty");
//!
//! let report = engine.shutdown(std::time::Duration::from_secs(5));
//! assert_eq!(report.leaked_threads, 0);
//! assert!(report.drained_clean);
//! assert_eq!(report.packets, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod affinity;
mod engine;
mod queue;
mod stats;

pub use engine::{
    BadIndex, BatchHook, Control, Engine, EngineConfig, EngineReport, Ingress, LatencySummary,
    PublishHook, QosPolicy, WorkerReport,
};
pub use stats::{EngineTelemetry, WorkerStats};

pub use affinity::{pin_current_thread, NumaTopology};

pub use poptrie::VrfId;
pub use poptrie_vrf::VrfTable;

/// One-line import of the engine vocabulary plus the `poptrie` types an
/// engine driver always needs.
pub mod prelude {
    pub use crate::{
        Control, Engine, EngineConfig, EngineReport, EngineTelemetry, Ingress, LatencySummary,
        QosPolicy, VrfId, VrfTable,
    };
    pub use poptrie::prelude::{
        Applied, NextHop, PoptrieConfig, Prefix, RouteUpdate, SharedFib, UpdateError, NO_ROUTE,
    };
}

#[cfg(test)]
mod tests;
