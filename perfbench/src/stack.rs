//! The serving stack under test, built the way a router would build it,
//! plus the hooks the benchmark observes it through.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use poptrie::sync::SharedFib;
use poptrie::VrfId;
use poptrie_engine::{
    BatchHook, Control, Engine, EngineConfig, EngineTelemetry, Ingress, PublishHook, VrfTable,
};
use poptrie_rib::{NextHop, RadixTree};

use crate::inputs::Inputs;
use crate::util::now_ns;

/// Leaf slots of the VRF group's shared arena (two bytes each).
const VRF_LEAF_SLOTS: u32 = 1 << 22;
/// Keys of a sampled batch kept for the oracle.
const SAMPLE_KEYS: usize = 64;
/// Ring of due times, indexed by batch sequence number; larger than the
/// engine's default 64-batch queue plus the batch in service.
const DUE_RING: usize = 1024;

pub const MODE_COUNT: u8 = 0;
pub const MODE_LATENCY: u8 = 1;

/// A served batch kept for the oracle: which pre-built batch it was, the
/// snapshot version that served it, and its first keys and answers.
pub struct Sample {
    pub ptr: usize,
    pub version: u64,
    pub keys: Vec<u32>,
    pub nhs: Vec<NextHop>,
}

/// One engine-FIB publish, seen from the writer's publish hook: its
/// version, when the hook ran, and how many update events the writer
/// had drained by then.
#[derive(Clone, Copy)]
pub struct Publish {
    pub version: u64,
    pub t_ns: u64,
    pub drained: u64,
}

/// Maps a served batch back to its tenant by the address of its keys,
/// so the traced VRF run can time when each tenant first serves a new
/// version.
pub struct TenantMap {
    ptrs: Vec<(usize, u32)>,
    last: Vec<AtomicU64>,
    pub log: Mutex<Vec<(u32, u64, u64)>>,
}

impl TenantMap {
    pub fn new(inputs: &Inputs) -> Self {
        let mut ptrs: Vec<(usize, u32)> = inputs
            .batches
            .iter()
            .zip(&inputs.batch_vrf)
            .map(|(b, v)| (b.as_ptr() as usize, v.index() as u32))
            .collect();
        ptrs.sort_unstable();
        TenantMap {
            ptrs,
            last: (0..crate::inputs::TENANTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn tenant_of(&self, ptr: usize) -> Option<u32> {
        self.ptrs
            .binary_search_by_key(&ptr, |&(p, _)| p)
            .ok()
            .map(|i| self.ptrs[i].1)
    }
}

/// State shared between the feeder and the engine's hooks.
pub struct Probe {
    /// Batches served since the engine started. One worker serves one
    /// FIFO queue, so the n-th served batch is the n-th accepted one.
    pub served: AtomicU64,
    pub mode: AtomicU8,
    /// Due time of each accepted batch, written by the feeder before the
    /// submit that hands the batch to the worker.
    due: Box<[AtomicU64]>,
    /// Sequence number of the first batch of the latency window.
    pub lat_base: AtomicU64,
    /// Sojourn (due time to hook) of each batch of the latency window, ns.
    pub lat: Box<[AtomicU32]>,
    last_version: AtomicU64,
    /// First served batch at each new engine-FIB version: (version, ns).
    pub adopts: Mutex<Vec<(u64, u64)>>,
    pub publishes: Mutex<Vec<Publish>>,
    pub samples: Mutex<Vec<Sample>>,
    sample_every: u64,
    vrf: bool,
    pub tenants: Option<TenantMap>,
    pub telemetry: OnceLock<Arc<EngineTelemetry>>,
}

impl Probe {
    pub fn new(
        batch_keys: usize,
        lat_capacity: usize,
        vrf: bool,
        tenants: Option<TenantMap>,
    ) -> Self {
        Probe {
            served: AtomicU64::new(0),
            mode: AtomicU8::new(MODE_COUNT),
            due: (0..DUE_RING).map(|_| AtomicU64::new(0)).collect(),
            lat_base: AtomicU64::new(0),
            lat: (0..lat_capacity)
                .map(|_| AtomicU32::new(u32::MAX))
                .collect(),
            last_version: AtomicU64::new(u64::MAX),
            adopts: Mutex::new(Vec::new()),
            publishes: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            sample_every: (65_536 / batch_keys.max(1)) as u64,
            vrf,
            tenants,
            telemetry: OnceLock::new(),
        }
    }

    pub fn set_due(&self, seq: u64, due_ns: u64) {
        self.due[seq as usize % DUE_RING].store(due_ns, Relaxed);
    }

    fn on_batch(&self, keys: &[u32], nhs: &[NextHop], version: u64) {
        let seq = self.served.fetch_add(1, Relaxed);
        if self.mode.load(Relaxed) == MODE_LATENCY {
            let t = now_ns();
            let due = self.due[seq as usize % DUE_RING].load(Relaxed);
            let j = seq.wrapping_sub(self.lat_base.load(Relaxed)) as usize;
            if let Some(slot) = self.lat.get(j) {
                slot.store(
                    t.saturating_sub(due).min(u32::MAX as u64 - 1) as u32,
                    Relaxed,
                );
            }
        }
        if !self.vrf && version != self.last_version.load(Relaxed) {
            self.last_version.store(version, Relaxed);
            lock(&self.adopts).push((version, now_ns()));
        }
        if let Some(map) = &self.tenants {
            if let Some(t) = map.tenant_of(keys.as_ptr() as usize) {
                if version > map.last[t as usize].load(Relaxed) {
                    map.last[t as usize].store(version, Relaxed);
                    lock(&map.log).push((t, version, now_ns()));
                }
            }
        }
        if seq.is_multiple_of(self.sample_every) {
            let n = keys.len().min(SAMPLE_KEYS);
            lock(&self.samples).push(Sample {
                ptr: keys.as_ptr() as usize,
                version,
                keys: keys[..n].to_vec(),
                nhs: nhs[..n].to_vec(),
            });
        }
    }

    fn on_publish(&self, version: u64) {
        let drained = self.telemetry.get().map_or(0, |t| t.update_events.get());
        lock(&self.publishes).push(Publish {
            version,
            t_ns: now_ns(),
            drained,
        });
    }
}

pub fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark hook panicked while holding its log")
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub rib_s: f64,
    pub compile_s: f64,
    pub start_s: f64,
    pub total_s: f64,
}

pub struct Stack {
    pub engine: Engine<u32>,
    pub fib: Arc<SharedFib<u32>>,
    pub vrfs: Option<Arc<VrfTable<u32>>>,
    pub probe: Arc<Probe>,
    pub ingress: Ingress<u32>,
    pub control: Control<u32>,
    pub telemetry: Arc<EngineTelemetry>,
    /// Batches accepted by the engine so far.
    pub accepted: u64,
}

impl Stack {
    /// Route list in memory → RIB built → FIB compiled (every tenant on
    /// the VRF workload) → engine started → first batch served. One
    /// engine worker; every other engine setting stays at its default.
    pub fn build(inputs: &Inputs, probe: Probe) -> (Stack, SetupTimes) {
        let t0 = Instant::now();
        let vrf = !inputs.tenants.is_empty();
        let (fib, vrfs, t1, t2) = if vrf {
            let ribs: Vec<RadixTree<u32, NextHop>> = inputs
                .tenants
                .iter()
                .map(|r| RadixTree::from_routes(r.iter().copied()))
                .collect();
            let t1 = t0.elapsed();
            let vrfs = Arc::new(VrfTable::shared(inputs.config, VRF_LEAF_SLOTS));
            for rib in ribs {
                vrfs.create_from(rib);
            }
            let t2 = t0.elapsed();
            (
                Arc::new(SharedFib::with_config(inputs.config)),
                Some(vrfs),
                t1,
                t2,
            )
        } else {
            let rib = RadixTree::from_routes(inputs.routes.iter().copied());
            let t1 = t0.elapsed();
            let fib = Arc::new(SharedFib::compile(rib, inputs.config));
            (fib, None, t1, t0.elapsed())
        };
        let probe = Arc::new(probe);
        let on_batch: BatchHook<u32> = {
            let p = Arc::clone(&probe);
            Arc::new(move |_, keys, nhs, version| p.on_batch(keys, nhs, version))
        };
        let on_publish: PublishHook<u32> = {
            let p = Arc::clone(&probe);
            Arc::new(move |outcome, _| p.on_publish(outcome.version))
        };
        let mut config = EngineConfig::new(1)
            .on_batch(on_batch)
            .on_publish(on_publish);
        if let Some(v) = &vrfs {
            config = config.vrfs(Arc::clone(v));
        }
        let engine = Engine::start(Arc::clone(&fib), config);
        let telemetry = engine.telemetry();
        let _ = probe.telemetry.set(Arc::clone(&telemetry));
        let mut stack = Stack {
            ingress: engine.ingress(),
            control: engine.control(),
            engine,
            fib,
            vrfs,
            probe,
            telemetry,
            accepted: 0,
        };
        while !stack.submit(inputs, 0) {
            std::hint::spin_loop();
        }
        stack.drain_batches();
        let total = t0.elapsed();
        let times = SetupTimes {
            rib_s: t1.as_secs_f64(),
            compile_s: (t2 - t1).as_secs_f64(),
            start_s: (total - t2).as_secs_f64(),
            total_s: total.as_secs_f64(),
        };
        (stack, times)
    }

    /// Offer pre-built batch `i` (modulo the pool) to the engine; true
    /// when accepted.
    #[inline]
    pub fn submit(&mut self, inputs: &Inputs, i: usize) -> bool {
        let i = i % inputs.batches.len();
        let batch = Arc::clone(&inputs.batches[i]);
        let ok = match inputs.batch_vrf.get(i) {
            Some(&vrf) => self.ingress.try_submit_vrf(vrf, batch).is_ok(),
            None => self.ingress.try_submit(batch).is_ok(),
        };
        self.accepted += ok as u64;
        ok
    }

    /// Wait until every accepted batch has been served.
    pub fn drain_batches(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.probe.served.load(Relaxed) < self.accepted && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Wait until the writer has drained `events` update events.
    pub fn drain_updates(&self, events: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.telemetry.update_events.get() < events && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn tenant_fib(&self, vrf: VrfId) -> Arc<SharedFib<u32>> {
        self.vrfs
            .as_ref()
            .and_then(|v| v.get(vrf))
            .expect("tenant ids come from the workload's own registry")
    }
}
