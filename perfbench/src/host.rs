//! The run-condition record: which host, which dispatch tier, whether
//! perf counters exist and whether every thread sat on its own core.

use poptrie_bitops::BatchBackend;
use poptrie_engine::NumaTopology;

use crate::util::Obj;

#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub cores: usize,
    pub numa_nodes: usize,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub widest_backend: BatchBackend,
    pub perf_event_open: bool,
}

impl Host {
    pub fn detect() -> Host {
        let (l2_bytes, l3_bytes) = cache_sizes();
        Host {
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            numa_nodes: NumaTopology::detect().nodes(),
            l2_bytes,
            l3_bytes,
            widest_backend: BatchBackend::widest_available(),
            perf_event_open: poptrie_trace::PerfGroup::open().is_some(),
        }
    }

    pub fn to_json(&self) -> Obj {
        Obj::default()
            .str("cpu_model", &self.cpu_model)
            .int("cores", self.cores as u64)
            .int("numa_nodes", self.numa_nodes as u64)
            .int("l2_bytes", self.l2_bytes)
            .int("l3_bytes", self.l3_bytes)
            .str("widest_backend", self.widest_backend.name())
            .bool("perf_event_open", self.perf_event_open)
    }
}

/// The CPU set the calling thread may run on, as the kernel lists it
/// (`Cpus_allowed_list`), e.g. `"1"`.
pub fn allowed_cpus() -> String {
    cpus_in(std::path::Path::new("/proc/thread-self/status"))
}

/// The CPU set of this process's thread called `name` (empty if none).
pub fn thread_cpus(name: &str) -> String {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return String::new();
    };
    tasks
        .flatten()
        .find(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))
        .map(|t| cpus_in(&t.path().join("status")))
        .unwrap_or_default()
}

fn cpus_in(status: &std::path::Path) -> String {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default()
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for w in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// Per-core L2 and shared L3 sizes from CPUID leaf 4 (deterministic
/// cache parameters); zeros where the leaf is missing.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (u64, u64) {
    use std::arch::x86_64::__cpuid_count;
    // Leaf 0 reports the highest standard leaf.
    if std::arch::x86_64::__cpuid(0).eax < 4 {
        return (0, 0);
    }
    let (mut l2, mut l3) = (0, 0);
    for sub in 0..16 {
        // Subleaves past the last cache report type 0 and end the walk.
        let r = __cpuid_count(4, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
        let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
        let line = (r.ebx & 0xfff) as u64 + 1;
        let sets = r.ecx as u64 + 1;
        let size = ways * parts * line * sets;
        match level {
            2 => l2 = size,
            3 => l3 = size,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (u64, u64) {
    (0, 0)
}
