//! CPU pinning for worker threads, without libc, and the host's NUMA
//! node count.
//!
//! The paper's multi-core scaling experiment (§4.8, Figure 10) pins one
//! forwarding thread per core so the per-core caches hold each worker's
//! share of the FIB and the scheduler cannot migrate workers mid-burst.
//! The workspace carries no external dependencies, so instead of
//! `libc::sched_setaffinity` this issues the raw Linux syscall with
//! inline assembly on x86-64 and degrades to a no-op elsewhere — pinning
//! is a performance hint, never a correctness requirement.

/// Highest CPU index representable in the affinity mask (1024 CPUs, the
/// kernel's default `CPU_SETSIZE`).
const MASK_WORDS: usize = 16;

/// Pin the calling thread to `core` (modulo the mask width). Returns
/// `true` if the kernel accepted the mask, `false` where pinning is
/// unsupported (non-Linux, non-x86-64) or refused.
pub fn pin_current_thread(core: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let core = core % (MASK_WORDS * 64);
    mask[core / 64] |= 1u64 << (core % 64);
    set_affinity(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
    // sched_setaffinity(pid = 0 → calling thread, cpusetsize, mask).
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let ret: i64;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") core::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: &[u64; MASK_WORDS]) -> bool {
    false
}

/// The machine's NUMA layout, as far as the host record needs it: the
/// number of memory nodes.
///
/// Counted from the `node<N>` directories under
/// `/sys/devices/system/node` on Linux; anywhere that surface is missing
/// the count is 1.
#[derive(Debug, Clone)]
pub struct NumaTopology {
    /// Number of nodes (at least 1).
    nodes: usize,
}

impl NumaTopology {
    /// Detect the running machine's topology (one node when sysfs is
    /// unavailable).
    pub fn detect() -> Self {
        Self::from_sysfs(std::path::Path::new("/sys/devices/system/node"))
    }

    /// Number of memory nodes (≥ 1).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn from_sysfs(root: &std::path::Path) -> Self {
        let is_node = |name: &str| {
            name.strip_prefix("node")
                .is_some_and(|id| id.parse::<usize>().is_ok())
        };
        let nodes = std::fs::read_dir(root)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_str().is_some_and(is_node))
                    .count()
            })
            .unwrap_or(0);
        NumaTopology {
            nodes: nodes.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_harmless() {
        // Whether or not the platform supports it, the call must not
        // disturb the thread.
        let _ = pin_current_thread(0);
        let handle = std::thread::spawn(|| {
            let ok = pin_current_thread(1);
            // Work still runs on the (possibly pinned) thread.
            (ok, (0..100u64).sum::<u64>())
        });
        let (_, sum) = handle.join().unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn synthetic_sysfs_topology() {
        // A fake two-socket sysfs tree, plus entries that must be
        // ignored: non-node names.
        let dir = std::env::temp_dir().join(format!("poptrie-numa-{}", std::process::id()));
        for name in ["node0", "node1", "possible", "nodex"] {
            std::fs::create_dir_all(dir.join(name)).unwrap();
        }
        let t = NumaTopology::from_sysfs(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(t.nodes(), 2);
        assert_eq!(
            NumaTopology::from_sysfs(&dir).nodes(),
            1,
            "a missing tree counts as one node"
        );
    }

    #[test]
    fn detection_always_yields_a_usable_topology() {
        assert!(NumaTopology::detect().nodes() >= 1);
    }
}
