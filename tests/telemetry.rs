//! Differential accounting tests for the runtime telemetry layer.
//!
//! Runs fully scripted workloads — known numbers of lookups (scalar and
//! batched), announces, withdraws and rebuilds, on both `u32` and `u128`
//! keys, and batched lookups on every available dispatch tier — and
//! asserts the process-wide counters reconcile with the script *exactly*:
//! no sampling, no slop, every event accounted for once.
//!
//! Without `--features observe` this file compiles to an empty test
//! binary: the counters do not exist, which is itself the property the CI
//! symbol-absence check asserts on the release artifacts.
//!
//! The counters are process-global and the harness runs tests in
//! parallel threads, so every test that touches a `Poptrie` holds
//! [`COUNTERS`] for its whole body; a test that does not would race the
//! totals. Keep it that way.
#![cfg(feature = "observe")]

use poptrie_suite::poptrie::sync::SharedFib;
use poptrie_suite::poptrie::telemetry::{self, LookupPhase, DEPTH_BUCKETS};
use poptrie_suite::poptrie::{BatchBackend, PoptrieConfig, BATCH_LANES};
use poptrie_suite::{Fib, NextHop, Prefix};
use std::sync::Mutex;

/// Serializes the tests of this binary: they share the process-wide
/// counters. It guards no data, and each test resets the counters
/// first, so a sibling's panic while holding it leaves nothing to
/// recover.
static COUNTERS: Mutex<()> = Mutex::new(());

fn cfg16() -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(16)
        .aggregate(false)
        .build()
        .unwrap()
}

/// The scripted ground truth, accumulated while driving the workload.
#[derive(Default)]
struct Script {
    scalar: u64,
    batched: u64,
    batch_calls: u64,
    announces: u64,
    withdraws: u64,
    rebuilds: u64,
    rcu_publishes: u64,
}

impl Script {
    fn insert<K: poptrie_suite::rib::Bits>(&mut self, fib: &mut Fib<K>, prefix: &str, nh: NextHop)
    where
        Prefix<K>: std::str::FromStr,
        <Prefix<K> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let p: Prefix<K> = prefix.parse().expect("prefix");
        // Only RIB-changing announces are counted (re-announcing the
        // current next hop is a documented no-op).
        if fib.rib().get(p) != Some(&nh) {
            self.announces += 1;
        }
        fib.insert(p, nh).unwrap();
    }

    fn remove<K: poptrie_suite::rib::Bits>(&mut self, fib: &mut Fib<K>, prefix: &str)
    where
        Prefix<K>: std::str::FromStr,
        <Prefix<K> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let p: Prefix<K> = prefix.parse().expect("prefix");
        if fib.remove(p).unwrap().changed() {
            self.withdraws += 1;
        }
    }

    fn lookups<K: poptrie_suite::rib::Bits>(&mut self, fib: &Fib<K>, keys: &[K]) {
        for &k in keys {
            let _ = fib.lookup(k);
        }
        self.scalar += keys.len() as u64;
        let mut out = vec![0; keys.len()];
        fib.poptrie().lookup_batch(keys, &mut out);
        self.batched += keys.len() as u64;
        self.batch_calls += keys.len().div_ceil(BATCH_LANES) as u64;
    }
}

#[test]
fn counters_reconcile_exactly_with_scripted_workload() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    let mut script = Script::default();

    // ---- u32 phase: a small table spanning direct-only, shallow and
    // deep prefixes (direct bits 16 -> /24 resolves at depth 2).
    let mut v4: Fib<u32> = Fib::with_config(cfg16());
    script.insert(&mut v4, "0.0.0.0/0", 1);
    script.insert(&mut v4, "10.0.0.0/8", 2);
    script.insert(&mut v4, "10.128.0.0/9", 3);
    script.insert(&mut v4, "192.0.2.0/24", 4);
    script.insert(&mut v4, "192.0.2.128/25", 5);
    script.insert(&mut v4, "198.51.100.0/28", 6);
    script.insert(&mut v4, "198.51.100.0/28", 6); // no-op re-announce
    script.insert(&mut v4, "198.51.100.0/28", 7); // next-hop change: counts
    script.remove(&mut v4, "10.128.0.0/9");
    script.remove(&mut v4, "10.128.0.0/9"); // already gone: not counted
    script.remove(&mut v4, "203.0.113.0/24"); // never existed: not counted

    // Keys chosen to exercise every script route plus the default; count
    // deliberately not a multiple of BATCH_LANES so one chunk is partial.
    let mut v4_keys = Vec::new();
    for i in 0..(3 * BATCH_LANES as u32 + 3) {
        v4_keys.push(match i % 5 {
            0 => 0x0A00_0000 + i,        // 10.0.0.0/8
            1 => 0xC000_0200 + (i % 96), // 192.0.2.0/24 (+/25 half)
            2 => 0xC633_6400 + (i % 16), // 198.51.100.0/28
            3 => 0xCB00_7100 + i,        // 203.0.113.x -> default route
            _ => i,                      // 0.x.y.z -> default route
        });
    }
    script.lookups(&v4, &v4_keys);
    v4.rebuild();
    script.rebuilds += 1;

    // ---- u128 phase: same shape on IPv6-width keys.
    let mut v6: Fib<u128> = Fib::with_config(cfg16());
    script.insert(&mut v6, "::/0", 1);
    script.insert(&mut v6, "2001:db8::/32", 2);
    script.insert(&mut v6, "2001:db8:aa::/48", 3);
    script.insert(&mut v6, "2001:db8:aa:bb::/64", 4);
    script.insert(&mut v6, "2001:db8:aa:bb::/64", 4); // no-op re-announce
    script.remove(&mut v6, "2001:db8:aa::/48");
    script.remove(&mut v6, "fe80::/10"); // never existed: not counted
    let base: u128 = "2001:db8::".parse::<std::net::Ipv6Addr>().unwrap().into();
    let mut v6_keys = Vec::new();
    for i in 0..(2 * BATCH_LANES as u128 + 1) {
        v6_keys.push(match i % 3 {
            0 => base + i,                    // 2001:db8::/32
            1 => base + (0xbbu128 << 64) + i, // 2001:db8:0:bb::... still /32
            _ => i,                           // ::x -> default route
        });
    }
    script.lookups(&v6, &v6_keys);
    v6.rebuild();
    script.rebuilds += 1;

    // ---- RCU phase: publishes = every insert call + applied withdraws.
    let shared: SharedFib<u32> = SharedFib::with_config(cfg16());
    let parked = shared.snapshot(); // hold one snapshot across publishes
    shared.insert("0.0.0.0/0".parse().unwrap(), 1).unwrap();
    script.announces += 1;
    script.rcu_publishes += 1;
    shared.insert("0.0.0.0/0".parse().unwrap(), 1).unwrap(); // no-op announce...
    script.rcu_publishes += 1; // ...but SharedFib still publishes
    shared.insert("172.16.0.0/12".parse().unwrap(), 2).unwrap();
    script.announces += 1;
    script.rcu_publishes += 1;
    assert!(shared
        .remove("172.16.0.0/12".parse().unwrap())
        .unwrap()
        .changed());
    script.withdraws += 1;
    script.rcu_publishes += 1;
    assert!(!shared
        .remove("172.16.0.0/12".parse().unwrap())
        .unwrap()
        .changed());
    // gone already: no publish
    drop(parked);

    // ---- reconciliation: every total matches the script exactly.
    let t = telemetry::snapshot();
    assert_eq!(t.lookups_scalar, script.scalar, "scalar lookups");
    assert_eq!(t.lookups_batched, script.batched, "batched lookups");
    assert_eq!(t.batch_calls, script.batch_calls, "batch chunk calls");
    assert_eq!(
        t.batch_fill.iter().sum::<u64>(),
        script.batch_calls,
        "batch fill histogram mass == chunk calls"
    );
    // Two partial chunks were scripted (3 spare u32 keys, 1 spare u128).
    assert_eq!(t.batch_fill[3], 1, "one 3-key partial chunk");
    assert_eq!(t.batch_fill[1], 1, "one 1-key partial chunk");
    assert_eq!(
        t.depth.iter().sum::<u64>(),
        t.lookups_total(),
        "depth histogram mass == lookups"
    );
    assert_eq!(
        t.direct_hits + t.leafvec_resolutions + t.vector_resolutions,
        t.lookups_total(),
        "every lookup resolved exactly once"
    );
    assert_eq!(t.depth[0], t.direct_hits, "depth 0 == direct hits");
    // /24, /25 and /28 routes sit below direct bits 16, so some scripted
    // keys must have descended the trie.
    assert!(t.leafvec_resolutions + t.vector_resolutions > 0, "descents");
    assert_eq!(t.announces, script.announces, "applied announces");
    assert_eq!(t.withdraws, script.withdraws, "applied withdraws");
    assert_eq!(t.rebuilds, script.rebuilds, "rebuilds");
    assert_eq!(
        t.update_latency.iter().sum::<u64>(),
        script.announces + script.withdraws + script.rebuilds,
        "latency histogram mass == applied updates + rebuilds"
    );
    assert_eq!(t.rcu_publishes, script.rcu_publishes, "RCU publishes");
    assert_eq!(t.rcu_outstanding_peak, 1, "one parked snapshot at peak");
    // Structural work balances: the fibs are still alive, so allocations
    // can exceed frees, never the reverse.
    assert!(t.nodes_allocated >= t.nodes_freed, "node balance");
    assert!(t.leaves_allocated >= t.leaves_freed, "leaf balance");

    // The exposition layers agree with the snapshot they render.
    let prom = t.render_prometheus();
    assert!(prom.contains(&format!(
        "poptrie_lookups_total{{mode=\"scalar\"}} {}",
        script.scalar
    )));
    assert!(prom.contains(&format!(
        "poptrie_rcu_publishes_total {}",
        script.rcu_publishes
    )));
    let json = t.render_json();
    assert!(json.contains(&format!(
        "\"poptrie_lookups_total{{mode=scalar}}\": {}",
        script.scalar
    )));

    // reset() really zeroes everything a fresh process would show.
    telemetry::reset();
    let z = telemetry::snapshot();
    assert_eq!(z.lookups_total(), 0);
    assert_eq!(z.updates_total(), 0);
    assert_eq!(z.depth.iter().sum::<u64>(), 0);
}

/// Every dispatch tier counts each batched key exactly once, at the depth
/// `lookup_phase` predicts for it, and accounts its chunks in
/// `BATCH_LANES`-sized equivalents, so the counters reconcile the same way
/// whichever walker served the batch.
#[test]
fn counters_reconcile_on_every_dispatch_tier() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // Direct bits 16: the default and the /8 resolve in the direct table,
    // the /24, /25 and /28 one and two levels below it.
    let mut fib: Fib<u32> = Fib::with_config(cfg16());
    for (p, nh) in [
        ("0.0.0.0/0", 1),
        ("10.0.0.0/8", 2),
        ("192.0.2.0/24", 3),
        ("192.0.2.128/25", 4),
        ("198.51.100.0/28", 5),
    ] {
        fib.insert(p.parse().unwrap(), nh).unwrap();
    }
    // Not a multiple of any chunk width, so every tier ends on a partial
    // chunk.
    let keys: Vec<u32> = (0..203u32)
        .map(|i| match i % 4 {
            0 => 0x0A00_0000 | (i.wrapping_mul(0x9E37_79B9) >> 8), // 10.0.0.0/8
            1 => 0xC000_0200 | ((i * 7) % 256),                    // 192.0.2.0/24, /25
            2 => 0xC633_6400 | (i % 32),                           // around the /28
            _ => i.wrapping_mul(0x9E37_79B9),                      // anywhere
        })
        .collect();
    let mut want = [0u64; DEPTH_BUCKETS];
    for &k in &keys {
        match fib.poptrie().lookup_phase(k) {
            LookupPhase::Direct => want[0] += 1,
            LookupPhase::Descent(d) => want[d as usize] += 1,
        }
    }
    assert!(want[0] > 0, "the key set has direct hits");
    assert!(want[2] > 0, "the key set has two-level descents");

    let mut out = vec![0; keys.len()];
    for tier in [
        BatchBackend::Scalar,
        BatchBackend::Avx2,
        BatchBackend::Avx512,
    ] {
        if !tier.is_available() {
            continue;
        }
        let name = tier.name();
        assert_eq!(fib.set_batch_backend(tier), tier);
        telemetry::reset();
        fib.poptrie().lookup_batch(&keys, &mut out);
        let t = telemetry::snapshot();
        assert_eq!(t.depth, want, "{name}: depth histogram vs lookup_phase");
        assert_eq!(
            t.lookups_batched,
            keys.len() as u64,
            "{name}: batched lookups"
        );
        assert_eq!(t.lookups_scalar, 0, "{name}: no scalar lookups");
        assert_eq!(
            t.batch_fill.iter().sum::<u64>(),
            t.batch_calls,
            "{name}: batch fill histogram mass == chunk calls"
        );
        assert_eq!(
            t.batch_fill
                .iter()
                .enumerate()
                .map(|(i, &n)| i as u64 * n)
                .sum::<u64>(),
            keys.len() as u64,
            "{name}: batch fill carries every key once"
        );
    }
}
