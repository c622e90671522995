//! Standalone calibration calls of the traced run: each layer's public
//! functions called directly on the workload's own structures and keys,
//! timed in windows, one span per window.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use poptrie::sync::{RouteUpdate, SharedFib};
use poptrie::{BatchBackend, Fib, Poptrie, VrfId};
use poptrie_engine::VrfTable;
use poptrie_rib::{NextHop, RadixTree, NO_ROUTE};
use poptrie_rng::prelude::*;

use crate::inputs::{bgp_messages, Feed, Inputs};
use crate::load::{Accepted, Peer};
use crate::spans::SpanLog;
use crate::util::{median, now_ns};

/// Time `f` window by window for about `secs` (at least five windows);
/// `f` returns the units of work it did, 0 when it has none left. Median
/// ns per unit.
fn windows(log: &mut SpanLog, name: &'static str, secs: f64, mut f: impl FnMut() -> u64) -> f64 {
    let start = now_ns();
    let mut per = Vec::new();
    loop {
        let t0 = now_ns();
        let n = f();
        let t1 = now_ns();
        if n == 0 {
            break;
        }
        log.push(0, name, t0, t1);
        per.push((t1 - t0) as f64 / n as f64);
        if per.len() >= 5 && (t1 - start) as f64 >= secs * 1e9 {
            break;
        }
    }
    median(&mut per)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Packet-path calibrations, `secs` each, on the FIB state the
/// saturation phase served. The engine must be idle.
pub fn packet_path(
    inputs: &Inputs,
    fib: &Arc<SharedFib<u32>>,
    tenants: Option<&Arc<VrfTable<u32>>>,
    secs: f64,
    log: &mut SpanLog,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let vrf = !inputs.tenants.is_empty();
    let nb = inputs.batches.len();
    // The serving FIB of each pool batch: the engine FIB, or the tenant
    // the batch is addressed to.
    let fibs: Vec<Arc<SharedFib<u32>>> = match tenants {
        Some(v) => (0..v.len())
            .map(|t| v.get(VrfId::new(t as u32)).expect("registered tenant"))
            .collect(),
        None => vec![Arc::clone(fib)],
    };
    let fib_of = |b: usize| -> usize {
        if vrf {
            inputs.batch_vrf[b].index()
        } else {
            0
        }
    };
    let mut buf = vec![NO_ROUTE; inputs.batches[0].len()];
    // Windows of about 64 batches.
    let chunk = 64.min(nb);
    let mut cursor = 0usize;
    let mut next_chunk = || {
        let c = cursor;
        cursor = (cursor + chunk) % nb;
        (0..chunk).map(move |i| (c + i) % nb)
    };

    // trie + batch_simd + bitops: bare lookups on private trie copies.
    let tries: Vec<Poptrie<u32>> = fibs.iter().map(|f| (**f.snapshot()).clone()).collect();
    for (tier, name) in [
        (BatchBackend::Scalar, "trie.batch_ns_per_pkt.scalar"),
        (BatchBackend::Avx2, "trie.batch_ns_per_pkt.avx2"),
        (BatchBackend::Avx512, "trie.batch_ns_per_pkt.avx512"),
    ] {
        let mut t = tries.clone();
        let installed = t.iter_mut().map(|t| t.set_batch_backend(tier)).last();
        if installed != Some(tier) {
            println!("# {name}: tier not available, measured {:?}", installed);
        }
        let v = windows(log, name, secs, || {
            let mut n = 0;
            for b in next_chunk() {
                t[fib_of(b)].lookup_batch(&inputs.batches[b], &mut buf);
                n += buf.len() as u64;
            }
            black_box(&buf);
            n
        });
        out.push(m(name, v, "ns/pkt"));
    }
    let v = windows(log, "trie.lookup_ns", secs, || {
        let mut acc = 0u32;
        let mut n = 0;
        for b in next_chunk() {
            let t = &tries[fib_of(b)];
            for &k in inputs.batches[b].iter() {
                acc = acc.wrapping_add(t.lookup_raw(black_box(k)) as u32);
            }
            n += inputs.batches[b].len() as u64;
        }
        black_box(acc);
        n
    });
    out.push(m("trie.lookup_ns", v, "ns"));
    // Dependent chain: each key's index depends on the previous answer,
    // so lookups cannot overlap (the serial latency regime).
    let v = windows(log, "trie.lookup_dep_ns", secs, || {
        let mut n = 0;
        let mut nh: NextHop = 0;
        for b in next_chunk() {
            let t = &tries[fib_of(b)];
            let keys = &inputs.batches[b];
            for j in 0..keys.len() {
                nh = t.lookup_raw(keys[(j + nh as usize) % keys.len()]);
            }
            n += keys.len() as u64;
        }
        black_box(nh);
        n
    });
    out.push(m("trie.lookup_dep_ns", v, "ns"));
    drop(tries);

    // sync: snapshot acquisition alone, then snapshot + batch lookup.
    // Snapshot and resolve calls are short: 16 chunks per window.
    let v = windows(log, "sync.snapshot_ns", secs, || {
        let mut n = 0;
        for _ in 0..16 {
            for b in next_chunk() {
                black_box(fibs[fib_of(b)].snapshot());
                n += 1;
            }
        }
        n
    });
    out.push(m("sync.snapshot_ns", v, "ns"));
    let v = windows(log, "sync.batch_ns_per_pkt", secs, || {
        let mut n = 0;
        for b in next_chunk() {
            fibs[fib_of(b)]
                .snapshot()
                .lookup_batch(&inputs.batches[b], &mut buf);
            n += buf.len() as u64;
        }
        black_box(&buf);
        n
    });
    out.push(m("sync.batch_ns_per_pkt", v, "ns/pkt"));

    // vrf: the workload's registry, or on the engine-FIB workloads the
    // workload's table compiled as the only tenant of a shared group.
    let (vrfs, compile_s): (Arc<VrfTable<u32>>, Option<f64>) = match tenants {
        Some(v) => (Arc::clone(v), None),
        None => {
            let rib = RadixTree::from_routes(inputs.routes.iter().copied());
            let leaves = fib.snapshot().stats().leaves as u64;
            let slots = (2 * leaves + (1 << 16)).next_power_of_two().min(1 << 31) as u32;
            let t0 = Instant::now();
            let v = Arc::new(VrfTable::shared(inputs.config, slots));
            v.create_from(rib);
            (v, Some(t0.elapsed().as_secs_f64()))
        }
    };
    if let Some(s) = compile_s {
        out.push(m("vrf.compile_s", s, "s"));
    }
    let vrf_of = |b: usize| -> VrfId {
        if vrf {
            inputs.batch_vrf[b]
        } else {
            VrfId::new(0)
        }
    };
    let v = windows(log, "vrf.resolve_ns", secs, || {
        let mut n = 0;
        for _ in 0..16 {
            for b in next_chunk() {
                black_box(vrfs.snapshot(vrf_of(b)));
                n += 1;
            }
        }
        n
    });
    out.push(m("vrf.resolve_ns", v, "ns"));
    let v = windows(log, "vrf.batch_ns_per_pkt", secs, || {
        let mut n = 0;
        for b in next_chunk() {
            let snap = vrfs.snapshot(vrf_of(b)).expect("registered tenant");
            snap.lookup_batch(&inputs.batches[b], &mut buf);
            n += buf.len() as u64;
        }
        black_box(&buf);
        n
    });
    out.push(m("vrf.batch_ns_per_pkt", v, "ns/pkt"));
    let st = vrfs.intern_stats().expect("a shared registry interns");
    out.push(m(
        "vrf.dedup_ratio",
        st.dedup_hits as f64 / (st.dedup_hits + st.fresh_allocs).max(1) as f64,
        "ratio",
    ));

    out
}

/// Control-path calibrations, `secs` each, after the run's updates. The
/// engine must be idle.
pub fn control_path(
    inputs: &Inputs,
    fib: &Arc<SharedFib<u32>>,
    tenants: Option<&Arc<VrfTable<u32>>>,
    accepted: &Accepted,
    secs: f64,
    log: &mut SpanLog,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let vrf = tenants.is_some();
    // sync: a publish with nothing in it is the snapshot copy alone.
    let publish_to = VrfId::new(0);
    let v = windows(log, "sync.publish_us", secs, || {
        for _ in 0..8 {
            match tenants {
                Some(v) => {
                    v.update_batch(publish_to, std::iter::empty());
                }
                None => {
                    fib.update_batch(std::iter::empty());
                }
            }
        }
        8
    }) / 1e3;
    out.push(m("sync.publish_us", v, "us"));

    // builder + update + buddy: private FIBs replaying the run's stream.
    let ribs: Vec<RadixTree<u32, NextHop>> = if vrf {
        inputs
            .tenants
            .iter()
            .map(|r| RadixTree::from_routes(r.iter().copied()))
            .collect()
    } else {
        vec![RadixTree::from_routes(inputs.routes.iter().copied())]
    };
    let t0 = now_ns();
    let mut private: Vec<Fib<u32>> = ribs
        .into_iter()
        .map(|r| Fib::compile(r, inputs.config))
        .collect();
    let t1 = now_ns();
    // The engine-FIB workloads time their compile in set-up; on vrf-1024
    // set-up compiles through the interner, so the private compile of
    // every tenant is the builder's own figure.
    if vrf {
        log.push(0, "builder.compile", t0, t1);
        out.push(m("builder.compile_s", (t1 - t0) as f64 / 1e9, "s"));
    }
    let stream: Vec<(usize, RouteUpdate<u32>)> = if vrf {
        accepted.vrf.iter().map(|&(t, u)| (t.index(), u)).collect()
    } else {
        accepted.engine.iter().map(|&u| (0, u)).collect()
    };
    let before: Vec<_> = private.iter().map(|f| f.stats()).collect();
    let mut pos = 0usize;
    let mut replayed = 0u64;
    let v = windows(log, "update.apply", secs, || {
        let mut n = 0;
        while n < 256 && pos < stream.len() {
            let (t, u) = stream[pos];
            pos += 1;
            let _ = match u {
                RouteUpdate::Announce(p, nh) => private[t].insert(p, nh),
                RouteUpdate::Withdraw(p) => private[t].remove(p),
            };
            n += 1;
        }
        replayed += n;
        n
    }) / 1e3;
    out.push(m("update.apply_us", v, "us"));
    let (mut upd, mut nodes, mut leaves) = (0u64, 0u64, 0u64);
    for (f, b) in private.iter().zip(&before) {
        let d = f.stats().delta_since(*b);
        upd += d.updates;
        nodes += d.nodes_allocated;
        leaves += d.leaves_allocated;
    }
    println!("# update replay: {replayed} routes, {upd} changed the RIB");
    out.push(m(
        "update.nodes_per_update",
        nodes as f64 / upd.max(1) as f64,
        "count",
    ));
    out.push(m(
        "update.leaves_per_update",
        leaves as f64 / upd.max(1) as f64,
        "count",
    ));

    // bgp: wire decode through the session FSM. The VRF feed is encoded
    // the way the BGP workload's feed is.
    let encoded;
    let msgs = match &inputs.feed {
        Feed::Bgp(m) => m,
        Feed::Vrf(v) => {
            let routes: Vec<RouteUpdate<u32>> = v.iter().map(|&(_, u)| u).collect();
            encoded = bgp_messages(&routes, &mut StdRng::seed_from_u64(1));
            &encoded
        }
    };
    let mut peer = Peer::established(inputs.max_nh);
    let mut decoded = Vec::new();
    let mut mi = 0usize;
    let v = windows(log, "bgp.decode", secs, || {
        let mut n = 0;
        for _ in 0..256 {
            let msg = &msgs[mi % msgs.len()];
            mi += 1;
            peer.decode(&msg.bytes, &mut decoded);
            n += decoded.len() as u64;
        }
        n
    });
    out.push(m("bgp.decode_ns_per_update", v, "ns"));
    out
}
