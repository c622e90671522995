//! The oracle: every sampled answer is checked against a RIB radix tree
//! at the version of the snapshot that served it, and the final state
//! against the RIB over the whole key pool (and, on the VRF workload,
//! every address of every tenant's churn pool).

use std::collections::HashMap;

use poptrie::sync::RouteUpdate;
use poptrie::VrfId;
use poptrie_rib::{NextHop, RadixTree, NO_ROUTE};

use crate::inputs::Inputs;
use crate::load::ConvRec;
use crate::stack::{Publish, Sample, Stack};

#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    /// Checked keys inside the prefixes churn touches (VRF workload).
    pub churned: u64,
}

fn apply(rib: &mut RadixTree<u32, NextHop>, u: RouteUpdate<u32>) {
    match u {
        RouteUpdate::Announce(p, nh) => {
            rib.insert(p, nh);
        }
        RouteUpdate::Withdraw(p) => {
            rib.remove(p);
        }
    }
}

fn compare(rib: &RadixTree<u32, NextHop>, keys: &[u32], nhs: &[NextHop], v: &mut Verdict) {
    for (&k, &nh) in keys.iter().zip(nhs) {
        v.checked += 1;
        if rib.lookup(k).copied().unwrap_or(NO_ROUTE) != nh {
            v.mismatches += 1;
        }
    }
}

/// For each accepted engine-FIB update: the publish that carried it and
/// when the worker first served a batch on that version or a later one.
/// Updates published after the last served batch have no entry.
pub fn engine_chains(
    conv: &[ConvRec],
    publishes: &[Publish],
    adopts: &[(u64, u64)],
) -> Vec<(usize, Publish, u64)> {
    let mut out = Vec::with_capacity(conv.len());
    for (i, c) in conv.iter().enumerate() {
        let Some(p) = publishes.get(publishes.partition_point(|p| p.drained <= c.idx)) else {
            continue;
        };
        let Some(a) = adopts.get(adopts.partition_point(|a| a.0 < p.version)) else {
            continue;
        };
        out.push((i, *p, a.1));
    }
    out
}

/// Engine-FIB workloads: the RIB at version `v` is the table plus the
/// first `drained(v)` accepted updates, the writer draining in order.
pub fn check_engine(
    inputs: &Inputs,
    stack: &Stack,
    accepted: &[RouteUpdate<u32>],
    publishes: &[Publish],
    mut samples: Vec<Sample>,
) -> Verdict {
    let mut v = Verdict::default();
    let mut rib = RadixTree::from_routes(inputs.routes.iter().copied());
    let drained: HashMap<u64, u64> = publishes.iter().map(|p| (p.version, p.drained)).collect();
    samples.sort_by_key(|s| s.version);
    let mut applied = 0usize;
    for s in &samples {
        let d = match s.version {
            0 => Some(0),
            v => drained.get(&v).copied(),
        };
        let Some(d) = d else {
            // A version no publish produced: every answer is suspect.
            v.checked += s.keys.len() as u64;
            v.mismatches += s.keys.len() as u64;
            continue;
        };
        while (applied as u64) < d && applied < accepted.len() {
            apply(&mut rib, accepted[applied]);
            applied += 1;
        }
        compare(&rib, &s.keys, &s.nhs, &mut v);
    }
    for &u in &accepted[applied..] {
        apply(&mut rib, u);
    }
    let snap = stack.fib.snapshot();
    let mut out = Vec::new();
    for b in &inputs.batches {
        out.clear();
        out.resize(b.len(), NO_ROUTE);
        snap.lookup_batch(b, &mut out);
        compare(&rib, b, &out, &mut v);
    }
    v
}

/// VRF workload: churn reaches each tenant one update per publish in the
/// fixed-rate phase (the run counts tenants where that failed as
/// `version_errors`), so tenant version `n` holds the tenant's first `n`
/// accepted updates.
pub fn check_vrf(
    inputs: &Inputs,
    stack: &Stack,
    accepted: &[(VrfId, RouteUpdate<u32>)],
    mut samples: Vec<Sample>,
) -> Verdict {
    let mut v = Verdict::default();
    let tenant_of: HashMap<usize, usize> = inputs
        .batches
        .iter()
        .zip(&inputs.batch_vrf)
        .map(|(b, t)| (b.as_ptr() as usize, t.index()))
        .collect();
    let mut per_tenant: Vec<Vec<RouteUpdate<u32>>> = vec![Vec::new(); inputs.tenants.len()];
    for &(t, u) in accepted {
        per_tenant[t.index()].push(u);
    }
    let pool_of = |t: usize, k: u32| inputs.pools[t].iter().any(|p| p.contains(k));
    samples.sort_by_key(|s| (tenant_of.get(&s.ptr).copied(), s.version));
    let mut ribs: Vec<RadixTree<u32, NextHop>> = inputs
        .tenants
        .iter()
        .map(|r| RadixTree::from_routes(r.iter().copied()))
        .collect();
    let mut applied = vec![0usize; ribs.len()];
    for s in &samples {
        let Some(&t) = tenant_of.get(&s.ptr) else {
            v.checked += s.keys.len() as u64;
            v.mismatches += s.keys.len() as u64;
            continue;
        };
        while (applied[t] as u64) < s.version && applied[t] < per_tenant[t].len() {
            apply(&mut ribs[t], per_tenant[t][applied[t]]);
            applied[t] += 1;
        }
        compare(&ribs[t], &s.keys, &s.nhs, &mut v);
        v.churned += s.keys.iter().filter(|&&k| pool_of(t, k)).count() as u64;
    }
    for (t, rib) in ribs.iter_mut().enumerate() {
        for &u in &per_tenant[t][applied[t]..] {
            apply(rib, u);
        }
    }
    let mut out = Vec::new();
    for (b, t) in inputs.batches.iter().zip(&inputs.batch_vrf) {
        let snap = stack.tenant_fib(*t).snapshot();
        out.clear();
        out.resize(b.len(), NO_ROUTE);
        snap.lookup_batch(b, &mut out);
        compare(&ribs[t.index()], b, &out, &mut v);
        v.churned += b.iter().filter(|&&k| pool_of(t.index(), k)).count() as u64;
    }
    // Every address of each tenant's churn pool, and of the next
    // tenant's: an update applied to the wrong tenant shows in both.
    let n = ribs.len();
    let mut keys = Vec::with_capacity(64);
    for (t, rib) in ribs.iter().enumerate() {
        let snap = stack.tenant_fib(VrfId::new(t as u32)).snapshot();
        for (owner, p) in [t, (t + 1) % n]
            .into_iter()
            .flat_map(|o| inputs.pools[o].iter().map(move |p| (o, p)))
        {
            keys.clear();
            keys.extend(p.first_addr()..=p.last_addr());
            out.clear();
            out.resize(keys.len(), NO_ROUTE);
            snap.lookup_batch(&keys, &mut out);
            compare(rib, &keys, &out, &mut v);
            if owner == t {
                v.churned += keys.len() as u64;
            }
        }
    }
    v
}

/// Share of pool keys the direct-pointing array answers alone: the RIB
/// decides them within the first `s` bits.
pub fn direct_share(inputs: &Inputs) -> f64 {
    let s = inputs.config.direct_bits as u32;
    let mut direct = 0u64;
    let mut total = 0u64;
    if inputs.tenants.is_empty() {
        let rib = RadixTree::from_routes(inputs.routes.iter().copied());
        for b in &inputs.batches {
            for &k in b.iter() {
                total += 1;
                direct += (rib.lookup_with_depth(k).1 <= s) as u64;
            }
        }
    } else {
        let ribs: Vec<RadixTree<u32, NextHop>> = inputs
            .tenants
            .iter()
            .map(|r| RadixTree::from_routes(r.iter().copied()))
            .collect();
        for (b, t) in inputs.batches.iter().zip(&inputs.batch_vrf) {
            for &k in b.iter() {
                total += 1;
                direct += (ribs[t.index()].lookup_with_depth(k).1 <= s) as u64;
            }
        }
    }
    direct as f64 / total.max(1) as f64
}
