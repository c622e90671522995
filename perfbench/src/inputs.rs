//! Seeded inputs. Everything a run feeds the stack is built here, from
//! the `--seed` argument, before any timing starts.

use std::net::Ipv4Addr;
use std::sync::Arc;

use poptrie::sync::RouteUpdate;
use poptrie::{PoptrieConfig, VrfId};
use poptrie_bgp::{Message, UpdateMsg};
use poptrie_rib::{NextHop, Prefix};
use poptrie_rng::prelude::*;
use poptrie_tablegen::{synthesize_update_stream, table1, TableSpec, UpdateEvent};
use poptrie_traffic::ZipfFlows;

use crate::Workload;

/// The full-size table of the engine-FIB workload (Table 1).
const TIER1: &str = "REAL-Tier1-A";
/// §4.9's one-hour update mix: 18,141 announces to 5,305 withdraws.
const ANNOUNCE_SHARE: f64 = 18_141.0 / (18_141.0 + 5_305.0);

/// Tenants of the VRF workload and the shape of each tenant's table:
/// 12 shared /20 groups of 64 /26es plus 12 private /26es, 780 routes.
pub const TENANTS: usize = 1024;
const GROUPS: usize = 12;
const DELTAS: usize = 12;
/// Per-tenant churn pool: the tenant's own deltas plus as many absent
/// /26es, so churn flips routes in and out without growing the table.
const CHURN_POOL: usize = 2 * DELTAS;

/// What one workload sends and how fast.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Keys per submitted batch.
    pub batch_keys: usize,
    /// Distinct pre-built batches the feeder cycles through.
    pub pool_batches: usize,
    /// Offered packet rate of the fixed-rate phase, packets/s.
    pub pkt_rate: f64,
    /// Offered update rate of the fixed-rate phase, routes/s.
    pub upd_rate: f64,
}

/// One BGP UPDATE on the wire and the routes a correct decoder yields
/// from it, in the order the session emits them (announces, then
/// withdraws).
pub struct BgpMsg {
    pub bytes: Vec<u8>,
    pub routes: Vec<RouteUpdate<u32>>,
}

/// The control-plane input of a workload, fixed-rate part first.
pub enum Feed {
    /// BGP UPDATE messages decoded by a `Session`, then `Control::send`.
    Bgp(Vec<BgpMsg>),
    /// Per-tenant updates handed to `Control::send_vrf`.
    Vrf(Vec<(VrfId, RouteUpdate<u32>)>),
}

impl Feed {
    pub fn len(&self) -> usize {
        match self {
            Feed::Bgp(v) => v.len(),
            Feed::Vrf(v) => v.len(),
        }
    }
}

pub struct Inputs {
    pub config: PoptrieConfig,
    /// The engine FIB's routes (empty on the VRF workload).
    pub routes: Vec<(Prefix<u32>, NextHop)>,
    /// Per-tenant routes (VRF workload only).
    pub tenants: Vec<Vec<(Prefix<u32>, NextHop)>>,
    /// Per-tenant churn pools: the only prefixes churn touches (VRF
    /// workload only).
    pub pools: Vec<Vec<Prefix<u32>>>,
    pub batches: Vec<Arc<[u32]>>,
    /// Tenant each batch is addressed to (VRF workload only).
    pub batch_vrf: Vec<VrfId>,
    pub feed: Feed,
    /// Feed items of the fixed-rate phase; the rest is the
    /// control-saturation stream.
    pub fixed_items: usize,
    /// Highest next hop the BGP feed uses (its `10.0.0.n` addresses).
    pub max_nh: NextHop,
}

/// `ctrl_routes` is the length of the control-saturation stream that
/// follows the fixed-rate part.
pub fn generate(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    fixed_secs: f64,
    ctrl_routes: usize,
) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);
    // Feed items of the fixed-rate phase, with headroom for a feeder
    // that runs a little past its nominal end.
    let fixed_routes = (plan.upd_rate * fixed_secs * 1.2) as usize + 16;
    match workload {
        Workload::ZipfBgp => {
            let info = table1()
                .iter()
                .find(|d| d.name == TIER1)
                .expect("REAL-Tier1-A is a Table 1 dataset");
            // The table generator seeds from the name, so a seeded name
            // gives a fresh table of the same shape for every seed.
            let table = TableSpec {
                name: format!("{TIER1}/seed-{seed}"),
                prefixes: info.prefixes,
                next_hops: info.next_hops,
                kind: info.kind,
            }
            .generate();
            let total = fixed_routes + ctrl_routes;
            let announces = (total as f64 * ANNOUNCE_SHARE).round() as usize;
            let events = synthesize_update_stream(&table, announces, total - announces);
            let updates: Vec<RouteUpdate<u32>> = events
                .into_iter()
                .map(|e| match e {
                    UpdateEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
                    UpdateEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
                })
                .collect();
            let max_nh = updates
                .iter()
                .filter_map(|u| match u {
                    RouteUpdate::Announce(_, nh) => Some(*nh),
                    RouteUpdate::Withdraw(_) => None,
                })
                .chain(table.routes.iter().map(|&(_, nh)| nh))
                .max()
                .unwrap_or(1);
            let mut keys = vec![0u32; plan.pool_batches * plan.batch_keys];
            ZipfFlows::random(100_000, 1.0, rng.gen::<u32>() | 1).fill(&mut keys);
            let msgs = bgp_messages(&updates, &mut rng);
            let fixed_items = msgs
                .iter()
                .scan(0usize, |acc, m| {
                    *acc += m.routes.len();
                    Some(*acc)
                })
                .take_while(|&r| r < fixed_routes)
                .count()
                + 1;
            Inputs {
                config: PoptrieConfig::new()
                    .direct_bits(18)
                    .build()
                    .expect("s = 18 is valid"),
                routes: table.routes,
                tenants: Vec::new(),
                pools: Vec::new(),
                batches: to_batches(&keys, plan.batch_keys),
                batch_vrf: Vec::new(),
                feed: Feed::Bgp(msgs),
                fixed_items,
                max_nh,
            }
        }
        Workload::Vrf => vrf_inputs(plan, &mut rng, fixed_routes, ctrl_routes),
    }
}

fn to_batches(keys: &[u32], batch: usize) -> Vec<Arc<[u32]>> {
    keys.chunks(batch).map(Arc::from).collect()
}

/// Group a route stream into UPDATE messages of 1–5 routes (3 on
/// average). Announces in one message share its first announce's next
/// hop, as BGP's single NEXT_HOP attribute requires, and no prefix
/// appears twice in one message, so the decoder's announce-then-withdraw
/// emission order cannot change the outcome.
pub fn bgp_messages(updates: &[RouteUpdate<u32>], rng: &mut StdRng) -> Vec<BgpMsg> {
    let mut msgs = Vec::with_capacity(updates.len() / 3 + 1);
    let mut i = 0;
    while i < updates.len() {
        let want = rng.gen_range(1..=5usize);
        let mut msg = UpdateMsg::default();
        let mut nh: Option<NextHop> = None;
        let mut seen: Vec<Prefix<u32>> = Vec::with_capacity(want);
        while i < updates.len() && seen.len() < want {
            let p = match updates[i] {
                RouteUpdate::Announce(p, _) | RouteUpdate::Withdraw(p) => p,
            };
            if seen.contains(&p) {
                break;
            }
            seen.push(p);
            match updates[i] {
                RouteUpdate::Announce(p, n) => {
                    let n = *nh.get_or_insert(n);
                    msg.announced_v4.push(p);
                    msg.next_hop_v4 = Some(nh_addr(n));
                }
                RouteUpdate::Withdraw(p) => msg.withdrawn_v4.push(p),
            }
            i += 1;
        }
        let mut routes: Vec<RouteUpdate<u32>> = msg
            .announced_v4
            .iter()
            .map(|&p| RouteUpdate::Announce(p, nh.expect("announce sets the next hop")))
            .collect();
        routes.extend(msg.withdrawn_v4.iter().map(|&p| RouteUpdate::Withdraw(p)));
        msgs.push(BgpMsg {
            bytes: Message::Update(msg).encode(),
            routes,
        });
    }
    msgs
}

/// The wire address standing for next hop `nh`: `10.0.0.0 + nh`. The
/// feeder pre-interns these in order, so the session's dense index of
/// the address is `nh` again.
pub fn nh_addr(nh: NextHop) -> Ipv4Addr {
    Ipv4Addr::from(0x0A00_0000u32 | nh as u32)
}

fn vrf_inputs(plan: &Plan, rng: &mut StdRng, fixed_routes: usize, ctrl_routes: usize) -> Inputs {
    // The tenant family: every tenant holds the same 12 /20 groups of
    // 64 /26es with next hops cycling through a small pool (the leaf
    // blocks interning shares across tenants) plus 12 private /26es.
    let mut groups: Vec<u32> = Vec::with_capacity(GROUPS);
    let mut base: Vec<(Prefix<u32>, NextHop)> = Vec::with_capacity(GROUPS * 64);
    while groups.len() < GROUPS {
        let g = rng.gen::<u32>() & (!0u32 << 12);
        if groups.contains(&g) {
            continue;
        }
        groups.push(g);
        let phase = groups.len() % 8;
        for i in 0..64u32 {
            base.push((
                Prefix::new(g | (i << 6), 26),
                ((i as usize + phase) % 8 + 1) as NextHop,
            ));
        }
    }
    let random_26 = |rng: &mut StdRng| Prefix::new(rng.gen::<u32>() & (!0u32 << 6), 26);
    let mut tenants = Vec::with_capacity(TENANTS);
    let mut pools = Vec::with_capacity(TENANTS);
    for _ in 0..TENANTS {
        let pool: Vec<Prefix<u32>> = (0..CHURN_POOL).map(|_| random_26(rng)).collect();
        let mut routes = base.clone();
        routes.extend(
            pool[..DELTAS]
                .iter()
                .map(|&p| (p, rng.gen_range(1..=64u32) as NextHop)),
        );
        tenants.push(routes);
        pools.push(pool);
    }

    // Churn: tenants in a seeded round-robin order, so consecutive
    // updates of one tenant are TENANTS updates apart. Each update flips
    // a pool prefix: a present route is withdrawn (30%) or moved to a new
    // next hop, an absent one is announced.
    let mut order: Vec<u32> = (0..TENANTS as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut present: Vec<Vec<bool>> = (0..TENANTS)
        .map(|_| (0..CHURN_POOL).map(|i| i < DELTAS).collect())
        .collect();
    let total = fixed_routes + ctrl_routes;
    let mut feed = Vec::with_capacity(total);
    for n in 0..total {
        let t = order[n % TENANTS] as usize;
        let slot = rng.gen_range(0..CHURN_POOL);
        let p = pools[t][slot];
        let u = if present[t][slot] && rng.gen_bool(0.3) {
            present[t][slot] = false;
            RouteUpdate::Withdraw(p)
        } else {
            present[t][slot] = true;
            RouteUpdate::Announce(p, rng.gen_range(1..=64u32) as NextHop)
        };
        feed.push((VrfId::new(t as u32), u));
    }

    // Keys of a batch: a quarter inside its tenant's churn pool, so the
    // oracle sees announced, moved and withdrawn routes; the rest split
    // between the shared groups, where answers are non-trivial, and the
    // whole address space.
    let batch_vrf: Vec<VrfId> = (0..plan.pool_batches)
        .map(|_| VrfId::new(rng.gen_range(0..TENANTS as u32)))
        .collect();
    let mut keys = vec![0u32; plan.pool_batches * plan.batch_keys];
    for (i, k) in keys.iter_mut().enumerate() {
        let pool = &pools[batch_vrf[i / plan.batch_keys].index()];
        *k = match i % 8 {
            0 | 1 => pool[rng.gen_range(0..CHURN_POOL)].addr() | rng.gen_range(0..64u32),
            2..=4 => groups[rng.gen_range(0..GROUPS)] | rng.gen_range(0..1u32 << 12),
            _ => rng.gen(),
        };
    }
    Inputs {
        config: PoptrieConfig::new()
            .direct_bits(8)
            .build()
            .expect("s = 8 is valid"),
        routes: Vec::new(),
        tenants,
        pools,
        batches: to_batches(&keys, plan.batch_keys),
        batch_vrf,
        feed: Feed::Vrf(feed),
        fixed_items: fixed_routes,
        max_nh: 64,
    }
}
