//! Helpers shared by the engine integration tests (`mod common;`).

use poptrie_suite::poptrie::sync::RouteUpdate;
use poptrie_suite::rib::NO_ROUTE;
use poptrie_suite::{Lpm, NextHop, RadixTree};

/// One recorded served batch: the keys, the next hops the worker
/// produced, and the snapshot version the lookup ran against.
pub type ServedBatch = (Vec<u32>, Vec<NextHop>, u64);

/// One recorded publish: the snapshot version it produced and the
/// coalesced updates applied to reach it.
pub type Publish = (u64, Vec<RouteUpdate<u32>>);

/// The version-exact oracle: every served batch's next hops must be
/// exactly what the FIB contained at the version it ran against.
///
/// The single writer publishes versions in order; batches (from any
/// number of worker threads) are sorted by version, then `oracle` — the
/// RIB at version `v0`, when the engine started — is advanced through
/// the publish log in lockstep.
pub fn assert_version_exact(
    mut served: Vec<ServedBatch>,
    published: &[Publish],
    mut oracle: RadixTree<u32, NextHop>,
    v0: u64,
) {
    served.sort_by_key(|&(_, _, version)| version);
    let mut publishes = published.iter().peekable();
    for (keys, out, version) in &served {
        assert!(*version >= v0, "batch served a pre-engine version");
        while publishes.peek().is_some_and(|(v, _)| v <= version) {
            let (_, updates) = publishes.next().unwrap();
            for u in updates {
                match *u {
                    RouteUpdate::Announce(p, nh) => {
                        oracle.insert(p, nh);
                    }
                    RouteUpdate::Withdraw(p) => {
                        oracle.remove(p);
                    }
                }
            }
        }
        for (k, got) in keys.iter().zip(out) {
            let want = Lpm::lookup(&oracle, *k).unwrap_or(NO_ROUTE);
            assert_eq!(
                *got, want,
                "key {k:#010x} at version {version}: engine said {got}, oracle says {want}"
            );
        }
    }
}
