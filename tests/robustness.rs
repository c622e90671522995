//! Adversarial-input robustness: the byte-level parsers (MRT dumps, BGP
//! messages and serialized FIBs) must never panic, whatever bytes they
//! are fed — they return structured errors instead. Routers parse these
//! formats from the network and from disk, so panicking on malformed
//! input would be a denial-of-service bug.

use poptrie_suite::bitops::Bits;
use poptrie_suite::poptrie::trie::PoptrieImpl;
use poptrie_suite::poptrie::{Node16, Node24, NodeRepr, Poptrie, PoptrieBasic, SerializeError};
use poptrie_suite::rng::{check, StdRng};
use poptrie_suite::tablegen::mrt::parse_table_dump_v2;
use poptrie_suite::{Prefix, RadixTree};

/// Up to `max - 1` uniformly random bytes.
fn bytes(r: &mut StdRng, max: usize) -> Vec<u8> {
    (0..r.gen_range(0..max)).map(|_| r.gen()).collect()
}

#[test]
fn mrt_parser_never_panics() {
    check(
        "mrt_parser_never_panics",
        256,
        |r| bytes(r, 2048),
        |bytes| {
            let _ = parse_table_dump_v2(&bytes);
        },
    );
}

#[test]
fn fib_deserializer_never_panics() {
    check(
        "fib_deserializer_never_panics",
        256,
        |r| bytes(r, 2048),
        |bytes| {
            let _ = Poptrie::<u32>::from_bytes(&bytes);
            let _ = Poptrie::<u128>::from_bytes(&bytes);
            let _ = PoptrieBasic::<u32>::from_bytes(&bytes);
        },
    );
}

#[test]
fn fib_deserializer_rejects_bitflips() {
    // A valid blob with any single payload bit flipped must be rejected
    // (checksum) or still structurally valid — never panic, never
    // silently accept corrupt structure.
    let mut rib = RadixTree::new();
    rib.insert("10.0.0.0/8".parse().unwrap(), 1u16);
    rib.insert("10.1.2.0/24".parse().unwrap(), 2);
    let fib: Poptrie<u32> = Poptrie::builder().direct_bits(16).build(&rib);
    let blob = fib.to_bytes();
    check(
        "fib_deserializer_rejects_bitflips",
        256,
        |r| (r.gen_range(18usize..400), r.gen_range(0u8..8)),
        |(flip_byte, flip_bit)| {
            if flip_byte < blob.len() {
                let mut bytes = blob.clone();
                bytes[flip_byte] ^= 1 << flip_bit;
                // Offsets >= 18 are payload: the checksum must catch the flip.
                assert!(Poptrie::<u32>::from_bytes(&bytes).is_err());
            }
        },
    );
}

#[test]
fn mrt_truncations_never_panic() {
    // Take a structurally valid stream and truncate it at every
    // possible byte: each cut must yield Ok (clean boundary) or a
    // structured error.
    let mut bytes = Vec::new();
    // PEER_INDEX_TABLE
    let body = {
        let mut b = Vec::new();
        b.extend_from_slice(&1u32.to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes());
        b.extend_from_slice(&1u16.to_be_bytes());
        b.push(0x00);
        b.extend_from_slice(&7u32.to_be_bytes());
        b.extend_from_slice(&[192, 0, 2, 1]);
        b.extend_from_slice(&64500u16.to_be_bytes());
        b
    };
    bytes.extend_from_slice(&0u32.to_be_bytes());
    bytes.extend_from_slice(&13u16.to_be_bytes());
    bytes.extend_from_slice(&1u16.to_be_bytes());
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&body);
    // RIB_IPV4_UNICAST
    let body = {
        let mut b = Vec::new();
        b.extend_from_slice(&0u32.to_be_bytes());
        b.push(24);
        b.extend_from_slice(&[10, 1, 2]);
        b.extend_from_slice(&1u16.to_be_bytes());
        b.extend_from_slice(&0u16.to_be_bytes());
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&7u16.to_be_bytes());
        b.extend_from_slice(&[0x40, 3, 4, 192, 0, 2, 9]);
        b
    };
    bytes.extend_from_slice(&0u32.to_be_bytes());
    bytes.extend_from_slice(&13u16.to_be_bytes());
    bytes.extend_from_slice(&2u16.to_be_bytes());
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&body);

    check(
        "mrt_truncations_never_panic",
        256,
        |r| r.gen_range(0usize..200),
        |cut| {
            let cut = cut.min(bytes.len());
            let _ = parse_table_dump_v2(&bytes[..cut]);
        },
    );
}

#[test]
fn parse_error_offsets_point_into_the_input() {
    // Errors must carry usable positions for operators debugging dumps.
    let bytes = [0u8; 7]; // shorter than one MRT header
    let err = parse_table_dump_v2(&bytes).unwrap_err();
    assert!(err.offset <= bytes.len());
    assert!(!err.message.is_empty());
}

// ---------------------------------------------------------------- BGP

#[test]
fn bgp_parser_never_panics() {
    // The BGP codec parses bytes straight off a TCP stream from an
    // untrusted peer: arbitrary input must yield a message or a
    // structured error, never a panic.
    check(
        "bgp_parser_never_panics",
        512,
        |r| bytes(r, 4200),
        |bytes| {
            let _ = poptrie_suite::bgp::wire::parse_message(&bytes);
        },
    );
}

#[test]
fn bgp4mp_parser_never_panics() {
    check(
        "bgp4mp_parser_never_panics",
        512,
        |r| bytes(r, 4096),
        |bytes| {
            let _ = poptrie_suite::tablegen::mrt::parse_bgp4mp(&bytes);
        },
    );
}

#[test]
fn bgp_parser_survives_bitflips() {
    // Start from each structurally valid message type and flip one bit
    // anywhere: the parser must return Ok or a structured error — a
    // panic is a remote denial-of-service.
    use poptrie_suite::bgp::wire::{Message, NotificationMsg, OpenMsg, UpdateMsg};
    let messages = [
        Message::Open(OpenMsg {
            version: 4,
            asn: 65_001,
            hold_time: 90,
            bgp_id: 0xC000_0201,
            params: vec![1, 4, 0, 1, 0, 1],
        }),
        Message::Update(UpdateMsg {
            withdrawn_v4: vec!["203.0.113.0/24".parse().unwrap()],
            announced_v4: vec![
                "10.0.0.0/8".parse().unwrap(),
                "10.1.2.0/24".parse().unwrap(),
            ],
            next_hop_v4: Some("192.0.2.9".parse().unwrap()),
            announced_v6: vec!["2001:db8::/32".parse().unwrap()],
            next_hop_v6: Some("2001:db8::1".parse().unwrap()),
            withdrawn_v6: vec!["2001:db8:ff::/48".parse().unwrap()],
        }),
        Message::Keepalive,
        Message::Notification(NotificationMsg {
            code: 6,
            subcode: 2,
            data: vec![0xDE, 0xAD],
        }),
    ]
    .map(|m| m.encode());
    check(
        "bgp_parser_survives_bitflips",
        512,
        |r| {
            (
                r.gen_range(0usize..4),
                r.gen_range(0usize..80),
                r.gen_range(0u8..8),
            )
        },
        |(which, flip_byte, flip_bit)| {
            let mut bytes = messages[which].clone();
            if flip_byte < bytes.len() {
                bytes[flip_byte] ^= 1 << flip_bit;
            }
            let _ = poptrie_suite::bgp::wire::parse_message(&bytes);
        },
    );
}

#[test]
fn bgp_session_never_panics_on_garbage() {
    // The full stack — frame reassembly plus the session FSM — fed
    // arbitrary stream fragments while Established. Parse errors must
    // tear the session down cleanly, never panic.
    use poptrie_suite::bgp::wire::{Message, OpenMsg};
    use poptrie_suite::bgp::{Session, SessionConfig};
    check(
        "bgp_session_never_panics_on_garbage",
        512,
        |r| {
            (0..r.gen_range(0..32))
                .map(|_| bytes(r, 64))
                .collect::<Vec<_>>()
        },
        |chunks| {
            let mut s = Session::new(SessionConfig::default());
            s.start(0);
            s.connected(0);
            s.recv(
                0,
                &Message::Open(OpenMsg {
                    version: 4,
                    asn: 65_001,
                    hold_time: 90,
                    bgp_id: 1,
                    params: Vec::new(),
                })
                .encode(),
            );
            s.recv(0, &Message::Keepalive.encode());
            let mut now = 0u64;
            for chunk in &chunks {
                now += 1_000_000;
                s.recv(now, chunk);
                s.tick(now);
                s.drain_events();
                s.drain_actions();
            }
        },
    );
}

// ------------------------------------------------- forged FIB blobs

/// Bytes before a blob's payload: magic, version, key width, node size,
/// reserved, and the FNV-1a payload checksum in the last eight.
const HEADER: usize = 18;
/// Payload bytes holding the fixed-size scalars: `s`, the root, the
/// inode and leaf counts and the direct-table length.
const SCALARS: usize = 29;

/// Recompute a blob's payload checksum, so a forged payload gets past it
/// to structural validation — what a deliberate forger would do.
fn reseal(blob: &mut [u8]) {
    let sum = blob[HEADER..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
    blob[HEADER - 8..HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// A blob loads into `Err`, or into a trie that passes its invariant
/// check and answers every probe — scalar and batched alike — without
/// panicking.
fn load_and_probe<K: Bits, N: NodeRepr>(blob: &[u8], probes: &[u128]) {
    let Ok(trie) = PoptrieImpl::<K, N>::from_bytes(blob) else {
        return;
    };
    trie.check_invariants().unwrap();
    let keys: Vec<K> = [0, u128::MAX]
        .iter()
        .chain(probes)
        .map(|&k| K::from_u128(k))
        .collect();
    let mut out = vec![0; keys.len()];
    trie.lookup_batch(&keys, &mut out);
    for (&key, &batched) in keys.iter().zip(&out) {
        assert_eq!(trie.lookup_raw(key), batched, "key {key:?}");
    }
}

/// One forgery: a random table with direct-pointing size `s`, and
/// `edits` — `(payload offset, xor mask)` pairs — applied to its blob.
struct Forgery {
    routes: Vec<(u128, u8, u16)>,
    s: u8,
    edits: Vec<(usize, u8)>,
    probes: Vec<u128>,
}

impl Forgery {
    fn draw(r: &mut StdRng) -> Self {
        let routes = (0..r.gen_range(0..16))
            .map(|_| (r.gen(), r.gen(), r.gen_range(1u16..=500)))
            .collect();
        let s = [0u8, 6, 8][r.gen_range(0usize..3)];
        let edits = (0..r.gen_range(1..=4))
            .map(|_| {
                // Half the edits hit the scalars, where one byte changes
                // the meaning of everything after it.
                let at = if r.gen_bool(0.5) {
                    r.gen_range(0..SCALARS)
                } else {
                    r.gen()
                };
                // A single-bit flip or an arbitrary nonzero change.
                let mask = if r.gen_bool(0.5) {
                    1 << r.gen_range(0u8..8)
                } else {
                    r.gen_range(1u8..=255)
                };
                (at, mask)
            })
            .collect();
        let probes = (0..32).map(|_| r.gen()).collect();
        Forgery {
            routes,
            s,
            edits,
            probes,
        }
    }

    /// Build the table, forge its blob and load it back.
    fn run<K: Bits, N: NodeRepr>(&self) {
        let mut rib: RadixTree<K, u16> = RadixTree::new();
        for &(addr, len, nh) in &self.routes {
            let len = len % (K::BITS as u8 + 1);
            rib.insert(Prefix::new(K::from_u128(addr), len), nh);
        }
        let fib: PoptrieImpl<K, N> = PoptrieImpl::builder().direct_bits(self.s).build(&rib);
        let mut blob = fib.to_bytes();
        let payload = blob.len() - HEADER;
        for &(at, mask) in &self.edits {
            blob[HEADER + at % payload] ^= mask;
        }
        reseal(&mut blob);
        load_and_probe::<K, N>(&blob, &self.probes);
    }
}

#[test]
fn forged_fib_blobs_load_or_fail_cleanly() {
    check(
        "forged_fib_blobs_load_or_fail_cleanly",
        512,
        Forgery::draw,
        |forgery| {
            forgery.run::<u32, Node24>();
            forgery.run::<u32, Node16>();
            forgery.run::<u128, Node24>();
            forgery.run::<u128, Node16>();
        },
    );
}

/// A hand-forged blob: direct-pointing size `s`, 256 direct entries that
/// are all leaves with next hop 1, no nodes and no leaf slots.
fn forged_direct_blob(key_bits: u16, s: u8) -> Vec<u8> {
    const DIRECT_LEAF_BIT: u32 = 1 << 31;
    let mut blob = Vec::new();
    blob.extend_from_slice(b"PTRI");
    blob.extend_from_slice(&1u16.to_le_bytes()); // format version
    blob.extend_from_slice(&key_bits.to_le_bytes());
    blob.push(24); // node size
    blob.push(0); // reserved
    blob.extend_from_slice(&[0; 8]); // checksum, sealed below
    blob.push(s);
    blob.extend_from_slice(&0u32.to_le_bytes()); // root
    blob.extend_from_slice(&0u64.to_le_bytes()); // inode count
    blob.extend_from_slice(&0u64.to_le_bytes()); // leaf count
    blob.extend_from_slice(&256u64.to_le_bytes()); // direct entries
    for _ in 0..256 {
        blob.extend_from_slice(&(DIRECT_LEAF_BIT | 1).to_le_bytes());
    }
    blob.extend_from_slice(&0u64.to_le_bytes()); // nodes
    blob.extend_from_slice(&0u64.to_le_bytes()); // leaf slots
    reseal(&mut blob);
    blob
}

#[test]
fn direct_size_beyond_the_key_width_is_corrupt() {
    // Shifting by an unchecked `s >= 64` overflowed in debug builds; in
    // release `1 << s` wrapped to 256, the blob loaded, and a lookup read
    // outside the direct table.
    for s in [64u8, 72, 200] {
        for (key_bits, err) in [
            (
                32,
                Poptrie::<u32>::from_bytes(&forged_direct_blob(32, s)).err(),
            ),
            (
                128,
                Poptrie::<u128>::from_bytes(&forged_direct_blob(128, s)).err(),
            ),
        ] {
            assert!(
                matches!(err, Some(SerializeError::Corrupt(_))),
                "s={s} on {key_bits}-bit keys: {err:?}"
            );
        }
    }
    // The same forgery with an in-range `s` is a valid table.
    let t = Poptrie::<u32>::from_bytes(&forged_direct_blob(32, 8)).unwrap();
    assert_eq!(t.lookup(u32::MAX), Some(1));
}
