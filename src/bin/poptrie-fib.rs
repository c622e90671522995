//! `poptrie-fib` — command-line FIB compiler and query tool.
//!
//! ```text
//! poptrie-fib build <rib.txt> -o <fib.bin> [--direct-bits N] [--no-aggregate]
//! poptrie-fib lookup <fib.bin | rib.txt> <addr>...
//! poptrie-fib stats <fib.bin | rib.txt>
//! poptrie-fib ranges <fib.bin | rib.txt> [--limit N]
//! poptrie-fib gen <dataset-name> [-o rib.txt]
//! poptrie-fib mrt-extract <dump.mrt> --peer <index> [-o rib.txt]
//! ```
//!
//! RIB text files use the `prefix next-hop-index` line format of
//! `poptrie_tablegen::parse_routes_v4`; compiled FIBs use the
//! `poptrie::serial` binary format (auto-detected by magic). MRT dumps
//! must be uncompressed TABLE_DUMP_V2 (`bzcat rib.bz2 > rib.mrt`).

use poptrie_suite::tablegen::{self, mrt};
use poptrie_suite::{Poptrie, RadixTree};
use std::net::Ipv4Addr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("poptrie-fib: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
poptrie-fib — compile, query and inspect Poptrie FIBs

usage:
  poptrie-fib build <rib.txt> -o <fib.bin> [--direct-bits N] [--no-aggregate]
  poptrie-fib lookup <fib.bin | rib.txt> <addr>...
  poptrie-fib stats <fib.bin | rib.txt>
  poptrie-fib ranges <fib.bin | rib.txt> [--limit N]
  poptrie-fib gen <dataset-name> [-o rib.txt]
  poptrie-fib mrt-extract <dump.mrt> --peer <index> [-o rib.txt]

options:
  --telemetry   after the command, dump the process-wide lookup/update
                counters in Prometheus text format (requires a build with
                --features observe)
";

fn run(args: &[String]) -> Result<(), String> {
    let mut pos = Vec::new();
    let mut out_path: Option<String> = None;
    let mut direct_bits: u8 = 18;
    let mut aggregate = true;
    let mut telemetry = false;
    let mut peer: Option<u16> = None;
    let mut limit: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => {
                out_path = Some(it.next().ok_or("missing value after -o")?.clone());
            }
            "--direct-bits" | "-s" => {
                direct_bits = it
                    .next()
                    .ok_or("missing value after --direct-bits")?
                    .parse()
                    .map_err(|_| "invalid --direct-bits")?;
            }
            "--no-aggregate" => aggregate = false,
            "--telemetry" => telemetry = true,
            "--peer" => {
                peer = Some(
                    it.next()
                        .ok_or("missing value after --peer")?
                        .parse()
                        .map_err(|_| "invalid --peer")?,
                );
            }
            "--limit" => {
                limit = Some(
                    it.next()
                        .ok_or("missing value after --limit")?
                        .parse()
                        .map_err(|_| "invalid --limit")?,
                );
            }
            "-h" | "--help" | "help" => {
                print!("{USAGE}");
                return Ok(());
            }
            _ => pos.push(a.clone()),
        }
    }
    let Some(cmd) = pos.first() else {
        print!("{USAGE}");
        return Err("no command given".into());
    };
    let result = match cmd.as_str() {
        "build" => build(&pos[1..], out_path, direct_bits, aggregate),
        "lookup" => lookup(&pos[1..]),
        "stats" => stats(&pos[1..]),
        "ranges" => ranges(&pos[1..], limit),
        "gen" => gen(&pos[1..], out_path),
        "mrt-extract" => mrt_extract(&pos[1..], peer, out_path),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    if telemetry && result.is_ok() {
        dump_telemetry();
    }
    result
}

/// `--telemetry`: dump the process-wide counters the command just drove
/// (lookup totals, descent-depth histogram, update work) as Prometheus
/// text.
#[cfg(feature = "observe")]
fn dump_telemetry() {
    use poptrie_suite::poptrie::telemetry;
    println!("\n# --telemetry dump (process-wide counters)");
    print!("{}", telemetry::snapshot().render_prometheus());
}

/// Without the `observe` feature the counters are compiled out.
#[cfg(not(feature = "observe"))]
fn dump_telemetry() {
    eprintln!(
        "poptrie-fib: --telemetry requires a build with the counters compiled in:\n  \
         cargo run --release --features observe --bin poptrie-fib -- ..."
    );
}

/// Load a FIB from either a compiled blob or a text RIB.
fn load_fib(path: &str) -> Result<Poptrie<u32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"PTRI") {
        return Poptrie::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8 text"))?;
    let routes = tablegen::parse_routes_v4(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Poptrie::builder().build(&RadixTree::from_routes(routes)))
}

fn build(
    pos: &[String],
    out: Option<String>,
    direct_bits: u8,
    aggregate: bool,
) -> Result<(), String> {
    let [input] = pos else {
        return Err("build needs exactly one input RIB".into());
    };
    let out = out.ok_or("build needs -o <fib.bin>")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let routes = tablegen::parse_routes_v4(&text).map_err(|e| format!("{input}: {e}"))?;
    let rib = RadixTree::from_routes(routes);
    let start = std::time::Instant::now();
    let fib: Poptrie<u32> = Poptrie::builder()
        .direct_bits(direct_bits)
        .aggregate(aggregate)
        .build(&rib);
    let dt = start.elapsed();
    let bytes = fib.to_bytes();
    std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    let st = fib.stats();
    println!(
        "compiled {} routes in {:.2} ms: {} inodes, {} leaves, {} bytes FIB ({} bytes on disk) -> {}",
        rib.len(),
        dt.as_secs_f64() * 1e3,
        st.inodes,
        st.leaves,
        st.memory_bytes,
        bytes.len(),
        out
    );
    Ok(())
}

fn lookup(pos: &[String]) -> Result<(), String> {
    let [input, addrs @ ..] = pos else {
        return Err("lookup needs an input and at least one address".into());
    };
    if addrs.is_empty() {
        return Err("lookup needs at least one address".into());
    }
    let fib = load_fib(input)?;
    for a in addrs {
        let ip: Ipv4Addr = a.parse().map_err(|_| format!("invalid address {a:?}"))?;
        match fib.lookup(u32::from(ip)) {
            Some(nh) => println!("{ip} -> next hop {nh}"),
            None => println!("{ip} -> no route"),
        }
    }
    Ok(())
}

fn stats(pos: &[String]) -> Result<(), String> {
    let [input] = pos else {
        return Err("stats needs exactly one input".into());
    };
    let fib = load_fib(input)?;
    let st = fib.stats();
    println!("direct bits:   {}", fib.direct_bits());
    println!("internal nodes: {}", st.inodes);
    println!("leaves:         {}", st.leaves);
    println!("direct slots:   {}", st.direct_slots);
    println!(
        "memory:         {} bytes ({:.2} MiB)",
        st.memory_bytes,
        st.memory_bytes as f64 / (1024.0 * 1024.0)
    );
    let ranges = fib.ranges();
    println!("effective ranges: {}", ranges.len());
    Ok(())
}

fn ranges(pos: &[String], limit: Option<usize>) -> Result<(), String> {
    let [input] = pos else {
        return Err("ranges needs exactly one input".into());
    };
    let fib = load_fib(input)?;
    let ranges = fib.ranges();
    let n = limit.unwrap_or(ranges.len());
    for &(start, nh) in ranges.iter().take(n) {
        if nh == 0 {
            println!("{} -", Ipv4Addr::from(start));
        } else {
            println!("{} {nh}", Ipv4Addr::from(start));
        }
    }
    if n < ranges.len() {
        println!("... {} more", ranges.len() - n);
    }
    Ok(())
}

fn gen(pos: &[String], out: Option<String>) -> Result<(), String> {
    let [name] = pos else {
        return Err(format!(
            "gen needs a dataset name; known: {}",
            tablegen::all_dataset_names().join(", ")
        ));
    };
    if !tablegen::all_dataset_names().contains(&name.as_str()) {
        return Err(format!(
            "unknown dataset {name:?}; known: {}",
            tablegen::all_dataset_names().join(", ")
        ));
    }
    eprintln!("synthesizing {name} ...");
    let d = tablegen::dataset(name);
    let text = tablegen::write_routes_v4(&d.routes);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{name}: {} routes, {} next hops -> {path}",
                d.len(),
                d.next_hop_count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn mrt_extract(pos: &[String], peer: Option<u16>, out: Option<String>) -> Result<(), String> {
    let [input] = pos else {
        return Err("mrt-extract needs exactly one MRT file".into());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let dump = mrt::parse_table_dump_v2(&bytes).map_err(|e| e.to_string())?;
    let Some(peer) = peer else {
        // No peer given: list the full-feed candidates like Table 1 did.
        println!("peers with >= 400K IPv4 routes (use --peer <index>):");
        for idx in dump.full_feed_peers(400_000) {
            let p = &dump.peers[idx as usize];
            println!("  p{idx}: AS{} {}", p.asn, p.address);
        }
        return Ok(());
    };
    let view = dump
        .peer_view(peer)
        .ok_or_else(|| format!("no peer with index {peer}"))?;
    let text = tablegen::write_routes_v4(&view.routes_v4);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "peer p{peer} (AS{} {}): {} routes, {} next hops -> {path}",
                view.peer.asn,
                view.peer.address,
                view.routes_v4.len(),
                view.next_hops.len() - 1
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}
