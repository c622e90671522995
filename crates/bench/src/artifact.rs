//! The `results/BENCH_*.json` artifacts and the run history.
//!
//! Every artifact goes through [`write_artifact`]: the document is built
//! as a [`Json`] value, written, read back from disk and parsed, and its
//! required fields are looked up by path — so a truncated write, a
//! non-finite float or an unescaped string fails the run instead of
//! landing as a file that only looks like JSON. The history is one
//! rendered [`Json`] object per line; [`last_comparable`] finds the entry
//! a new run should be compared with.

use poptrie_telemetry::json::Json;
use std::io::Write as _;
use std::path::Path;

/// Write `doc` to `path` (creating its directory), read the file back,
/// parse it and check that every [`Json::pointer`] path in `required`
/// resolves. Returns the document as parsed from disk.
pub fn write_artifact(path: &Path, doc: &Json, required: &[&str]) -> Result<Json, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("could not create its directory: {e}"))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("could not write: {e}"))?;
    let landed = std::fs::read_to_string(path).map_err(|e| format!("could not read back: {e}"))?;
    let parsed = Json::parse(&landed).map_err(|e| format!("malformed: {e}"))?;
    match required.iter().find(|p| parsed.pointer(p).is_none()) {
        Some(missing) => Err(format!("malformed: no {missing}")),
        None => Ok(parsed),
    }
}

/// Append `entry` as one line to the history file at `path`. A torn
/// last line (an interrupted earlier append) is ended first, so the new
/// entry always parses on a line of its own.
pub fn append_history(path: &Path, entry: &Json) -> std::io::Result<()> {
    let torn = std::fs::read(path).is_ok_and(|h| h.last().is_some_and(|&b| b != b'\n'));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let lead = if torn { "\n" } else { "" };
    file.write_all(format!("{lead}{entry}\n").as_bytes())
}

/// The last history entry that parses and agrees with `entry` on every
/// one of `keys`: the previous comparable run. Lines that do not parse
/// (a torn append) are skipped.
pub fn last_comparable(history: &str, entry: &Json, keys: &[&str]) -> Option<Json> {
    history
        .lines()
        .rev()
        .filter_map(|line| Json::parse(line).ok())
        .find(|old| keys.iter().all(|k| old.get(k) == entry.get(k)))
}
