//! Repository maintenance tasks.
//!
//! ```text
//! cargo run -p xtask -- panic-scan
//! cargo run -p xtask -- wire-scan
//! ```
//!
//! `panic-scan` is the second half of the panic lint gate: clippy's
//! `unwrap_used`/`expect_used` deny catches unwraps at compile time, this
//! scanner additionally flags `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` in library sources (`crates/*/src`, `src/`) outside
//! `#[cfg(test)]` blocks. A site is allow-listed by a `// PANIC-OK:
//! <reason>` marker on the same line; the allow-list may shrink but any
//! growth past the committed baseline fails the scan, so new panicking
//! sites need a deliberate baseline bump in this file.
//!
//! `wire-scan` keeps wire decoding in one place: decoders read through
//! `opmr_events::wire::Reader`, so `Buf::get_*` calls, `.remaining() <`
//! guards and `from_le_bytes` reads in the same library sources fail the
//! scan unless their file is in [`WIRE_ALLOWED`] with room left.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Committed size of the `PANIC-OK` allow-list. Adding a marker without
/// bumping this (with review) fails CI; removing markers is always fine.
const ALLOWED_BASELINE: usize = 1;

/// Files that may still read the wire by hand, with how many such lines
/// each holds. The table may only shrink: a new file or a count above its
/// entry fails `wire-scan`; port the decoder onto `wire::Reader` instead.
const WIRE_ALLOWED: &[(&str, usize)] = &[
    // The reader itself and the measured per-event kernels.
    ("crates/events/src/wire.rs", 1),
    ("crates/events/src/codec.rs", 8),
    ("crates/events/src/compress.rs", 2),
    // Not ported in ISSUE 23, which fenced off the crates on the socket
    // ring's hot path: trace-file readers, the gather payload, two
    // control-frame reads in the socket link.
    ("crates/instrument/src/sink.rs", 1),
    ("crates/instrument/src/sion.rs", 4),
    ("crates/runtime/src/collectives.rs", 2),
    ("crates/runtime/src/socket.rs", 2),
];

struct Site {
    file: PathBuf,
    line: usize,
    text: String,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("panic-scan") => report(panic_scan()),
        Some("wire-scan") => report(wire_scan()),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <panic-scan|wire-scan>");
            ExitCode::from(2)
        }
    }
}

fn report(outcome: Result<ExitCode, Box<dyn Error>>) -> ExitCode {
    outcome.unwrap_or_else(|e| {
        eprintln!("xtask: {e}");
        ExitCode::FAILURE
    })
}

/// Non-test library sources: `crates/*/src` (but not this scanner, which
/// would flag its own pattern tables) and the root package's `src/`.
fn library_sources(root: &Path) -> Result<Vec<PathBuf>, Box<dyn Error>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        collect_rs(&dir.join("src"), &mut files)?;
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

/// True for a line that reads wire bytes by hand: a `Buf::get_*` call, a
/// hand-summed `.remaining() <` guard, or a `from_le_bytes` conversion
/// (other than of a byte-string literal, which is how magics are spelt).
fn reads_wire_by_hand(code: &str) -> bool {
    let buf_get = code.contains(".get_u8()") || (code.contains(".get_") && code.contains("_le()"));
    let from_le = code.contains("from_le_bytes") && !code.contains("from_le_bytes(*b\"");
    buf_get || code.contains(".remaining() <") || from_le
}

fn wire_scan() -> Result<ExitCode, Box<dyn Error>> {
    let root = workspace_root()?;
    let files = library_sources(&root)?;
    let mut failed = false;
    let mut allowed_sites = 0;
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let sites: Vec<(usize, &str)> = non_test_lines(&src)
            .into_iter()
            .filter(|(_, line)| reads_wire_by_hand(strip_comment(line)))
            .collect();
        let allowed = WIRE_ALLOWED
            .iter()
            .find(|(path, _)| Path::new(path) == rel)
            .map_or(0, |(_, n)| *n);
        if sites.len() > allowed {
            failed = true;
            for (line, text) in &sites {
                eprintln!(
                    "hand-rolled wire read {}:{line}: {}",
                    rel.display(),
                    text.trim()
                );
            }
            eprintln!(
                "  {} site(s) in {}, {allowed} allowed\n",
                sites.len(),
                rel.display()
            );
        }
        allowed_sites += sites.len();
    }
    if failed {
        eprintln!(
            "wire-scan: decode through `opmr_events::wire::Reader` (counts through \
             `Reader::count`); WIRE_ALLOWED in crates/xtask/src/main.rs may only shrink"
        );
        return Ok(ExitCode::FAILURE);
    }
    let budget: usize = WIRE_ALLOWED.iter().map(|(_, n)| n).sum();
    println!(
        "wire-scan: OK — {} files, {allowed_sites}/{budget} allow-listed hand-rolled reads",
        files.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn panic_scan() -> Result<ExitCode, Box<dyn Error>> {
    let root = workspace_root()?;
    let files = library_sources(&root)?;

    let patterns: Vec<String> = ["panic", "unreachable", "todo", "unimplemented"]
        .iter()
        .map(|m| format!("{m}!("))
        .collect();
    let marker = format!("// {}: ", "PANIC-OK");

    let mut unmarked = Vec::new();
    let mut marked = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        for (idx, line) in non_test_lines(&src) {
            let code = strip_comment(line);
            if !patterns.iter().any(|p| code.contains(p.as_str())) {
                continue;
            }
            let site = Site {
                file: file.strip_prefix(&root).unwrap_or(file).to_path_buf(),
                line: idx,
                text: line.trim().to_string(),
            };
            if line.contains(&marker) {
                marked.push(site);
            } else {
                unmarked.push(site);
            }
        }
    }

    for s in &unmarked {
        eprintln!(
            "unmarked panic site {}:{}: {}",
            s.file.display(),
            s.line,
            s.text
        );
    }
    if !unmarked.is_empty() {
        // The scanner never walks its own sources, so naming the marker
        // inline here cannot self-match.
        eprintln!(
            "\npanic-scan: {} unmarked site(s); return a typed error instead, or \
             justify with `// PANIC-OK: <reason>`",
            unmarked.len(),
        );
        return Ok(ExitCode::FAILURE);
    }
    if marked.len() > ALLOWED_BASELINE {
        for s in &marked {
            eprintln!("allow-listed {}:{}: {}", s.file.display(), s.line, s.text);
        }
        eprintln!(
            "\npanic-scan: allow-list grew to {} sites (baseline {}); shrink it or \
             bump ALLOWED_BASELINE in crates/xtask/src/main.rs with review",
            marked.len(),
            ALLOWED_BASELINE
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "panic-scan: OK — {} files, 0 unmarked sites, {}/{} allow-listed",
        files.len(),
        marked.len(),
        ALLOWED_BASELINE
    );
    Ok(ExitCode::SUCCESS)
}

fn workspace_root() -> Result<PathBuf, Box<dyn Error>> {
    let mut dir = std::env::current_dir()?;
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("not inside the workspace (no Cargo.toml + crates/ found)".into());
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), Box<dyn Error>> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Yields `(line_number, line)` for lines outside `#[cfg(test)]` items and
/// outside doc comments.
fn non_test_lines(src: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if line.trim_start().starts_with("#[cfg(test)]") {
            // Skip the attributed item: scan forward to its first `{` and
            // on to the matching close brace. Brace characters inside
            // char or string literals (`'{'`, `"}"`) would skew the
            // depth count, so they are masked out first.
            let mut depth = 0i32;
            let mut started = false;
            while i < lines.len() {
                let counted = lines[i]
                    .replace("'{'", "")
                    .replace("'}'", "")
                    .replace("\"{\"", "")
                    .replace("\"}\"", "");
                for ch in counted.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            started = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                i += 1;
                if started && depth <= 0 {
                    break;
                }
            }
            continue;
        }
        let t = line.trim_start();
        if !t.starts_with("///") && !t.starts_with("//!") {
            out.push((i + 1, line));
        }
        i += 1;
    }
    out
}

/// Drops a trailing `//` comment (good enough for scanning: the marker is
/// looked up on the raw line before this runs).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}
