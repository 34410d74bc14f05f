//! Catalog round-trip: every benchmark in the catalog constructs, runs on
//! the discrete-event simulator, and is advertised by `opmr demo`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::netsim::{simulate, tera100, ToolModel};
use opmr::workloads::{by_name, Benchmark, Class, BENCHMARKS};

/// The smallest rank count >= 2 the benchmark accepts at class S (BT/SP
/// need perfect squares, CG powers of two, FT is capped by the grid).
fn smallest_ranks(bench: Benchmark, class: Class) -> usize {
    let m = tera100();
    (2..=16)
        .find(|&n| bench.build(class, n, &m, Some(1)).is_ok())
        .unwrap_or_else(|| panic!("{} accepts no rank count in 2..=16", bench.name()))
}

/// Every catalog entry constructs at class S on a small rank count and
/// simulates one iteration producing events — including the three
/// irregular generators added for the metrics plane.
#[test]
fn every_catalog_entry_builds_and_simulates_one_step() {
    let m = tera100();
    for bench in BENCHMARKS {
        let ranks = smallest_ranks(bench, Class::S);
        let w = bench
            .build(Class::S, ranks, &m, Some(1))
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", bench.name()));
        let r = simulate(&w, &m, &ToolModel::online_coupling(1.0))
            .unwrap_or_else(|e| panic!("{} failed to simulate: {e}", bench.name()));
        assert!(
            r.stats.events > 0,
            "{} produced no events on {ranks} ranks",
            bench.name()
        );
        // Name lookup round-trips (case-insensitive, as the CLI uses it).
        assert_eq!(by_name(bench.name()).unwrap(), bench);
        assert_eq!(by_name(&bench.name().to_lowercase()).unwrap(), bench);
    }
}

/// `opmr demo` prints the workload catalog: one listing line per entry,
/// so new generators cannot be added without surfacing in the CLI.
#[test]
fn demo_listing_advertises_every_catalog_entry() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_opmr"))
        .arg("demo")
        .output()
        .expect("opmr demo runs");
    assert!(out.status.success(), "demo exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listing = stdout
        .split("workload catalog")
        .nth(1)
        .expect("demo prints the catalog listing");
    for bench in BENCHMARKS {
        assert!(
            listing.contains(bench.name()),
            "{} missing from the demo listing",
            bench.name()
        );
    }
}

/// Runs the `opmr` binary with `args`; returns its pid and output.
fn opmr(args: &[&str]) -> (u32, std::process::Output) {
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_opmr"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("opmr starts");
    let pid = child.id();
    (pid, child.wait_with_output().expect("opmr runs"))
}

/// The `stable digest <hex>` an `opmr demo` run prints on stderr.
fn demo_digest(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "demo exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (_, tail) = stderr
        .split_once("stable digest ")
        .unwrap_or_else(|| panic!("no stable digest on stderr: {stderr}"));
    tail.chars().take_while(char::is_ascii_hexdigit).collect()
}

/// `opmr demo --transport socket` hosts process 0 and launches the
/// application worker through the launch plane: its report digest is the
/// in-process demo's, and its scratch directory is gone afterwards.
#[test]
fn demo_over_sockets_prints_the_in_process_digest() {
    let (_, inproc) = opmr(&["demo"]);
    let (pid, socket) = opmr(&["demo", "--transport", "socket", "--procs", "2"]);
    assert_eq!(demo_digest(&socket), demo_digest(&inproc));
    let scratch = std::env::temp_dir().join(format!("opmr-demo-{pid}"));
    assert!(!scratch.exists(), "{} left behind", scratch.display());
}

/// `opmr launch` removes the directory that holds its default mesh socket.
#[test]
fn launch_removes_its_scratch_directory() {
    let (pid, out) = opmr(&["launch", "--procs", "2", "--", "demo"]);
    assert!(
        out.status.success(),
        "launch exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let scratch = std::env::temp_dir().join(format!("opmr-launch-{pid}"));
    assert!(!scratch.exists(), "{} left behind", scratch.display());
}

/// A malformed value is a usage error (exit 2) naming the flag, not a
/// silent fallback to the default.
#[test]
fn bad_cli_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 6] = [
        (&["demo", "--procs", "x"], "--procs"),
        (&["demo", "--transport", "x"], "--transport"),
        (&["simulate", "--ranks", "x"], "--ranks"),
        (&["simulate", "--iters", "x"], "--iters"),
        (&["simulate", "--machine", "x"], "--machine"),
        (&["simulate", "--tool", "x"], "--tool"),
    ];
    for (args, flag) in cases {
        let (_, out) = opmr(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
}
