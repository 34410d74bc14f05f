//! An idle session costs (almost) no CPU: while the application computes,
//! the analyzer rank sleeps on its mailbox instead of polling it — no
//! `EAGAIN` is ever returned on a Direct session.
//!
//! A test binary of its own — and one test in it — so that the process's
//! CPU time is this session's alone.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use opmr::core::Session;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in clock ticks; Linux reports 100 ticks a second on
/// every supported architecture).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next().unwrap().parse().unwrap();
    let stime: f64 = fields.next().unwrap().parse().unwrap();
    (utime + stime) / 100.0
}

#[test]
fn a_session_whose_application_computes_sits_idle() {
    // Rank 0 reads the process's CPU time around its five computes, so
    // launch, the mapping handshake and teardown are not in the window.
    let window = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&window);
    let outcome = Session::builder()
        .analyzer_ranks(1)
        .app("sleeper", 2, move |imp| {
            let (cpu0, t0) = (process_cpu_s(), Instant::now());
            for _ in 0..5 {
                imp.compute(Duration::from_millis(200)).expect("compute");
            }
            if imp.rank() == 0 {
                *sink.lock().unwrap() = Some((process_cpu_s() - cpu0, t0.elapsed().as_secs_f64()));
            }
        })
        .run()
        .unwrap();
    assert!(outcome.report.apps[0].events >= 10, "ten computes recorded");
    let (cpu, wall) = window.lock().unwrap().expect("rank 0 ran");
    assert!(wall >= 1.0, "five 200 ms computes took {wall:.3} s");
    let share = cpu / wall;
    assert!(
        share <= 0.15,
        "idle session burned {cpu:.2} CPU-s in {wall:.2} s ({share:.2} of a core)"
    );
    // The registry is this process's, hence this session's.
    let m = &outcome.metrics;
    assert_eq!(m.counter("vmpi_stream_eagain_total"), Some(0));
    assert!(m.counter("runtime_mailbox_parks_total").unwrap() > 0);
}
