//! A hard deadline for daemon-driving tests and CI smoke steps.
//!
//! CI's `timeout-minutes` kills a hung job eventually, but minutes of a
//! wedged soak tell you nothing about *where* it wedged. [`watchdog`]
//! arms an in-process deadline instead: if the guarded section has not
//! dropped its [`Watchdog`] by the limit, the process prints what it was
//! doing and exits with status 124 (the same convention as
//! `timeout(1)`), so the harness fails fast with the culprit named.
//!
//! Two helpers for the same tests ride along: [`poll_until`] waits on a
//! daemon-side condition with its own deadline, and [`stable_lines`]
//! strips the one wall-clock-dependent line from a session report so
//! two reports compare line for line.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An armed deadline. Dropping it disarms the timer; the process dies
/// with exit status 124 if the limit passes first.
#[derive(Debug)]
pub struct Watchdog {
    disarmed: Arc<AtomicBool>,
    timer: Option<JoinHandle<()>>,
}

/// Arms a watchdog: unless the returned guard is dropped within
/// `limit`, the process prints `what` to stderr and exits with status
/// 124. Use around any section that drives a live daemon — a hang
/// becomes a named, fast failure instead of a silent CI timeout.
#[must_use]
pub fn watchdog(limit: Duration, what: &str) -> Watchdog {
    let disarmed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&disarmed);
    let what = what.to_owned();
    let timer = std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        if !flag.load(Ordering::Relaxed) {
            eprintln!("watchdog: `{what}` still running after {limit:?}; aborting");
            std::process::exit(124);
        }
    });
    Watchdog {
        disarmed,
        timer: Some(timer),
    }
}

/// Checks `check` every 10 ms until it holds or `deadline` has passed
/// since the call: whether it held in time.
pub fn poll_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// The lines of a session report minus its `ingest` line, whose B/s
/// figure depends on the wall clock.
#[must_use]
pub fn stable_lines(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("ingest"))
        .collect()
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarmed.store(true, Ordering::Relaxed);
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_watchdog_lets_the_process_live() {
        let guard = watchdog(Duration::from_millis(80), "fast section");
        std::thread::sleep(Duration::from_millis(5));
        drop(guard);
        // Long enough that a broken disarm would have fired by now.
        std::thread::sleep(Duration::from_millis(150));
    }
}
